// Command tracegen generates the synthetic real-life trace (section 4.6
// stand-in) or reports the aggregate statistics of an existing trace file.
//
// Usage:
//
//	tracegen -out reallife.trace [-seed 42]
//	tracegen -stats reallife.trace
package main

import (
	"errors"
	"flag"
	"fmt"
	"io"
	"os"

	"repro/internal/trace"
)

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

// run executes the command against the given argument list and streams; it
// returns the process exit code (0 ok, 1 runtime error, 2 usage error).
func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("tracegen", flag.ContinueOnError)
	fs.SetOutput(stderr)
	out := fs.String("out", "", "write the synthetic real-life trace to this file")
	statsPath := fs.String("stats", "", "print aggregate statistics of an existing trace file")
	seed := fs.Int64("seed", 42, "generator seed")
	top := fs.Int("top", 0, "also list the N hottest pages")
	if err := fs.Parse(args); err != nil {
		if errors.Is(err, flag.ErrHelp) {
			return 0
		}
		return 2
	}

	switch {
	case *out != "":
		tr := trace.GenerateRealLife(*seed)
		f, err := os.Create(*out)
		if err != nil {
			return fail(stderr, err)
		}
		if err := trace.Write(f, tr); err != nil {
			f.Close()
			return fail(stderr, err)
		}
		if err := f.Close(); err != nil {
			return fail(stderr, err)
		}
		report(stdout, tr, *top)
		fmt.Fprintln(stdout, "written to", *out)
	case *statsPath != "":
		f, err := os.Open(*statsPath)
		if err != nil {
			return fail(stderr, err)
		}
		tr, err := trace.Read(f)
		f.Close()
		if err != nil {
			return fail(stderr, err)
		}
		report(stdout, tr, *top)
	default:
		fs.Usage()
		return 2
	}
	return 0
}

func report(w io.Writer, tr *trace.Trace, top int) {
	s := tr.ComputeStats()
	fmt.Fprintf(w, "transactions:   %d (%d types)\n", s.NumTxs, s.NumTypes)
	fmt.Fprintf(w, "accesses:       %d (%.2f%% writes)\n", s.NumAccesses, 100*s.WriteFrac())
	fmt.Fprintf(w, "update txs:     %d (%.1f%%)\n", s.UpdateTxs, 100*s.UpdateTxFrac())
	fmt.Fprintf(w, "distinct pages: %d of %d (%d files, %.1f GB at 4KB pages)\n",
		s.DistinctPages, s.TotalPages, tr.NumFiles(), float64(s.TotalPages)*4/1024/1024)
	fmt.Fprintf(w, "largest tx:     %d accesses\n", s.MaxTxSize)
	if counts := tr.TypeHistogram(); len(tr.TypeNames) == len(counts) {
		for i, c := range counts {
			fmt.Fprintf(w, "  type %-14s %6d txs\n", tr.TypeNames[i], c)
		}
	}
	if top > 0 {
		fmt.Fprintf(w, "hottest %d pages:\n", top)
		for _, a := range tr.HottestPages(top) {
			fmt.Fprintf(w, "  file %d page %d\n", a.Partition, a.Object)
		}
	}
}

func fail(stderr io.Writer, err error) int {
	fmt.Fprintln(stderr, "tracegen:", err)
	return 1
}
