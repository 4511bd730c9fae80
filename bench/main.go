// Command bench is the simulator's benchmark. It runs four fixed workloads
// through the public entry points of internal/experiments and internal/core,
// checks every simulated output against committed fingerprints, and prints
// host-time end-to-end metrics or, in a traced run, per-layer metrics.
//
//	go run . -workload dc-disk -seed 1 -seconds 20      # end-to-end metrics
//	go run . -workload dc-disk -seed 1 -trace 1         # per-layer metrics
//	go run . -seed 1 -json a.json                       # all four workloads, 15 s each
//	go run . -compare a.json b.json                     # apply BENCHMARK.json bounds
//
// The last line of standard output is one JSON object with the keys
// correct, attempted, failed and metrics. See README.md.
package main

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"strconv"
	"strings"
)

func main() { os.Exit(benchMain(os.Args[1:], os.Stdout, os.Stderr)) }

// summary is the JSON object that ends a workload's output.
type summary struct {
	Correct   bool                   `json:"correct"`
	Attempted int                    `json:"attempted"`
	Failed    int                    `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
}

type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// record is one line of a -json file: a workload run and its summary.
type record struct {
	Workload string `json:"workload"`
	Seed     int64  `json:"seed"`
	Trace    int    `json:"trace"`
	summary
}

func benchMain(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("bench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	name := fs.String("workload", "all", "workload to run, or all")
	seed := fs.Int64("seed", 1, "input seed")
	secs := fs.Float64("seconds", 15, "host seconds of measured rounds per workload")
	trace := fs.Int("trace", 0, "1: traced run printing the per-layer metrics")
	traceDir := fs.String("trace-dir", filepath.Join(".bench_build", "trace"), "directory for traced-run artifacts")
	jsonPath := fs.String("json", "", "append one JSON record per workload run to this file")
	compare := fs.Bool("compare", false, "compare two -json files: -compare A.json B.json")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if *compare {
		return compareMain(fs.Args(), stdout, stderr)
	}
	if fs.NArg() > 0 || (*trace != 0 && *trace != 1) || *secs <= 0 {
		fmt.Fprintln(stderr, "bench: want -workload W -seed N -seconds S -trace 0|1 and no arguments")
		return 2
	}
	root, err := repoRoot()
	if err != nil {
		fmt.Fprintf(stderr, "bench: %v\n", err)
		return 1
	}
	ws := workloads()
	if *name != "all" {
		w, err := workloadByName(*name)
		if err != nil {
			fmt.Fprintf(stderr, "bench: %v\n", err)
			return 2
		}
		ws = []benchWorkload{w}
	}
	code := 0
	for _, w := range ws {
		rec, err := runWorkload(w, *seed, *secs, *trace == 1, filepath.Join(*traceDir, w.name), root, stdout, stderr)
		if err != nil {
			fmt.Fprintf(stderr, "bench: %v\n", err)
			return 1
		}
		if *jsonPath != "" {
			if err := appendRecord(*jsonPath, rec); err != nil {
				fmt.Fprintf(stderr, "bench: %v\n", err)
				return 1
			}
		}
		if !rec.Correct {
			code = 1
		}
	}
	return code
}

// runWorkload measures one workload and prints its metric lines and summary.
func runWorkload(w benchWorkload, seed int64, secs float64, traced bool, traceDir, root string, stdout, stderr io.Writer) (record, error) {
	r, err := measure(w, seed, secs, traced, traceDir, root)
	if err != nil {
		return record{}, err
	}
	specs, values := endToEndSpecs, endToEndMetrics(r)
	if traced {
		specs, values = layerSpecs, layerMetrics(r)
		if err := writeArtifacts(traceDir, r, values); err != nil {
			return record{}, err
		}
	}
	rec := record{Workload: w.name, Seed: seed, summary: summary{
		Correct: r.failed == 0, Attempted: r.attempted, Failed: r.failed,
		Metrics: map[string]metricValue{},
	}}
	if traced {
		rec.Trace = 1
	}
	fmt.Fprintf(stdout, "# %s seed %d: %d set-ups, %d untraced ops in %d rounds, %d traced ops in %d rounds; "+
		"unscaled op p50 %.2f ms, machine factor %.3f\n",
		w.name, seed, len(r.setupS), r.ops, len(r.rates), r.tracedOps, len(r.tracedRates),
		median(r.rawMS), median(r.factors))
	for _, s := range specs {
		v := values[s.name]
		rec.Metrics[s.name] = metricValue{Value: v, Unit: s.unit}
		fmt.Fprintf(stdout, "%s %s %s %s\n", w.name, s.name, strconv.FormatFloat(v, 'g', -1, 64), s.unit)
	}
	for _, e := range r.errs {
		fmt.Fprintf(stderr, "bench: %s: %v\n", w.name, e)
	}
	line, err := json.Marshal(rec.summary)
	if err != nil {
		return record{}, err
	}
	fmt.Fprintf(stdout, "%s\n", line)
	return rec, nil
}

// writeArtifacts writes a traced run's spans and per-layer table next to
// the CPU profiles of its traced rounds.
func writeArtifacts(dir string, r *run, values map[string]float64) error {
	if err := r.tr.writeChrome(filepath.Join(dir, "spans.json")); err != nil {
		return err
	}
	var b strings.Builder
	fmt.Fprintf(&b, "%-12s %10s %16s\n", "layer", "self_frac", "self_us_per_op")
	for _, l := range layers {
		fmt.Fprintf(&b, "%-12s %10.4f %16.1f\n", l, values[l+".self_frac"], values[l+".self_us_per_op"])
	}
	return os.WriteFile(filepath.Join(dir, "layers.txt"), []byte(b.String()), 0o644)
}

func appendRecord(path string, rec record) error {
	line, err := json.Marshal(rec)
	if err != nil {
		return err
	}
	f, err := os.OpenFile(path, os.O_APPEND|os.O_CREATE|os.O_WRONLY, 0o644)
	if err != nil {
		return err
	}
	if _, err := f.Write(append(line, '\n')); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// repoRoot finds the repository root: the working directory when run from
// the root, its parent when run from bench/.
func repoRoot() (string, error) {
	for _, dir := range []string{".", ".."} {
		if _, err := os.Stat(filepath.Join(dir, "BENCHMARK.json")); err == nil {
			return dir, nil
		}
	}
	return "", errors.New("BENCHMARK.json not found: run from the repository root or bench/")
}
