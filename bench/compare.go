package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"os"
	"path/filepath"
	"slices"
)

// benchmarkFile is BENCHMARK.json.
type benchmarkFile struct {
	Command    []string `json:"command"`
	Paths      []string `json:"paths"`
	RunSeconds int      `json:"run_seconds"`
	Workloads  []struct {
		Name string `json:"name"`
		Why  string `json:"why"`
	} `json:"workloads"`
	EndToEnd []benchMetric `json:"end_to_end"`
	PerLayer []benchMetric `json:"per_layer"`
}

type benchMetric struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound,omitempty"`
}

func loadBenchmark(path string) (*benchmarkFile, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var bf benchmarkFile
	dec := json.NewDecoder(bytes.NewReader(data))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&bf); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return &bf, nil
}

// loadRecords reads a -json file: one record per line.
func loadRecords(path string) ([]record, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	var out []record
	sc := bufio.NewScanner(f)
	sc.Buffer(nil, 1<<20)
	for sc.Scan() {
		if len(sc.Bytes()) == 0 {
			continue
		}
		var rec record
		if err := json.Unmarshal(sc.Bytes(), &rec); err != nil {
			return nil, fmt.Errorf("%s: %w", path, err)
		}
		out = append(out, rec)
	}
	return out, sc.Err()
}

// compareRow is one (metric, workload) comparison of side A (the parent)
// with side B (the change).
type compareRow struct {
	workload, metric string
	a, b             []float64
	bound            float64
	verdict          string
}

// compareRuns compares the untraced runs of a and b for every end-to-end
// metric and workload present on both sides. Run i of a is paired with run
// i of b, so record alternating pairs in the same order on both sides.
func compareRuns(metrics []benchMetric, a, b []record) []compareRow {
	var order []string
	for _, rec := range append(slices.Clone(a), b...) {
		if !slices.Contains(order, rec.Workload) {
			order = append(order, rec.Workload)
		}
	}
	var rows []compareRow
	for _, w := range order {
		for _, m := range metrics {
			av, bv := values(a, w, m.Name), values(b, w, m.Name)
			if len(av) == 0 || len(bv) == 0 {
				continue
			}
			rows = append(rows, compareRow{
				workload: w, metric: m.Name, a: av, b: bv, bound: m.Bound,
				verdict: verdict(av, bv, m.Bound, m.Better == "higher"),
			})
		}
	}
	return rows
}

func values(recs []record, workload, metric string) []float64 {
	var out []float64
	for _, r := range recs {
		if mv, ok := r.Metrics[metric]; ok && r.Workload == workload && r.Trace == 0 {
			out = append(out, mv.Value)
		}
	}
	return out
}

// verdict classifies B against A:
//   - improved: at least 10 pairs, B wins at least 9 in 10 of them, and
//     the medians differ by more than A's interquartile range;
//   - regressed: B's median is worse than A's by more than bound (a share
//     of A's median), unless A's own spread exceeds the bound and B's runs
//     do not all read worse than A's, which is unresolved;
//   - unresolved: A's spread exceeds the bound, or B is better by more
//     than the bound without the paired evidence for improved;
//   - unchanged: otherwise.
func verdict(a, b []float64, bound float64, higherBetter bool) string {
	better := func(x, y float64) bool { return (higherBetter && x > y) || (!higherBetter && x < y) }
	medA, medB := median(a), median(b)
	if medA == 0 {
		return "unresolved"
	}
	worse := (medB - medA) / math.Abs(medA)
	if higherBetter {
		worse = -worse
	}
	spread := iqr(a) / math.Abs(medA)
	if n := min(len(a), len(b)); n >= 10 {
		wins := 0
		for i := 0; i < n; i++ {
			if better(b[i], a[i]) {
				wins++
			}
		}
		if 10*wins >= 9*n && math.Abs(medB-medA) > iqr(a) {
			return "improved"
		}
	}
	// every reports whether rel(x, y) holds for every run x of B and y of A.
	every := func(rel func(x, y float64) bool) bool {
		for _, x := range b {
			for _, y := range a {
				if !rel(x, y) {
					return false
				}
			}
		}
		return true
	}
	worseThan := func(x, y float64) bool { return better(y, x) }
	switch {
	case worse > bound && (spread <= bound || every(worseThan)):
		return "regressed"
	case worse > bound, spread > bound && !every(better), worse < -bound:
		return "unresolved"
	}
	return "unchanged"
}

// iqr is the distance between the first and third quartiles, computed as
// Python's statistics.quantiles(xs, n=4) does (the exclusive method).
func iqr(xs []float64) float64 {
	n := len(xs)
	if n < 2 {
		return 0
	}
	s := slices.Sorted(slices.Values(xs))
	q := func(i int) float64 {
		m := n + 1
		j := min(max(i*m/4, 1), n-1)
		delta := float64(i*m - j*4)
		return (s[j-1]*(4-delta) + s[j]*delta) / 4
	}
	return q(3) - q(1)
}

func compareMain(args []string, stdout, stderr io.Writer) int {
	if len(args) != 2 {
		fmt.Fprintln(stderr, "bench: want -compare A.json B.json")
		return 2
	}
	root, err := repoRoot()
	if err != nil {
		fmt.Fprintf(stderr, "bench: %v\n", err)
		return 1
	}
	bf, err := loadBenchmark(filepath.Join(root, "BENCHMARK.json"))
	if err != nil {
		fmt.Fprintf(stderr, "bench: %v\n", err)
		return 1
	}
	var sides [2][]record
	for i, path := range args {
		if sides[i], err = loadRecords(path); err != nil {
			fmt.Fprintf(stderr, "bench: %v\n", err)
			return 1
		}
	}
	fmt.Fprintf(stdout, "%-15s %-16s %4s %4s %14s %14s %8s %6s  %s\n",
		"workload", "metric", "nA", "nB", "median A", "median B", "change", "bound", "verdict")
	code := 0
	for _, row := range compareRuns(bf.EndToEnd, sides[0], sides[1]) {
		medA, medB := median(row.a), median(row.b)
		fmt.Fprintf(stdout, "%-15s %-16s %4d %4d %14.6g %14.6g %+7.2f%% %5.0f%%  %s\n",
			row.workload, row.metric, len(row.a), len(row.b), medA, medB,
			100*ratio(medB-medA, medA), 100*row.bound, row.verdict)
		if row.verdict == "regressed" {
			code = 1
		}
	}
	return code
}
