package experiments

import (
	"fmt"
	"runtime"
	"sync"
	"sync/atomic"

	"repro/internal/core"
	"repro/internal/rng"
	"repro/internal/stats"
)

// The paper's evaluation is a grid of independent simulation runs: every
// figure sweeps an arrival rate or buffer size over a handful of storage
// configurations, and each (series, x, replication) point is one core.Run
// with no shared mutable state. This file fans those runs out over a bounded
// worker pool. Determinism is preserved by construction: every run's seed
// derives only from (base seed, replication index), and results land in
// index-addressed slots, so rendered output is byte-identical regardless of
// worker count or scheduling order.

// reps returns the number of independent replications per simulation point.
func (o Options) reps() int {
	if o.Replications <= 0 {
		return 1
	}
	return o.Replications
}

// parallelism returns the worker count of the run pool.
func (o Options) parallelism() int {
	if o.Parallelism > 0 {
		return o.Parallelism
	}
	return runtime.GOMAXPROCS(0)
}

// runPool executes job(0..n-1) on min(workers, n) goroutines and blocks
// until all jobs finished. Jobs are claimed through a shared counter, so the
// job→worker assignment is scheduling-dependent; callers must write results
// into per-index slots to stay deterministic.
func runPool(workers, n int, job func(i int)) {
	if workers > n {
		workers = n
	}
	if workers <= 1 {
		for i := 0; i < n; i++ {
			job(i)
		}
		return
	}
	var next atomic.Int64
	var wg sync.WaitGroup
	wg.Add(workers)
	for w := 0; w < workers; w++ {
		go func() {
			defer wg.Done()
			for {
				i := int(next.Add(1)) - 1
				if i >= n {
					return
				}
				job(i)
			}
		}()
	}
	wg.Wait()
}

// cell holds the replicated results of one grid position, in replication
// order.
type cell struct {
	results []*core.Result
}

// meanCI aggregates metric over the cell's replications into the mean and
// the 95%-confidence half-width, without materializing the value slice.
func (c cell) meanCI(metric func(*core.Result) float64) (mean, ci float64) {
	return stats.MeanCI95Seq(len(c.results), func(i int) float64 { return metric(c.results[i]) })
}

// replicated reports whether the cell holds more than one run.
func (c cell) replicated() bool { return len(c.results) > 1 }

// fmtMeanCI renders the replication mean with the given verb, appending
// "±ci" when the cell holds more than one run. With a single replication the
// output matches formatting the raw result directly.
func (c cell) fmtMeanCI(format string, metric func(*core.Result) float64) string {
	mean, ci := c.meanCI(metric)
	if !c.replicated() {
		return fmt.Sprintf(format, mean)
	}
	return fmt.Sprintf(format+"±"+format, mean, ci)
}

// sweep runs one simulation point per row label and x value, or one per
// row when x is nil, each replicated o.reps() times on o.parallelism()
// workers, and returns the cells indexed [row][col]. run(r, c, o) builds
// and executes point (r, c); o carries the derived seed of its
// replication. Runs are claimed cell-major (all replications of a point
// are consecutive). On failure sweep returns the error of the
// lowest-indexed failing run, whatever the scheduling, wrapped as
// "<row> @<x>: <err>", or "<row>: <err>" when x is nil.
func sweep(o Options, rows []string, x []float64, run func(r, c int, o Options) (*core.Result, error)) ([][]cell, error) {
	cols := len(x)
	if x == nil {
		cols = 1
	}
	reps := o.reps()
	n := len(rows) * cols * reps
	results := make([]*core.Result, n)
	errs := make([]error, n)
	base := o.seed()
	workers := o.parallelism()
	concurrent := min(workers, n) > 1
	runPool(workers, n, func(k int) {
		idx, rep := k/reps, k%reps
		ro := o
		ro.Seed = rng.Derive(base, rep)
		ro.concurrent = concurrent
		results[k], errs[k] = run(idx/cols, idx%cols, ro)
	})
	for k, err := range errs {
		if err == nil {
			continue
		}
		r, c := k/reps/cols, k/reps%cols
		if x == nil {
			return nil, fmt.Errorf("%s: %w", rows[r], err)
		}
		return nil, fmt.Errorf("%s @%v: %w", rows[r], x[c], err)
	}
	// Every cell's results are a contiguous, capacity-capped window of the
	// one per-sweep result slice — no per-cell slices.
	cells := make([][]cell, len(rows))
	for r := range cells {
		cells[r] = make([]cell, cols)
		for c := range cells[r] {
			k := (r*cols + c) * reps
			cells[r][c].results = results[k : k+reps : k+reps]
		}
	}
	return cells, nil
}

// labelsOf returns label(i) for each of n rows.
func labelsOf(n int, label func(i int) string) []string {
	labels := make([]string, n)
	for i := range labels {
		labels[i] = label(i)
	}
	return labels
}

// addPoints adds an n-point series to fig: at(i) gives point i's
// replication mean and 95%-confidence half-width. The half-widths render
// only when the points are replicated.
func addPoints(fig *stats.Figure, label string, n int, replicated bool, at func(i int) (mean, ci float64)) {
	points, cis := make([]float64, n), make([]float64, n)
	for i := range points {
		points[i], cis[i] = at(i)
	}
	if !replicated {
		cis = nil
	}
	fig.AddSeriesCI(label, points, cis)
}

// addSeries adds one row of cells to fig as a series of metric.
func addSeries(fig *stats.Figure, label string, row []cell, metric func(*core.Result) float64) {
	addPoints(fig, label, len(row), row[0].replicated(), func(i int) (float64, float64) {
		return row[i].meanCI(metric)
	})
}

// plot adds every row of cells to fig as a series of metric, row r under
// labels[r].
func plot(fig *stats.Figure, labels []string, cells [][]cell, metric func(*core.Result) float64) {
	for r, label := range labels {
		addSeries(fig, label, cells[r], metric)
	}
}

// addTimelines adds c's two commit timelines to fig, one point per x
// bucket: the cluster-wide one as label:cluster and the crashed node's own
// as label:node0.
func addTimelines(fig *stats.Figure, label string, c cell) {
	for _, tl := range []struct {
		suffix string
		of     func(*core.Result) []int64
	}{
		{"cluster", func(r *core.Result) []int64 { return r.Timeline }},
		{"node0", func(r *core.Result) []int64 { return r.CrashedTimeline }},
	} {
		addPoints(fig, label+":"+tl.suffix, len(fig.X), c.replicated(), func(b int) (float64, float64) {
			return c.meanCI(func(r *core.Result) float64 {
				if t := tl.of(r); b < len(t) {
					return float64(t[b])
				}
				return 0
			})
		})
	}
}

// setCell fills table cell (r, col) with c's replication mean of metric,
// with ± its 95%-confidence half-width only when c is replicated.
func setCell(tbl *stats.Table, r, col int, c cell, metric func(*core.Result) float64) {
	mean, ci := c.meanCI(metric)
	if c.replicated() {
		tbl.SetCI(r, col, mean, ci)
	} else {
		tbl.Set(r, col, mean)
	}
}

// Shared metric extractors.

func respMean(r *core.Result) float64      { return r.RespMean }
func respP95(r *core.Result) float64       { return r.RespP95 }
func throughput(r *core.Result) float64    { return r.Throughput }
func mmHitPct(r *core.Result) float64      { return r.MMHitPct }
func nvemAddHitPct(r *core.Result) float64 { return r.NVEMAddHitPct }

// unitReadHitPct is the disk-cache read-hit ratio of the database unit as a
// fraction of all buffer fixes (the second-level hit metric of Tables 4.2a/b
// and Figs 4.5b/4.7 for controller caches).
func unitReadHitPct(r *core.Result) float64 {
	if r.Buffer.Fixes == 0 {
		return 0
	}
	return 100 * float64(r.Units[0].Stats.ReadHits) / float64(r.Buffer.Fixes)
}
