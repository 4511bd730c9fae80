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

// fmtMeanCI renders the replication mean with the given verb, appending
// "±ci" when the cell holds more than one run. With a single replication the
// output matches formatting the raw result directly.
func (c cell) fmtMeanCI(format string, metric func(*core.Result) float64) string {
	mean, ci := c.meanCI(metric)
	if len(c.results) <= 1 {
		return fmt.Sprintf(format, mean)
	}
	return fmt.Sprintf(format+"±"+format, mean, ci)
}

// grid runs a rows×cols matrix of simulation points, each replicated
// o.reps() times, on o.parallelism() workers.
type grid struct {
	o          Options
	rows, cols int
	jobs       []func(Options) (*core.Result, error)
}

// newGrid allocates an empty grid of the given shape.
func newGrid(o Options, rows, cols int) *grid {
	return &grid{o: o, rows: rows, cols: cols,
		jobs: make([]func(Options) (*core.Result, error), rows*cols)}
}

// add registers the simulation at (row, col). job receives Options carrying
// the derived seed of its replication and must build and execute one run.
func (g *grid) add(row, col int, job func(Options) (*core.Result, error)) {
	g.jobs[row*g.cols+col] = job
}

// run executes every registered point × replication and returns the cells
// indexed [row][col]. On failure it returns the error of the lowest-indexed
// failing run (deterministic regardless of scheduling).
func (g *grid) run() ([][]cell, error) {
	reps := g.o.reps()
	type spec struct{ cellIdx, rep int }
	specs := make([]spec, 0, len(g.jobs)*reps)
	for i, job := range g.jobs {
		if job == nil {
			continue
		}
		for r := 0; r < reps; r++ {
			specs = append(specs, spec{i, r})
		}
	}
	results := make([]*core.Result, len(specs))
	errs := make([]error, len(specs))
	base := g.o.seed()
	workers := g.o.parallelism()
	concurrent := min(workers, len(specs)) > 1
	runPool(workers, len(specs), func(k int) {
		sp := specs[k]
		o := g.o
		o.Seed = rng.Derive(base, sp.rep)
		o.concurrent = concurrent
		results[k], errs[k] = g.jobs[sp.cellIdx](o)
	})
	for k := range errs {
		if errs[k] != nil {
			return nil, errs[k]
		}
	}
	cells := make([][]cell, g.rows)
	for r := range cells {
		cells[r] = make([]cell, g.cols)
	}
	// specs is cell-major (all replications of a point are consecutive), so
	// every cell's results are a contiguous, capacity-capped window of the
	// one per-grid accumulation buffer — no per-cell slices.
	for k := 0; k < len(specs); k += reps {
		idx := specs[k].cellIdx
		cells[idx/g.cols][idx%g.cols].results = results[k : k+reps : k+reps]
	}
	return cells, nil
}

// seriesOf maps one grid row to y-points under metric. The second return
// holds the 95%-confidence half-widths, nil when the row is unreplicated.
func seriesOf(row []cell, metric func(*core.Result) float64) (points, cis []float64) {
	points = make([]float64, len(row))
	cis = make([]float64, len(row))
	replicated := false
	for i, c := range row {
		points[i], cis[i] = c.meanCI(metric)
		if len(c.results) > 1 {
			replicated = true
		}
	}
	if !replicated {
		cis = nil
	}
	return points, cis
}

// sweepFigure fills fig with one series per label: run(si, xi, o) executes
// the simulation of series si at x index xi, and metric maps each run to its
// y value. All points (× replications) run on the shared pool.
func sweepFigure(o Options, fig *stats.Figure, labels []string,
	run func(si, xi int, o Options) (*core.Result, error),
	metric func(*core.Result) float64) error {
	g := newGrid(o, len(labels), len(fig.X))
	for si := range labels {
		for xi := range fig.X {
			g.add(si, xi, func(o Options) (*core.Result, error) { return run(si, xi, o) })
		}
	}
	cells, err := g.run()
	if err != nil {
		return err
	}
	for si, label := range labels {
		points, cis := seriesOf(cells[si], metric)
		if err := fig.AddSeriesCI(label, points, cis); err != nil {
			return err
		}
	}
	return nil
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
