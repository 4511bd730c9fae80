package main

import (
	"fmt"
	"strconv"
	"sync/atomic"
	"time"

	"repro/internal/core"
	"repro/internal/experiments"
	"repro/internal/rng"
	"repro/internal/trace"
	"repro/internal/workload"
)

// result is what one op leaves behind: its output (fingerprinted), the
// number of results it produced for the throughput metric, and the engine's
// window result where the op called the engine directly. Engine reports are
// rendered by text, after the op's timing and allocation counts stop.
type result struct {
	label   string // fingerprint key: input index, or experiment@pass
	golden  string // experiment whose golden file the output must equal
	results int64  // committed simulated transactions, or 1 per experiment
	out     string
	report  interface{ Report() string }
	res     *core.Result
}

func (r result) text() string {
	if r.report != nil {
		return r.report.Report()
	}
	return r.out
}

// opFunc runs the op for input in. The tracer records spans around the
// calls into each layer and, while tracing, wraps workload generators.
type opFunc func(in int, tr *tracer) (result, error)

// benchWorkload is one benchmark workload. setup builds the fixed inputs for
// a seed (configs, generated traces) and returns the op; ops are run in
// rounds of opsPerRound, and op i runs input i % inputs, so every op of a
// run is covered by a fingerprint or by an earlier run of the same input.
type benchWorkload struct {
	name        string
	why         string
	opsPerRound int
	inputs      int
	setup       func(seed int64, tr *tracer) opFunc
	// speedup, when set, returns the serial/parallel host-time ratio of
	// the workload's parallel engine (pdes.speedup_2w).
	speedup func(seed int64) (float64, error)
}

// workloads returns the four benchmark workloads in their fixed order.
func workloads() []benchWorkload {
	return []benchWorkload{
		{
			name:        "dc-disk",
			why:         "Debit-Credit at 500 TPS on disks, full windows: write-heavy, kernel and RNG bound",
			opsPerRound: 50,
			inputs:      64,
			setup:       setupDCDisk,
		},
		{
			name:        "trace-nvem",
			why:         "real-life trace replay with an NVEM cache and log: read-mostly, lock and trace-replay bound",
			opsPerRound: 80,
			inputs:      256,
			setup:       setupTraceNVEM,
		},
		{
			name:        "pdes-64",
			why:         "64-node shared-NVEM cluster on the parallel engine: the only path through the PDES coordinator",
			opsPerRound: 3,
			inputs:      16,
			setup:       func(seed int64, _ *tracer) opFunc { return pdesOp(seed, 2) },
			speedup:     pdesSpeedup,
		},
		{
			name:        "registry-quick",
			why:         "every quick registry experiment except the PDES sweeps: the broad net over all other paths",
			opsPerRound: len(registryExperiments()),
			inputs:      registryPasses * len(registryExperiments()),
			setup:       setupRegistry,
		},
	}
}

func workloadByName(name string) (benchWorkload, error) {
	for _, w := range workloads() {
		if w.name == name {
			return w, nil
		}
	}
	return benchWorkload{}, fmt.Errorf("unknown workload %q", name)
}

// opSeed is the engine seed of input in.
func opSeed(seed int64, in int) int64 { return rng.Derive(seed, in) }

// runEngine runs one single-node configuration inside spans and reports it.
func runEngine(in int, tr *tracer, cfg core.Config) (result, error) {
	cfg.Generator = tr.wrap(cfg.Generator)
	sp := tr.begin("core.run")
	res, err := core.Run(cfg)
	tr.end(sp)
	if err != nil {
		return result{}, err
	}
	return result{label: strconv.Itoa(in), results: res.Commits, report: res, res: res}, nil
}

// setupDCDisk: the paper's Debit-Credit baseline, database and log on
// regular disks (8 log disks), NOFORCE, 2000-frame MM buffer.
func setupDCDisk(seed int64, _ *tracer) opFunc {
	dc := experiments.DCSetup{
		Rate: 500,
		DB:   experiments.DBSpec{Kind: experiments.DBRegular},
		Log:  experiments.LogSpec{Kind: experiments.LogDisk, Disks: 8},
	}
	return func(in int, tr *tracer) (result, error) {
		sp := tr.begin("experiments.build")
		cfg, err := dc.Build(experiments.Options{Seed: opSeed(seed, in)})
		tr.end(sp)
		if err != nil {
			return result{}, err
		}
		return runEngine(in, tr, cfg)
	}
}

// The trace experiments (figs 4.6/4.7) replay one fixed real-life trace,
// generated from seed 42, at 20 TPS. The trace stays fixed here too: traces
// of other seeds differ enough in transaction mix to move host time per op
// by over 10% and allocations by a third, which would swamp the comparison
// between runs of different seeds; --seed varies the arrivals.
const (
	traceSeed = 42
	traceRate = 20
)

// setupTraceNVEM generates the real-life trace; each op replays it from
// the start with an MM 1000 + NVEM 2000 cache and the log in NVEM.
func setupTraceNVEM(seed int64, tr *tracer) opFunc {
	sp := tr.begin("trace.gen")
	lifeTrace := trace.GenerateRealLife(traceSeed)
	tr.end(sp)
	ts := experiments.TraceSetup{
		MMBuffer: 1000,
		DB:       experiments.DBSpec{Kind: experiments.DBNVEMCache, Size: 2000},
		Log:      experiments.LogSpec{Kind: experiments.LogNVEM},
	}
	return func(in int, tr *tracer) (result, error) {
		sp := tr.begin("experiments.build")
		cfg, err := ts.Build(experiments.Options{Seed: opSeed(seed, in)})
		tr.end(sp)
		if err != nil {
			return result{}, err
		}
		src, err := trace.NewSource(lifeTrace, traceRate)
		if err != nil {
			return result{}, err
		}
		cfg.Generator, cfg.Partitions = src, src.Partitions()
		return runEngine(in, tr, cfg)
	}
}

// pdesOp returns the pdes-64 op for the given PDES worker count: 64 nodes at
// 50 TPS each, a shared 2000-frame NVEM cache reached over the coherence
// bus, global locks, per-node storage, quick windows scaled by 0.25.
func pdesOp(seed int64, workers int) opFunc {
	cs := experiments.ClusterSetup{
		Nodes: 64, AggregateRate: 50 * 64, MMBuffer: 500, SharedNVEM: 2000,
		GlobalLocks: true, PDES: true, PDESWorkers: workers,
		NVEMAccessDelayMS: 0.15, WindowScale: 0.25,
		DBControllers: 2, DBDisks: 12, LogControllers: 1, LogDisks: 2,
	}
	return func(in int, tr *tracer) (result, error) {
		sp := tr.begin("experiments.build")
		cfg, err := cs.Build(experiments.Options{Seed: opSeed(seed, in), Quick: true})
		tr.end(sp)
		if err != nil {
			return result{}, err
		}
		for i, g := range cfg.Generators {
			cfg.Generators[i] = tr.wrap(g)
		}
		sp = tr.begin("core.run")
		res, err := core.RunCluster(cfg)
		tr.end(sp)
		if err != nil {
			return result{}, err
		}
		return result{label: strconv.Itoa(in), results: res.Cluster.Commits, report: res, res: res.Cluster}, nil
	}
}

// speedupSeeds is how many inputs pdes.speedup_2w times on each engine.
const speedupSeeds = 3

// pdesSpeedup times inputs 0..speedupSeeds-1 with one PDES worker and again
// with two. The reports must be byte-identical (worker-count invariance).
func pdesSpeedup(seed int64) (float64, error) {
	var serial, parallel time.Duration
	off := &tracer{}
	for in := 0; in < speedupSeeds; in++ {
		var outs [2]string
		for k, workers := range []int{1, 2} {
			start := time.Now()
			r, err := pdesOp(seed, workers)(in, off)
			took := time.Since(start)
			if err != nil {
				return 0, err
			}
			outs[k] = r.text()
			if workers == 1 {
				serial += took
			} else {
				parallel += took
			}
		}
		if outs[0] != outs[1] {
			return 0, fmt.Errorf("pdes-64 input %d: report differs between 1 and 2 workers", in)
		}
	}
	return serial.Seconds() / parallel.Seconds(), nil
}

// registryExperiments is the registry minus the two PDES sweeps, which
// alone would take most of a pass; pdes-64 covers their path.
func registryExperiments() []experiments.Experiment {
	var out []experiments.Experiment
	for _, e := range experiments.All() {
		if e.Name != "cluster.scaleout64" && e.Name != "cluster.scaleout256" {
			out = append(out, e)
		}
	}
	return out
}

// registryPasses is how many registry passes a run cycles through before
// repeating inputs. Pass p runs with seed rng.Derive(seed, p), so pass 0
// uses the seed itself and seed 1 reproduces the goldens; averaging over
// passes of different seeds keeps one seed's simulated outcomes from
// setting a run's host time and allocations.
const registryPasses = 8

// setupRegistry: input in runs registry entry in%n of pass in/n at quick
// scale, for the n registry experiments.
func setupRegistry(seed int64, _ *tracer) opFunc {
	exps := registryExperiments()
	return func(in int, tr *tracer) (result, error) {
		e, pass := exps[in%len(exps)], in/len(exps)
		o := experiments.Options{Seed: opSeed(seed, pass), Quick: true, Parallelism: 2}
		sp := tr.begin("experiments.run")
		out, err := e.Run(o)
		tr.end(sp)
		if err != nil {
			return result{}, fmt.Errorf("%s: %w", e.Name, err)
		}
		r := result{label: fmt.Sprintf("%s@%d", e.Name, pass), out: out, results: 1}
		if o.Seed == 1 {
			r.golden = e.Name
		}
		return r, nil
	}
}

// countingGen counts Next calls; the CPU profile gives the time inside
// them, so no span is recorded per call. PDES workers call the generators
// of different nodes concurrently, hence the atomic counter.
type countingGen struct {
	workload.Generator
	calls *atomic.Int64
}

// nextFrame is Next's name in a CPU profile.
const nextFrame = "main.(*countingGen).Next"

func (g *countingGen) Next(i int, s *rng.Stream) workload.Tx {
	g.calls.Add(1)
	return g.Generator.Next(i, s)
}
