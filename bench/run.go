package main

import (
	"bytes"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"runtime/metrics"
	"runtime/pprof"
	"time"

	"repro/internal/core"
)

// setupReps is how often a run builds its inputs and runs the warm-up op;
// setup_s is the median.
const setupReps = 5

// run holds everything one workload's run measured. Host times are
// rescaled to the record machine's speed (see calibrator); factors holds
// each op's and set-up's machine factor, its calibration over calNominal.
type run struct {
	setupS    []float64 // per set-up repetition
	attempted int
	failed    int
	errs      []error
	factors   []float64

	// Untraced rounds: the end-to-end metrics.
	rates      []float64 // per round: results per second
	opMS       []float64 // per op
	rawMS      []float64 // per op, not rescaled
	ops        int
	mallocs    uint64
	allocBytes uint64

	// Traced rounds: the per-layer metrics.
	tracedRates []float64
	tracedOps   int
	layerNS     map[string]int64
	nextNS      int64 // CPU time inside generator Next calls
	nextCalls   int64
	gcCPU       float64 // runtime/metrics CPU-second estimates
	totalCPU    float64
	gcCycles    uint64
	tr          *tracer
	first       *core.Result // input 0's engine result; nil for the registry
	speedup     float64
}

func (r *run) fail(err error) {
	r.failed++
	r.errs = append(r.errs, err)
}

// rescale converts a host duration measured between calibrations before
// and after it into record-machine milliseconds.
func (r *run) rescale(d, calBefore, calAfter time.Duration) float64 {
	f := float64(calBefore+calAfter) / 2 / float64(calNominal)
	r.factors = append(r.factors, f)
	return float64(d) / 1e6 / f
}

// measure runs workload w: setupReps set-ups each ending in the untimed
// warm-up op, then rounds of w.opsPerRound ops until seconds have passed.
// With traced set, every second round is traced (spans, generator counts,
// CPU profile) and the others stay untraced, so the two interleave and the
// tracing overhead is their difference.
func measure(w benchWorkload, seed int64, seconds float64, traced bool, traceDir, root string) (*run, error) {
	chk, err := newChecker(w.name, seed, root)
	if err != nil {
		return nil, err
	}
	r := &run{layerNS: map[string]int64{}, tr: newTracer()}
	tr, cal := r.tr, newCalibrator()
	tr.on = traced
	var op opFunc
	for rep := 0; rep < setupReps; rep++ {
		cal0 := cal.measure()
		start := time.Now()
		sp := tr.begin("setup")
		f := w.setup(seed, tr)
		res, err := f(0, tr)
		tr.end(sp)
		took := time.Since(start)
		r.setupS = append(r.setupS, r.rescale(took, cal0, cal.measure())/1e3)
		op = f
		r.attempted++
		if err != nil {
			r.fail(err)
			continue
		}
		if err := chk.check(res); err != nil {
			r.fail(err)
		}
		r.first = res.res
	}

	var before, after runtime.MemStats
	next := 0
	// runOps runs one round and returns its results per second.
	runOps := func(tracedRound bool) float64 {
		var results int64
		var seconds float64
		calPrev := cal.measure()
		for k := 0; k < w.opsPerRound; k++ {
			i := next
			next++
			tr.op = i
			runtime.ReadMemStats(&before)
			t0 := time.Now()
			sp := tr.begin("op")
			res, err := op(i%w.inputs, tr)
			tr.end(sp)
			took := time.Since(t0)
			runtime.ReadMemStats(&after)
			calNext := cal.measure()
			ms := r.rescale(took, calPrev, calNext)
			calPrev = calNext
			r.attempted++
			if err != nil {
				r.fail(err)
				continue
			}
			if err := chk.check(res); err != nil {
				r.fail(err)
				continue
			}
			results += res.results
			seconds += ms / 1e3
			if tracedRound {
				r.tracedOps++
				continue
			}
			r.ops++
			r.opMS = append(r.opMS, ms)
			r.rawMS = append(r.rawMS, float64(took)/1e6)
			r.mallocs += after.Mallocs - before.Mallocs
			r.allocBytes += after.TotalAlloc - before.TotalAlloc
		}
		return ratio(float64(results), seconds)
	}

	tr.on = false
	minRounds := 1
	if traced {
		minRounds = 2
		if err := os.MkdirAll(traceDir, 0o755); err != nil {
			return nil, err
		}
	}
	start := time.Now()
	for round := 0; round < minRounds || time.Since(start).Seconds() < seconds; round++ {
		if !traced || round%2 == 0 {
			r.rates = append(r.rates, runOps(false))
			continue
		}
		path := filepath.Join(traceDir, fmt.Sprintf("cpu-r%d.pprof", round))
		if err := r.traceRound(path, func() float64 { return runOps(true) }); err != nil {
			return nil, err
		}
	}
	if traced && w.speedup != nil {
		if r.speedup, err = w.speedup(seed); err != nil {
			r.attempted++
			r.fail(err)
		}
	}
	return r, nil
}

// traceRound runs one traced round: spans and generator counting on, a
// CPU profile recorded to path, and the round's GC and generator counts
// added to r.
func (r *run) traceRound(path string, body func() float64) error {
	gcSamples := []metrics.Sample{
		{Name: "/cpu/classes/gc/total:cpu-seconds"},
		{Name: "/cpu/classes/total:cpu-seconds"},
		{Name: "/gc/cycles/total:gc-cycles"},
	}
	metrics.Read(gcSamples)
	gc0, total0, cycles0 := gcSamples[0].Value.Float64(), gcSamples[1].Value.Float64(), gcSamples[2].Value.Uint64()
	calls0 := r.tr.calls.Load()
	var prof bytes.Buffer
	if err := pprof.StartCPUProfile(&prof); err != nil {
		return err
	}
	r.tr.on = true
	rate := body()
	r.tr.on = false
	pprof.StopCPUProfile()
	metrics.Read(gcSamples)
	r.gcCPU += gcSamples[0].Value.Float64() - gc0
	r.totalCPU += gcSamples[1].Value.Float64() - total0
	r.gcCycles += gcSamples[2].Value.Uint64() - cycles0
	r.nextCalls += r.tr.calls.Load() - calls0
	r.tracedRates = append(r.tracedRates, rate)
	return r.attribute(prof.Bytes(), path)
}

// attribute saves one traced round's CPU profile and adds its samples to
// the per-layer self times and the time inside generator calls.
func (r *run) attribute(prof []byte, path string) error {
	if err := os.WriteFile(path, prof, 0o644); err != nil {
		return err
	}
	samples, err := decodeProfile(prof)
	if err != nil {
		return err
	}
	for _, s := range samples {
		r.layerNS[classify(s.stack)] += s.ns
		for _, fn := range s.stack {
			if fn == nextFrame {
				r.nextNS += s.ns
				break
			}
		}
	}
	return nil
}
