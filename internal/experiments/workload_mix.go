package experiments

import (
	"fmt"

	"repro/internal/buffer"
	"repro/internal/cc"
	"repro/internal/core"
	"repro/internal/stats"
	"repro/internal/trace"
	"repro/internal/workload"
)

// Second-wave workload-realism experiments (ROADMAP "Workload realism"):
// the paper's evaluation draws every object uniformly, runs a single
// transaction class, and drives it open-loop at a fixed Poisson rate.
// These experiments relax each assumption in turn on the same storage
// schemes: access skew vs. NVEM cache size (workload.skew), a TPC-C-style
// multi-class mix sharing the buffer (workload.multiclass), closed-loop
// terminals with think times (workload.closedloop), and a recorded rate
// timeline replayed through the replay arrival process (workload.replay).

// --- workload.skew -------------------------------------------------------

// Skew experiment constants. The hot-spot spec puts 90% of the
// within-branch account draws on the first 10 accounts of each branch —
// exactly one hot ACCOUNT page per branch, 500 hot pages in total. The
// main-memory buffer is kept well below that working set, so the sweep of
// the NVEM second-level cache size crosses "hot set almost fits" between
// the smallest and largest size.
const (
	skewRate     = 300
	skewMMBuffer = 300
	skewHotFrac  = 0.9
	skewHotData  = 0.0001
	skewTheta    = 0.95
)

func (o Options) skewNVEMSizes() []float64 {
	if o.Quick {
		return []float64{125, 500, 2000}
	}
	return []float64{125, 250, 500, 1000, 2000}
}

// WorkloadSkew sweeps the NVEM second-level cache size under three
// within-branch account access distributions at a fixed 300 TPS. Uniform
// draws (the paper's benchmark definition) spread account accesses over 5M
// pages and the NVEM cache can only capture the small BRANCH/TELLER
// partition; the hot-spot distribution concentrates 90% of them on 500
// pages, so response time falls off a knee once the cache grows past the
// hot set; Zipf sits in between.
func WorkloadSkew(o Options) (*stats.Figure, *stats.Figure, error) {
	resp := &stats.Figure{
		Title: fmt.Sprintf("Access skew vs. NVEM cache size (Debit-Credit %d TPS, MM=%d)",
			skewRate, skewMMBuffer),
		XLabel: "NVEM cache [pages]",
		YLabel: "mean response time [ms]",
		X:      o.skewNVEMSizes(),
	}
	hits := &stats.Figure{
		Title:  "Access skew: additional NVEM cache hits",
		XLabel: "NVEM cache [pages]",
		YLabel: "NVEM hit ratio [%]",
		X:      resp.X,
	}
	schemes := []struct {
		label string
		skew  workload.AccessSpec
	}{
		{"uniform", workload.AccessSpec{}},
		{"zipf-0.95", workload.AccessSpec{Kind: workload.AccessZipf, Theta: skewTheta}},
		{"hotspot-90/0.01", workload.AccessSpec{Kind: workload.AccessHotSpot,
			HotAccessFrac: skewHotFrac, HotDataFrac: skewHotData}},
	}
	cells, err := sweep(o, len(schemes), len(resp.X), func(si, xi int, o Options) (*core.Result, error) {
		sc, size := schemes[si], int(resp.X[xi])
		res, err := DCSetup{Rate: skewRate, MMBuffer: skewMMBuffer,
			DB:   DBSpec{Kind: DBNVEMCache, Size: size},
			Log:  LogSpec{Kind: LogNVEM},
			Skew: sc.skew}.Run(o)
		if err != nil {
			return nil, fmt.Errorf("workload.skew %s nvem=%d: %w", sc.label, size, err)
		}
		return res, nil
	})
	if err != nil {
		return nil, nil, err
	}
	labels := labelsOf(len(schemes), func(i int) string { return schemes[i].label })
	if err := plot(resp, labels, cells, respMean); err != nil {
		return nil, nil, err
	}
	if err := plot(hits, labels, cells, nvemAddHitPct); err != nil {
		return nil, nil, err
	}
	return resp, hits, nil
}

// --- workload.multiclass -------------------------------------------------

// Mix experiment constants: the short-update and read-mostly classes run at
// fixed rates while the batch-scan rate is swept. Scans read-lock long runs
// of ORDERS pages under strict 2PL and flush the shared buffer, so the
// short classes degrade as the scan rate grows.
const (
	mixUpdateTPS = 30
	mixReadTPS   = 8
)

func (o Options) mixScanRates() []float64 {
	if o.Quick {
		return []float64{0, 0.8, 1.6}
	}
	return []float64{0, 0.4, 0.8, 1.2, 1.6}
}

// MixSetup is one multi-class simulation point: the standard three-class
// mix (workload.DefaultClassMix) on the shared two-partition database.
type MixSetup struct {
	UpdateTPS float64
	ReadTPS   float64
	ScanTPS   float64
	Skew      workload.AccessSpec
}

// Build assembles the engine configuration for the mix.
func (s MixSetup) Build(o Options) (core.Config, error) {
	model, err := workload.ClassMixModel(
		workload.DefaultClassMix(s.UpdateTPS, s.ReadTPS, s.ScanTPS), s.Skew)
	if err != nil {
		return core.Config{}, err
	}
	gen, err := workload.NewSynthetic(model)
	if err != nil {
		return core.Config{}, err
	}
	cfg := o.baseConfig()
	cfg.Partitions = model.Partitions
	cfg.Generator = gen
	cfg.CCModes = []cc.Granularity{cc.PageLevel, cc.PageLevel}
	// One CPU: a 400-object batch scan is a ~320 ms CPU burst, so the mix
	// contends on the processor the way mixed OLTP/batch systems do — the
	// short classes queue behind in-progress scans.
	cfg.NumCPU = 1

	cfg.DiskUnits = diskUnits(12, 96, 2, 8)
	cfg.Buffer = buffer.Config{
		BufferSize: 2000,
		Logging:    true,
	}
	if err := place(&cfg, DBSpec{Kind: DBRegular}, LogSpec{Kind: LogDisk}); err != nil {
		return core.Config{}, err
	}
	return cfg, nil
}

// Run builds and executes the setup.
func (s MixSetup) Run(o Options) (*core.Result, error) { return runBuilt(s.Build(o)) }

// classMetric maps a run to a per-class metric, 0 when the class is absent.
func classMetric(name string, f func(core.ClassReport) float64) func(*core.Result) float64 {
	return func(r *core.Result) float64 {
		for _, c := range r.Classes {
			if c.Name == name {
				return f(c)
			}
		}
		return 0
	}
}

// WorkloadMulticlass sweeps the batch-scan arrival rate under the standard
// three-class mix and reports each class's mean response time, plus the
// full per-class accounting at the highest scan rate. The interesting
// number is not the scans' own response time but the collateral damage:
// scans hold read locks on ORDERS page runs and churn the shared buffer,
// so the short updates slow down although their own load never changes.
func WorkloadMulticlass(o Options) (*stats.Figure, *stats.Table, error) {
	scanRates := o.mixScanRates()
	fig := &stats.Figure{
		Title: fmt.Sprintf("Multi-class mix: per-class response vs. batch-scan rate (update %d TPS, read-mostly %d TPS)",
			mixUpdateTPS, mixReadTPS),
		XLabel: "scan TPS",
		YLabel: "mean response time [ms]",
		X:      scanRates,
	}
	classes := []string{"short-update", "read-mostly", "batch-scan"}
	cells, err := sweep(o, 1, len(scanRates), func(_, xi int, o Options) (*core.Result, error) {
		res, err := MixSetup{UpdateTPS: mixUpdateTPS, ReadTPS: mixReadTPS,
			ScanTPS: scanRates[xi]}.Run(o)
		if err != nil {
			return nil, fmt.Errorf("workload.multiclass scan=%v: %w", scanRates[xi], err)
		}
		return res, nil
	})
	if err != nil {
		return nil, nil, err
	}
	for _, name := range classes {
		metric := classMetric(name, func(c core.ClassReport) float64 { return c.RespMean })
		if err := addSeries(fig, name, cells[0], metric); err != nil {
			return nil, nil, err
		}
	}
	tbl := stats.NewTable(
		fmt.Sprintf("Per-class accounting at scan TPS = %v", scanRates[len(scanRates)-1]),
		"class", classes,
		[]string{"commits", "aborts", "dropped", "shed", "resp-ms", "p95-ms"})
	metrics := []func(core.ClassReport) float64{
		func(c core.ClassReport) float64 { return float64(c.Commits) },
		func(c core.ClassReport) float64 { return float64(c.Aborts) },
		func(c core.ClassReport) float64 { return float64(c.Dropped) },
		func(c core.ClassReport) float64 { return float64(c.Shed) },
		func(c core.ClassReport) float64 { return c.RespMean },
		func(c core.ClassReport) float64 { return c.RespP95 },
	}
	last := cells[0][len(scanRates)-1]
	for r, name := range classes {
		for c, metric := range metrics {
			setCell(tbl, r, c, last, classMetric(name, metric))
		}
	}
	return fig, tbl, nil
}

// --- workload.closedloop -------------------------------------------------

func (o Options) terminalCounts() []float64 {
	if o.Quick {
		return []float64{16, 64, 256}
	}
	return []float64{8, 16, 32, 64, 128, 256}
}

// thinkTimesMS are the closed-loop think-time series: the short think time
// reaches CPU saturation inside the terminal sweep, the long one stays in
// the linear N/(Z+R) regime throughout.
var thinkTimesMS = []float64{50, 500}

// closedLoopMPL caps concurrent transactions well below the largest
// terminal count, so past the capacity knee the surplus terminals pile up
// in the MPL queue — the occupancy the closed-loop saturation rule reads.
const closedLoopMPL = 50

// WorkloadClosedLoop replaces the open-loop Poisson source with emulated
// terminals (think → submit → completion) and sweeps the terminal count for
// two think times on the disk-based Debit-Credit configuration. With 50 ms
// think the offered load crosses the CPU capacity mid-sweep: throughput
// flattens and response time turns the classic closed-loop knee upward,
// with the new terminal-wait saturation signal crossing its threshold at
// the same point. With 500 ms think the same terminals stay subcritical.
func WorkloadClosedLoop(o Options) (*stats.Figure, *stats.Figure, *stats.Table, error) {
	resp := &stats.Figure{
		Title:  "Closed-loop terminals: response time (Debit-Credit, disk-based, NOFORCE)",
		XLabel: "terminals",
		YLabel: "mean response time [ms]",
		X:      o.terminalCounts(),
	}
	tput := &stats.Figure{
		Title:  "Closed-loop terminals: throughput",
		XLabel: "terminals",
		YLabel: "committed TPS",
		X:      resp.X,
	}
	labels := labelsOf(len(thinkTimesMS), func(i int) string { return fmt.Sprintf("think-%.0fms", thinkTimesMS[i]) })
	cells, err := sweep(o, len(thinkTimesMS), len(resp.X), func(si, xi int, o Options) (*core.Result, error) {
		cfg, err := DCSetup{
			DB:  DBSpec{Kind: DBRegular},
			Log: LogSpec{Kind: LogDisk},
			Arrival: workload.ArrivalSpec{
				Kind:      workload.ArrivalClosedLoop,
				Terminals: int(resp.X[xi]),
				ThinkMS:   thinkTimesMS[si],
			}}.Build(o)
		if err == nil {
			cfg.MPL = closedLoopMPL
			var res *core.Result
			if res, err = core.Run(cfg); err == nil {
				return res, nil
			}
		}
		return nil, fmt.Errorf("workload.closedloop %s N=%v: %w", labels[si], resp.X[xi], err)
	})
	if err != nil {
		return nil, nil, nil, err
	}
	if err := plot(resp, labels, cells, respMean); err != nil {
		return nil, nil, nil, err
	}
	if err := plot(tput, labels, cells, throughput); err != nil {
		return nil, nil, nil, err
	}
	wait := stats.NewTable("Fraction of terminals waiting for an MPL slot", "think time", labels,
		labelsOf(len(resp.X), func(i int) string { return fmt.Sprintf("N=%v", resp.X[i]) }))
	for si := range labels {
		for xi := range resp.X {
			setCell(wait, si, xi, cells[si][xi], func(r *core.Result) float64 { return r.TerminalWaitFrac })
		}
	}
	return resp, tput, wait, nil
}

// --- workload.replay -----------------------------------------------------

// Replay experiment constants: the real-life trace's reference volume is
// folded into replayBuckets rate multipliers (mean 1) and replayed
// cyclically with replayBucketMS per bucket, against the same mean rate the
// Poisson row uses — the comparison isolates pure rate variance recorded
// from a production system.
const (
	replayRate     = 650.0
	replayBuckets  = 32
	replayBucketMS = 500.0
)

// WorkloadReplay drives the disk-based Debit-Credit configuration once with
// the paper's Poisson arrivals and once with the recorded rate timeline of
// the real-life trace (internal/trace.LoadTimeline) at the same mean rate.
// The replayed timeline concentrates the same offered load into its busy
// buckets, which shows up in the tail, not the mean.
func WorkloadReplay(o Options) (*stats.Table, error) {
	mult, err := trace.LoadTimeline(realLifeTrace(), replayBuckets)
	if err != nil {
		return nil, err
	}
	arrivals := []struct {
		label string
		spec  workload.ArrivalSpec
	}{
		{"poisson", workload.ArrivalSpec{}},
		{"trace-replay", workload.ArrivalSpec{
			Kind:            workload.ArrivalReplay,
			RateBucketMS:    replayBucketMS,
			RateMultipliers: mult,
		}},
	}
	tbl := stats.NewTable(
		fmt.Sprintf("Recorded rate timeline vs. Poisson at %.0f TPS mean (Debit-Credit, disk-based, %d buckets x %.0f ms)",
			replayRate, replayBuckets, replayBucketMS),
		"arrivals", labelsOf(len(arrivals), func(i int) string { return arrivals[i].label }),
		[]string{"resp-ms", "p95-ms", "commits", "dropped"})
	cells, err := sweep(o, len(arrivals), 1, func(si, _ int, o Options) (*core.Result, error) {
		res, err := DCSetup{Rate: replayRate,
			DB:      DBSpec{Kind: DBRegular},
			Log:     LogSpec{Kind: LogDisk},
			Arrival: arrivals[si].spec}.Run(o)
		if err != nil {
			return nil, fmt.Errorf("workload.replay %s: %w", arrivals[si].label, err)
		}
		return res, nil
	})
	if err != nil {
		return nil, err
	}
	metrics := []func(*core.Result) float64{respMean, respP95, commitCount, droppedCount}
	for si := range arrivals {
		for c, metric := range metrics {
			setCell(tbl, si, c, cells[si][0], metric)
		}
	}
	return tbl, nil
}
