package experiments

import (
	"fmt"

	"repro/internal/core"
	"repro/internal/stats"
)

// Crash-recovery experiments: the axis of the paper's argument that
// steady-state figures cannot show. NOFORCE is only viable with fuzzy
// checkpointing, and placing the log (and database) on non-volatile
// semiconductor memory is what makes fast restart possible — so these
// experiments crash the simulated system and measure what happens:
// restart time per storage placement (recovery.restart), the
// checkpoint-interval trade-off (recovery.checkpoint), and the cluster
// throughput dip and ramp-back around a node failure
// (recovery.availability).

// defaultCkptIntervalMS is the fuzzy-checkpoint interval of the
// restart-placement experiment (quick windows fit ~3 checkpoints, full
// windows ~7); the interval sweep below varies it explicitly.
const defaultCkptIntervalMS = 5_000

// RecoverySetup is one single-node crash-recovery simulation point: a
// Debit-Credit run with the checkpoint daemon on, crashed after the
// measurement window to measure restart time (core.MeasureRestart).
type RecoverySetup struct {
	DC           DCSetup
	CheckpointMS float64
	RebootMS     float64
}

// Run builds and executes the setup.
func (s RecoverySetup) Run(o Options) (*core.Result, error) {
	cfg, err := s.DC.Build(o)
	if err != nil {
		return nil, err
	}
	cfg.Buffer.CheckpointIntervalMS = s.CheckpointMS
	return core.MeasureRestart(cfg, s.RebootMS)
}

// restartMetric maps a run to one field of its restart report, 0 when the
// run measured no restart.
func restartMetric(field func(*core.RestartReport) float64) func(*core.Result) float64 {
	return func(r *core.Result) float64 {
		if r.Restart == nil {
			return 0
		}
		return field(r.Restart)
	}
}

// Restart metrics.
var (
	restartMS         = restartMetric(func(r *core.RestartReport) float64 { return r.RestartMS })
	logScanMS         = restartMetric(func(r *core.RestartReport) float64 { return r.LogScanMS })
	redoMS            = restartMetric(func(r *core.RestartReport) float64 { return r.RedoMS })
	restartEstimateMS = restartMetric(func(r *core.RestartReport) float64 { return r.EstimateMS })
	restartLogPages   = restartMetric(func(r *core.RestartReport) float64 { return float64(r.Snapshot.LogPages) })
	restartRedoPages  = restartMetric(func(r *core.RestartReport) float64 { return float64(r.Snapshot.RedoPages) })
)

// RecoveryRestart measures restart time after a crash for the log and
// database placements of Fig 3.2: the redo log scan is device-bound, so
// restart orders NVEM < SSD < disk; putting the database itself on SSD
// additionally collapses the redo page I/O.
func RecoveryRestart(o Options) (*stats.Table, error) {
	type rowSpec struct {
		label string
		dc    DCSetup
	}
	const rate = 200
	rows := []rowSpec{
		{"log-disk / db-disk", DCSetup{Rate: rate, DB: DBSpec{Kind: DBRegular}, Log: LogSpec{Kind: LogDisk}}},
		{"log-wb / db-disk", DCSetup{Rate: rate, DB: DBSpec{Kind: DBRegular}, Log: LogSpec{Kind: LogDiskWB, Size: 500}}},
		{"log-ssd / db-disk", DCSetup{Rate: rate, DB: DBSpec{Kind: DBRegular}, Log: LogSpec{Kind: LogSSD}}},
		{"log-nvem / db-disk", DCSetup{Rate: rate, DB: DBSpec{Kind: DBRegular}, Log: LogSpec{Kind: LogNVEM}}},
		{"log-nvem / db-ssd", DCSetup{Rate: rate, DB: DBSpec{Kind: DBSSD}, Log: LogSpec{Kind: LogNVEM}}},
	}
	cols := []string{"restart-ms", "log-scan-ms", "redo-ms", "est-ms", "log-pages", "redo-pages"}
	metrics := []func(*core.Result) float64{
		restartMS, logScanMS, redoMS, restartEstimateMS, restartLogPages, restartRedoPages,
	}
	labels := labelsOf(len(rows), func(i int) string { return rows[i].label })
	tbl := stats.NewTable(
		fmt.Sprintf("Restart time by log/database placement (Debit-Credit %d TPS, NOFORCE, ckpt %.0fs)",
			rate, defaultCkptIntervalMS/1000.0),
		"placement", labels, cols)

	cells, err := sweep(o, labels, nil, func(r, _ int, o Options) (*core.Result, error) {
		return RecoverySetup{DC: rows[r].dc, CheckpointMS: defaultCkptIntervalMS, RebootMS: 500}.Run(o)
	})
	if err != nil {
		return nil, err
	}
	for r := range rows {
		for c, metric := range metrics {
			setCell(tbl, r, c, cells[r][0], metric)
		}
	}
	return tbl, nil
}

// ckptIntervals is the checkpoint-interval sweep (milliseconds).
func (o Options) ckptIntervals() []float64 {
	if o.Quick {
		return []float64{2_000, 5_000, 10_000}
	}
	return []float64{2_000, 5_000, 10_000, 20_000}
}

// RecoveryCheckpoint sweeps the fuzzy-checkpoint interval: the runtime
// cost of checkpointing (response time with the daemon's flush I/O in
// the background) against the restart time it buys. Short intervals
// bound the redo log tightly; the log device then decides how much that
// still matters.
func RecoveryCheckpoint(o Options) (*stats.Figure, *stats.Figure, error) {
	resp := &stats.Figure{
		Title:  "Checkpoint interval: runtime cost (Debit-Credit 200 TPS, NOFORCE)",
		XLabel: "interval ms",
		YLabel: "mean response time [ms]",
		X:      o.ckptIntervals(),
	}
	restart := &stats.Figure{
		Title:  "Checkpoint interval: restart time",
		XLabel: "interval ms",
		YLabel: "restart time [ms]",
		X:      o.ckptIntervals(),
	}
	schemes := []struct {
		label string
		log   LogSpec
	}{
		{"log-disk", LogSpec{Kind: LogDisk}},
		{"log-nvem", LogSpec{Kind: LogNVEM}},
	}
	labels := labelsOf(len(schemes), func(i int) string { return schemes[i].label })
	cells, err := sweep(o, labels, resp.X, func(si, xi int, o Options) (*core.Result, error) {
		return RecoverySetup{
			DC:           DCSetup{Rate: 200, DB: DBSpec{Kind: DBRegular}, Log: schemes[si].log},
			CheckpointMS: resp.X[xi],
			RebootMS:     500,
		}.Run(o)
	})
	if err != nil {
		return nil, nil, err
	}
	plot(resp, labels, cells, respMean)
	plot(restart, labels, cells, restartMS)
	return resp, restart, nil
}

// The recovery.availability scenario, shared with table2.1's downtime-cost
// analysis so the two stay in lockstep: node 0 of a 4-node cluster at 400
// TPS aggregate crashes 3 s into the window and recovers after a 500 ms
// reboot plus device-dependent redo.
const (
	availNodes     = 4
	availRate      = 400.0
	availCrashAtMS = 3_000.0
	availRebootMS  = 500.0
	// Not a divisor of the crash instant in either window setting, so the
	// crash never lands exactly on a checkpoint (which would leave zero
	// redo pages).
	availCkptMS = 2_600.0
)

// availScheme is one storage scheme of the availability scenario.
type availScheme struct {
	label           string
	shared, private int
}

// availSchemes returns the storage schemes the scenario compares; the
// "disk-only" entry is the baseline the NVEM premiums are judged against.
func availSchemes() []availScheme {
	return []availScheme{
		{"shared-nvem", 2000, 0},
		{"private-nvem", 0, 2000 / availNodes},
		{"disk-only", 0, 0},
	}
}

// availSetup assembles the scenario for one scheme; timelineBucketMS > 0
// additionally records the commit timelines.
func availSetup(sc availScheme, timelineBucketMS float64) ClusterSetup {
	return ClusterSetup{
		Nodes: availNodes, AggregateRate: availRate,
		SharedNVEM: sc.shared, PrivateNVEM: sc.private,
		GlobalLocks:  true,
		CheckpointMS: availCkptMS,
		CrashAtMS:    availCrashAtMS, RebootMS: availRebootMS,
		TimelineBucketMS: timelineBucketMS,
	}
}

// RecoveryAvailability crashes node 0 of a 4-node data-sharing cluster
// mid-window and charts two commit timelines per storage scheme: the
// cluster-wide one (the survivors absorb the rerouted arrivals, so it
// holds — that is the availability argument for data sharing) and the
// crashed node's own (its zero gap is the outage; its length is what the
// log and checkpoint placement decide). NVEM schemes keep the log in
// extended memory and restart quickly; the disk-only scheme pays a
// device-speed log scan and redo on top of the same reboot.
func RecoveryAvailability(o Options) (*stats.Figure, *stats.Table, error) {
	const bucketMS = 1_000.0
	_, measure := o.windows()
	buckets := int(measure / bucketMS)
	x := make([]float64, buckets)
	for i := range x {
		x[i] = float64(i)
	}
	fig := &stats.Figure{
		Title: fmt.Sprintf("Cluster availability: node 0 of %d crashes at +%.0f s (Debit-Credit %.0f TPS aggregate)",
			availNodes, availCrashAtMS/1000, availRate),
		XLabel: "window second",
		YLabel: "commits per second",
		X:      x,
	}
	schemes := availSchemes()
	labels := labelsOf(len(schemes), func(i int) string { return schemes[i].label })
	tbl := stats.NewTable("Restart breakdown", "scheme", labels,
		[]string{"restart-ms", "log-scan-ms", "redo-ms", "log-pages", "redo-pages"})

	cells, err := sweep(o, labels, nil, func(si, _ int, o Options) (*core.Result, error) {
		return availSetup(schemes[si], bucketMS).Run(o)
	})
	if err != nil {
		return nil, nil, err
	}
	metrics := []func(*core.Result) float64{restartMS, logScanMS, redoMS, restartLogPages, restartRedoPages}
	for si, label := range labels {
		addTimelines(fig, label, cells[si][0])
		for c, metric := range metrics {
			setCell(tbl, si, c, cells[si][0], metric)
		}
	}
	return fig, tbl, nil
}
