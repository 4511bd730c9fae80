package experiments

import (
	"fmt"

	"repro/internal/core"
	"repro/internal/stats"
	"repro/internal/workload"
)

// Workload-realism experiments (ROADMAP "Workload realism"): the paper
// drives every configuration with Poisson arrivals, which hides exactly the
// regime where NVEM allocation and fast restart matter — bursty and
// time-varying load, and load spikes coinciding with a crash. These
// experiments drive the same storage schemes through the pluggable
// arrival-process layer (workload.ArrivalSpec): MMPP burstiness
// (workload.burstiness), a crash-coincident spike with the recovery-aware
// admission controller on and off (workload.spike-crash), and a sinusoidal
// day/night cycle over a long window (workload.diurnal).

// burstFactors is the burst-coefficient sweep of workload.burstiness: the
// x value is the MMPP burst-state rate multiplier (1 = both states at the
// mean rate, i.e. Poisson-equivalent load).
func (o Options) burstFactors() []float64 {
	if o.Quick {
		return []float64{1, 4, 8}
	}
	return []float64{1, 2, 4, 6, 8}
}

// burstSpec builds the MMPP spec of the burstiness sweep: bursts cover 10%
// of the time at factor × the mean rate (500 ms mean burst sojourn), with
// the base rate derived so the long-run mean rate stays at the configured
// TPS — the sweep varies burstiness at strictly constant offered load.
func burstSpec(factor float64) workload.ArrivalSpec {
	return workload.ArrivalSpec{
		Kind:        workload.ArrivalMMPP,
		BurstFactor: factor,
		BurstFrac:   0.1,
		BurstMeanMS: 500,
	}
}

// WorkloadBurstiness sweeps the MMPP burst coefficient at a fixed 200 TPS
// mean across three memory schemes. Burstiness converts the log device's
// spare headroom into queueing: the disk-log scheme degrades steeply while
// NVEM placements flatten the curve — the paper's Poisson-only evaluation
// cannot show this separation.
func WorkloadBurstiness(o Options) (*stats.Figure, *stats.Figure, error) {
	const rate = 200
	resp := &stats.Figure{
		Title: fmt.Sprintf("Response time vs. burst coefficient (Debit-Credit %d TPS mean, MMPP 10%% burst time)",
			rate),
		XLabel: "burst-state rate multiplier",
		YLabel: "mean response time [ms]",
		X:      o.burstFactors(),
	}
	p95 := &stats.Figure{
		Title:  "Burstiness tail latency",
		XLabel: "burst-state rate multiplier",
		YLabel: "p95 response time [ms]",
		X:      o.burstFactors(),
	}
	schemes := []dcScheme{
		{"disk", DBSpec{Kind: DBRegular}, LogSpec{Kind: LogDisk}},
		{"log-nvem", DBSpec{Kind: DBRegular}, LogSpec{Kind: LogNVEM}},
		{"db+log-nvem", DBSpec{Kind: DBNVEMResident}, LogSpec{Kind: LogNVEM}},
	}
	labels := dcLabels(schemes)
	cells, err := sweep(o, labels, resp.X, func(si, xi int, o Options) (*core.Result, error) {
		sc := schemes[si]
		return DCSetup{Rate: rate, DB: sc.db, Log: sc.log,
			Arrival: burstSpec(resp.X[xi])}.Run(o)
	})
	if err != nil {
		return nil, nil, err
	}
	plot(resp, labels, cells, respMean)
	plot(p95, labels, cells, respP95)
	return resp, p95, nil
}

// Spike-crash scenario constants: node 0 of 4 crashes 3 s into the window
// and a 5× load spike lands on the whole cluster at the same instant,
// outlasting the recovery (shared-NVEM restart ≈ 4 s). The survivors see
// their own spiked load plus the crashed node's rerouted (equally spiked)
// arrivals — the regime the admission controller exists for.
const (
	spikeNodes     = 4
	spikeRate      = 400.0
	spikeCrashAtMS = 3_000.0
	spikeRebootMS  = 500.0
	spikeFactor    = 5.0
	spikeDurMS     = 5_000.0
	spikeBucketMS  = 1_000.0
	// spikeQueueFactor sheds rerouted arrivals once a survivor queues a
	// quarter of its MPL — load above that level outlives the outage as
	// backlog, so queueing it buys nothing.
	spikeQueueFactor = 0.25
)

// spikeCrashSetup assembles the shared scenario with the admission
// controller on or off.
func spikeCrashSetup(admission bool) ClusterSetup {
	return ClusterSetup{
		Nodes: spikeNodes, AggregateRate: spikeRate,
		SharedNVEM: 2000, GlobalLocks: true,
		CheckpointMS: 2_600,
		CrashAtMS:    spikeCrashAtMS, RebootMS: spikeRebootMS,
		TimelineBucketMS: spikeBucketMS,
		Arrival: workload.ArrivalSpec{
			Kind:        workload.ArrivalSpike,
			SpikeFactor: spikeFactor,
			SpikeAtMS:   spikeCrashAtMS,
			SpikeDurMS:  spikeDurMS,
		},
		Admission: core.AdmissionConfig{Enabled: admission, QueueFactor: spikeQueueFactor},
	}
}

// Spike-crash metrics.

func survivorRespMean(r *core.Result) float64 { return r.SurvivorRespMean }
func shedCount(r *core.Result) float64        { return float64(r.Shed) }
func droppedCount(r *core.Result) float64     { return float64(r.Dropped) }
func commitCount(r *core.Result) float64      { return float64(r.Commits) }

// WorkloadSpikeCrash crashes node 0 of a 4-node cluster under a coincident
// cluster-wide load spike and compares the recovery-aware admission
// controller against plain queueing. Without admission the survivors queue
// the crashed node's rerouted spike on top of their own and the backlog
// outlives the recovery; with admission the overflow is shed at the
// survivor-capacity threshold and the survivors stay responsive.
func WorkloadSpikeCrash(o Options) (*stats.Figure, *stats.Table, error) {
	_, measure := o.windows()
	buckets := int(measure / spikeBucketMS)
	x := make([]float64, buckets)
	for i := range x {
		x[i] = float64(i)
	}
	fig := &stats.Figure{
		Title: fmt.Sprintf("Crash-coincident %.0f× spike: node 0 of %d crashes at +%.0f s (Debit-Credit %.0f TPS mean)",
			spikeFactor, spikeNodes, spikeCrashAtMS/1000, spikeRate),
		XLabel: "window second",
		YLabel: "commits per second",
		X:      x,
	}
	schemes := []struct {
		label     string
		admission bool
	}{
		{"admission-off", false},
		{"admission-on", true},
	}
	labels := labelsOf(len(schemes), func(i int) string { return schemes[i].label })
	tbl := stats.NewTable("Admission control during the spike-crash window", "scheme", labels,
		[]string{"survivor-resp-ms", "resp-ms", "shed", "dropped", "commits", "restart-ms"})

	cells, err := sweep(o, labels, nil, func(si, _ int, o Options) (*core.Result, error) {
		return spikeCrashSetup(schemes[si].admission).Run(o)
	})
	if err != nil {
		return nil, nil, err
	}
	metrics := []func(*core.Result) float64{
		survivorRespMean, respMean, shedCount, droppedCount, commitCount, restartMS,
	}
	for si, label := range labels {
		addTimelines(fig, label, cells[si][0])
		for c, metric := range metrics {
			setCell(tbl, si, c, cells[si][0], metric)
		}
	}
	return fig, tbl, nil
}

// diurnalAmplitudes is the modulation-depth sweep of workload.diurnal.
func (o Options) diurnalAmplitudes() []float64 {
	if o.Quick {
		return []float64{0, 0.45, 0.9}
	}
	return []float64{0, 0.3, 0.6, 0.9}
}

// WorkloadDiurnal sweeps the sinusoidal modulation depth at 150 TPS mean
// over a doubled measurement window holding two full day/night cycles
// (period = half the window). The mean rate is amplitude-invariant, so the
// sweep isolates pure time-variance — and it reprises Fig 4.1's log-device
// argument under realistic load: a single log disk sized for the mean
// (~200 update tx/s capacity) is fine at amplitude 0 but the daily peak
// pushes it past saturation, paying super-linear queueing the off-peak
// trough cannot buy back, while the NVEM-resident log stays flat at every
// amplitude.
func WorkloadDiurnal(o Options) (*stats.Figure, *stats.Figure, error) {
	const (
		rate         = 150
		measureScale = 2
	)
	_, measure := o.windows()
	periodMS := measure * measureScale / 2
	resp := &stats.Figure{
		Title: fmt.Sprintf("Diurnal modulation depth vs. log allocation (Debit-Credit %d TPS mean, %.0f s period, two cycles)",
			rate, periodMS/1000),
		XLabel: "amplitude",
		YLabel: "mean response time [ms]",
		X:      o.diurnalAmplitudes(),
	}
	p95 := &stats.Figure{
		Title:  "Diurnal tail latency",
		XLabel: "amplitude",
		YLabel: "p95 response time [ms]",
		X:      o.diurnalAmplitudes(),
	}
	schemes := []struct {
		label string
		log   LogSpec
	}{
		{"log-single-disk", LogSpec{Kind: LogDisk, Disks: 1}},
		{"log-disks", LogSpec{Kind: LogDisk}},
		{"log-nvem", LogSpec{Kind: LogNVEM}},
	}
	labels := labelsOf(len(schemes), func(i int) string { return schemes[i].label })
	cells, err := sweep(o, labels, resp.X, func(si, xi int, o Options) (*core.Result, error) {
		return DCSetup{Rate: rate, DB: DBSpec{Kind: DBRegular}, Log: schemes[si].log,
			MeasureScale: measureScale,
			Arrival: workload.ArrivalSpec{
				Kind:      workload.ArrivalDiurnal,
				Amplitude: resp.X[xi],
				PeriodMS:  periodMS,
			}}.Run(o)
	})
	if err != nil {
		return nil, nil, err
	}
	plot(resp, labels, cells, respMean)
	plot(p95, labels, cells, respP95)
	return resp, p95, nil
}
