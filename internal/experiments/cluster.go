package experiments

import (
	"cmp"
	"fmt"

	"repro/internal/buffer"
	"repro/internal/cc"
	"repro/internal/core"
	"repro/internal/stats"
	"repro/internal/workload"
)

// Multi-node data-sharing experiments (the paper's section 5 outlook:
// extended storage as globally accessible storage shared by multiple
// transaction systems). Every point runs core.RunCluster: N identical
// nodes share the database disks, the log device and one global NVEM used
// as shared second-level cache and log store, with write-invalidate
// coherence and an optional cluster-wide lock manager.

// ClusterSetup describes one multi-node simulation point. The aggregate
// arrival rate is split evenly over the nodes, so sweeps over Nodes hold
// the offered load constant while adding processing capacity (and
// coherence/locking overhead).
type ClusterSetup struct {
	Nodes         int
	AggregateRate float64 // TPS across the whole cluster
	MMBuffer      int     // per-node main-memory frames (0 → 2000 split over nodes)
	SharedNVEM    int     // shared NVEM cache frames (log goes NVEM-resident too)
	PrivateNVEM   int     // per-node private NVEM cache frames (exclusive with SharedNVEM)
	GlobalLocks   bool
	Contention    bool           // section 4.7 contention workload instead of Debit-Credit
	Granularity   cc.Granularity // lock granularity for the contention workload

	// Recovery / availability knobs (the recovery.* experiments).
	CheckpointMS     float64 // fuzzy-checkpoint interval (0: no daemon)
	CrashAtMS        float64 // crash node 0 this far into the window (0: no crash)
	RebootMS         float64
	TimelineBucketMS float64 // record cluster commits per bucket

	// Workload-realism knobs (the workload.* experiments): the arrival
	// process every node's streams draw from, and the recovery-aware
	// admission controller on the rerouter.
	Arrival   workload.ArrivalSpec
	Admission core.AdmissionConfig

	// Parallel-simulation knobs (the cluster.scaleout64/256 experiments):
	// run the cluster under the conservative PDES engine, one kernel and
	// private storage per node. Combining PDES with SharedNVEM requires a
	// positive NVEMAccessDelayMS — the modeled interconnect latency that
	// gives shared-cache coherence its lookahead. PDESWorkers 0 means
	// GOMAXPROCS, or 1 for a grid job that runs beside others: the grid
	// already keeps the cores busy. Results do not depend on it.
	PDES              bool
	PDESWorkers       int
	NVEMAccessDelayMS float64

	// WindowScale scales both simulation windows by the given factor; 0
	// keeps the standard o.windows() length. The 256-node sweep uses it to
	// stay affordable — per-node confidence comes from 256 nodes sharing
	// one window, not from window length.
	WindowScale float64

	// Per-node storage sizing overrides (0 → the shared-storage defaults
	// of 12/96 db and 2/8 log controllers/disks). The PDES engine gives
	// every node its own devices, so large clusters size them per node
	// instead of replicating the full shared farm N times.
	DBControllers, DBDisks   int
	LogControllers, LogDisks int
}

// Build assembles the cluster configuration.
func (s ClusterSetup) Build(o Options) (core.ClusterConfig, error) {
	if s.Nodes <= 0 {
		return core.ClusterConfig{}, fmt.Errorf("experiments: cluster with %d nodes", s.Nodes)
	}
	if s.SharedNVEM > 0 && s.PrivateNVEM > 0 {
		return core.ClusterConfig{}, fmt.Errorf("experiments: shared and private NVEM caches are exclusive")
	}
	perNodeRate := s.AggregateRate / float64(s.Nodes)

	base := o.baseConfig()
	if s.WindowScale > 0 {
		base.WarmupMS *= s.WindowScale
		base.MeasureMS *= s.WindowScale
	}
	base.Arrival = s.Arrival

	gens := make([]workload.Generator, s.Nodes)
	if s.Contention {
		for i := range gens {
			gen, err := workload.NewSynthetic(contentionModel(perNodeRate))
			if err != nil {
				return core.ClusterConfig{}, err
			}
			gens[i] = gen
			if i == 0 {
				base.Partitions = gen.Model().Partitions
			}
		}
		base.CCModes = []cc.Granularity{s.Granularity, s.Granularity}
		applyContentionPathlength(&base)
	} else {
		for i := range gens {
			gen, err := workload.NewDebitCredit(workload.DefaultDebitCreditConfig(perNodeRate))
			if err != nil {
				return core.ClusterConfig{}, err
			}
			gens[i] = gen
			if i == 0 {
				base.Partitions = gen.Partitions()
			}
		}
		base.CCModes = []cc.Granularity{cc.PageLevel, cc.PageLevel, cc.NoCC}
	}

	base.DiskUnits = diskUnits(cmp.Or(s.DBControllers, 12), cmp.Or(s.DBDisks, 96),
		cmp.Or(s.LogControllers, 2), cmp.Or(s.LogDisks, 8))
	// 2000/N frames per node: fixed aggregate main memory across the sweep.
	base.Buffer = buffer.Config{BufferSize: cmp.Or(s.MMBuffer, 2000/s.Nodes), Logging: true}
	base.Buffer.CheckpointIntervalMS = s.CheckpointMS
	db := DBSpec{Kind: DBRegular}
	log := LogSpec{Kind: LogDisk}
	if nvem := max(s.SharedNVEM, s.PrivateNVEM); nvem > 0 {
		// The NVEM is the cluster's log store as well.
		db = DBSpec{Kind: DBNVEMCache, Size: nvem}
		log = LogSpec{Kind: LogNVEM}
	}
	if err := place(&base, db, log); err != nil {
		return core.ClusterConfig{}, err
	}

	cfg := core.ClusterConfig{
		Base:              base,
		NumNodes:          s.Nodes,
		Generators:        gens,
		SharedNVEMCache:   s.SharedNVEM > 0,
		NVEMAccessDelayMS: s.NVEMAccessDelayMS,
		GlobalLocks:       s.GlobalLocks,
		TimelineBucketMS:  s.TimelineBucketMS,
		Admission:         s.Admission,
		PDES:              core.PDESConfig{Enabled: s.PDES, Workers: s.PDESWorkers},
	}
	if cfg.PDES.Workers == 0 && o.concurrent {
		cfg.PDES.Workers = 1
	}
	if s.CrashAtMS > 0 {
		cfg.Failure = core.FailureConfig{
			Enabled:   true,
			CrashAtMS: s.CrashAtMS,
			RebootMS:  s.RebootMS,
		}
	}
	return cfg, nil
}

// Run builds and executes the setup, returning the cluster-wide aggregate
// (which plugs into the shared figure machinery).
func (s ClusterSetup) Run(o Options) (*core.Result, error) {
	cfg, err := s.Build(o)
	if err != nil {
		return nil, err
	}
	res, err := core.RunCluster(cfg)
	if err != nil {
		return nil, err
	}
	return res.Cluster, nil
}

// nodeCounts is the node-count sweep of the scale-out experiment.
func (o Options) nodeCounts() []float64 {
	if o.Quick {
		return []float64{1, 2, 4}
	}
	return []float64{1, 2, 4, 8}
}

// ClusterScaleout sweeps the node count at a fixed aggregate load: shared
// NVEM (second-level cache + log) against a disk-only allocation, both
// under global locking. Per-node main memory shrinks as 2000/N frames, so
// aggregate memory is constant: the shared NVEM cache absorbs the local
// hit-ratio loss while disk-only clusters pay it in I/O.
func ClusterScaleout(o Options) (*stats.Figure, *stats.Figure, error) {
	resp := &stats.Figure{
		Title:  "Cluster scale-out at 400 TPS aggregate (Debit-Credit, global locks)",
		XLabel: "nodes",
		YLabel: "mean response time [ms]",
		X:      o.nodeCounts(),
	}
	hits := &stats.Figure{
		Title:  "Cluster scale-out: aggregate hit ratios",
		XLabel: "nodes",
		YLabel: "hit ratio [%]",
		X:      o.nodeCounts(),
	}
	schemes := []struct {
		label  string
		shared int
	}{
		{"shared-nvem", 2000},
		{"disk-only", 0},
	}
	labels := labelsOf(len(schemes), func(i int) string { return schemes[i].label })
	cells, err := sweep(o, labels, resp.X, func(si, xi int, o Options) (*core.Result, error) {
		return ClusterSetup{Nodes: int(resp.X[xi]), AggregateRate: 400,
			SharedNVEM: schemes[si].shared, GlobalLocks: true}.Run(o)
	})
	if err != nil {
		return nil, nil, err
	}
	for si, label := range labels {
		addSeries(resp, label, cells[si], respMean)
		addSeries(hits, label+":mm", cells[si], mmHitPct)
	}
	addSeries(hits, "shared-nvem:nvem", cells[0], nvemAddHitPct)
	return resp, hits, nil
}

// pdesNodeCounts is the node-count sweep of the PDES scale-up experiment:
// unlike nodeCounts it grows the offered load with the cluster, so the
// interesting axis is coordination overhead at scale, not load splitting.
func (o Options) pdesNodeCounts() []float64 {
	if o.Quick {
		return []float64{4, 16, 64}
	}
	return []float64{4, 16, 64, 128}
}

// ClusterScaleout64 extends the scale-out story to 64 nodes and beyond
// under the conservative parallel engine: every node carries a fixed 50
// TPS of Debit-Credit with its own storage (2/12 db, 1/2 log
// controllers/disks, 500 MM frames), global locking on, so the sweep
// isolates what scale itself costs — lock-manager round trips and
// write-invalidate traffic growing with the node count. Private NVEM
// caches are compared against disk-only nodes; the shared cache at scale
// is cluster.scaleout256's subject.
func ClusterScaleout64(o Options) (*stats.Figure, *stats.Figure, error) {
	resp := &stats.Figure{
		Title:  "PDES scale-up at 50 TPS per node (Debit-Credit, global locks, per-node storage)",
		XLabel: "nodes",
		YLabel: "mean response time [ms]",
		X:      o.pdesNodeCounts(),
	}
	tput := &stats.Figure{
		Title:  "PDES scale-up: aggregate throughput",
		XLabel: "nodes",
		YLabel: "committed TPS",
		X:      o.pdesNodeCounts(),
	}
	schemes := []struct {
		label   string
		private int
	}{
		{"private-nvem", 500},
		{"disk-only", 0},
	}
	labels := labelsOf(len(schemes), func(i int) string { return schemes[i].label })
	cells, err := sweep(o, labels, resp.X, func(si, xi int, o Options) (*core.Result, error) {
		nodes := int(resp.X[xi])
		return ClusterSetup{Nodes: nodes, AggregateRate: 50 * float64(nodes),
			MMBuffer: 500, PrivateNVEM: schemes[si].private, GlobalLocks: true,
			PDES:          true,
			DBControllers: 2, DBDisks: 12, LogControllers: 1, LogDisks: 2}.Run(o)
	})
	if err != nil {
		return nil, nil, err
	}
	plot(resp, labels, cells, respMean)
	plot(tput, labels, cells, throughput)
	return resp, tput, nil
}

// pdes256NodeCounts is the node-count sweep of the 256-node experiment.
func (o Options) pdes256NodeCounts() []float64 {
	if o.Quick {
		return []float64{64, 256}
	}
	return []float64{64, 128, 256}
}

// ClusterScaleout256 is the shared-NVEM coherence story at the scale the
// barrier fast path exists for: 64→256 nodes under PDES, 50 TPS per node
// with per-node storage, comparing one cluster-shared NVEM cache (2000
// frames, coherence travelling as NVEMAccessDelayMS interconnect
// messages) against private 500-frame caches. Windows are scaled down —
// at 256 nodes one short window already aggregates hundreds of thousands
// of transactions. The output does not depend on the PDES worker count
// (TestScaleout256WorkerInvariance, TestPDESWorkerCountInvariant256), so
// it is left to the harness.
func ClusterScaleout256(o Options) (*stats.Figure, *stats.Figure, error) {
	resp := &stats.Figure{
		Title:  "PDES scale-up to 256 nodes (Debit-Credit, shared vs. private NVEM cache)",
		XLabel: "nodes",
		YLabel: "mean response time [ms]",
		X:      o.pdes256NodeCounts(),
	}
	tput := &stats.Figure{
		Title:  "PDES scale-up to 256 nodes: aggregate throughput",
		XLabel: "nodes",
		YLabel: "committed TPS",
		X:      o.pdes256NodeCounts(),
	}
	schemes := []struct {
		label           string
		shared, private int
	}{
		{"shared-nvem", 2000, 0},
		{"private-nvem", 0, 500},
	}
	labels := labelsOf(len(schemes), func(i int) string { return schemes[i].label })
	cells, err := sweep(o, labels, resp.X, func(si, xi int, o Options) (*core.Result, error) {
		sc, nodes := schemes[si], int(resp.X[xi])
		return ClusterSetup{Nodes: nodes, AggregateRate: 50 * float64(nodes),
			MMBuffer: 500, SharedNVEM: sc.shared, PrivateNVEM: sc.private,
			GlobalLocks: true, PDES: true,
			NVEMAccessDelayMS: 0.15, WindowScale: 0.2,
			DBControllers: 2, DBDisks: 12, LogControllers: 1, LogDisks: 2}.Run(o)
	})
	if err != nil {
		return nil, nil, err
	}
	plot(resp, labels, cells, respMean)
	plot(tput, labels, cells, throughput)
	return resp, tput, nil
}

// ClusterAllocation compares, at four nodes over an aggregate-rate sweep,
// one shared NVEM cache against the same frames split into private
// per-node caches and against the disk-only baseline. The shared pool
// avoids replicating hot pages once per node and serves remote destages.
func ClusterAllocation(o Options) (*stats.Figure, error) {
	fig := &stats.Figure{
		Title:  "Shared vs. private NVEM caching, 4-node data sharing (Debit-Credit)",
		XLabel: "aggregate TPS",
		YLabel: "mean response time [ms]",
		X:      o.rates(),
	}
	const nodes = 4
	schemes := []struct {
		label           string
		shared, private int
	}{
		{"shared-nvem-cache", 2000, 0},
		{"private-nvem-caches", 0, 2000 / nodes},
		{"disk-only", 0, 0},
	}
	labels := labelsOf(len(schemes), func(i int) string { return schemes[i].label })
	cells, err := sweep(o, labels, fig.X, func(si, xi int, o Options) (*core.Result, error) {
		sc := schemes[si]
		return ClusterSetup{Nodes: nodes, AggregateRate: fig.X[xi],
			SharedNVEM: sc.shared, PrivateNVEM: sc.private, GlobalLocks: true}.Run(o)
	})
	if err != nil {
		return nil, err
	}
	plot(fig, labels, cells, respMean)
	return fig, nil
}

// lockMsgsPerTx is the global lock-manager message traffic per committed
// transaction.
func lockMsgsPerTx(r *core.Result) float64 {
	if r.Commits == 0 {
		return 0
	}
	return float64(r.LockMsgs) / float64(r.Commits)
}

// ClusterLocking runs the section 4.7 contention workload on a two-node
// cluster: idealized local locking (no messages) against the global lock
// manager at page and object granularity. The second figure pins the
// message traffic the global manager costs per transaction.
func ClusterLocking(o Options) (*stats.Figure, *stats.Figure, error) {
	resp := &stats.Figure{
		Title:  "Global vs. local locking under contention (2-node data sharing)",
		XLabel: "TPS",
		YLabel: "mean response time [ms]",
		X:      o.rates(),
	}
	msgs := &stats.Figure{
		Title:  "Global lock-manager messages",
		XLabel: "TPS",
		YLabel: "messages per committed tx",
		X:      o.rates(),
	}
	schemes := []struct {
		label  string
		global bool
		gran   cc.Granularity
	}{
		{"local:page-locks", false, cc.PageLevel},
		{"global:page-locks", true, cc.PageLevel},
		{"global:object-locks", true, cc.ObjectLevel},
	}
	labels := labelsOf(len(schemes), func(i int) string { return schemes[i].label })
	cells, err := sweep(o, labels, resp.X, func(si, xi int, o Options) (*core.Result, error) {
		sc := schemes[si]
		return ClusterSetup{Nodes: 2, AggregateRate: resp.X[xi],
			GlobalLocks: sc.global, Contention: true, Granularity: sc.gran}.Run(o)
	})
	if err != nil {
		return nil, nil, err
	}
	for si, sc := range schemes {
		addSeries(resp, sc.label, cells[si], respMean)
		if sc.global {
			addSeries(msgs, sc.label, cells[si], lockMsgsPerTx)
		}
	}
	return resp, msgs, nil
}
