package core

import (
	"cmp"
	"fmt"

	"repro/internal/buffer"
	"repro/internal/cc"
	"repro/internal/rng"
	"repro/internal/sim"
	"repro/internal/storage"
	"repro/internal/workload"
)

// Default cost of one message to the global lock manager: CPU pathlength
// on the sending node and the request/response round trip (the paper's
// data-sharing discussion in section 5 assumes a dedicated communication
// path to the globally accessible store).
const (
	DefaultInstrLockMsg   = 5_000
	DefaultLockMsgDelayMS = 0.1
)

// MaxNodes caps ClusterConfig.NumNodes at 16 times the largest cluster
// the experiments run (256 nodes). A cluster needs a generator and a
// buffer manager for every node, so the cap lets a caller reject a node
// count before it builds anything per node.
const MaxNodes = 4096

// DefaultAdmissionQueueFactor is the survivor-capacity threshold of the
// admission controller when AdmissionConfig.QueueFactor is zero: a rerouted
// arrival is shed once the target's input queue holds one full MPL batch.
const DefaultAdmissionQueueFactor = 1.0

// AdmissionConfig is the recovery-aware admission controller on the
// cluster's arrival rerouter. While a node is down its arrivals reroute to
// the survivors; without admission control they queue there without bound
// and the backlog outlives the recovery. With Enabled, a rerouted arrival
// is shed (counted in Result.Shed, not executed) when the surviving
// target's input queue already holds QueueFactor × MPL waiting
// transactions — the survivors keep serving their own load at normal
// response times instead of dragging everyone into the backlog.
type AdmissionConfig struct {
	Enabled bool `json:"-"`
	// QueueFactor is the shedding threshold in multiples of the target
	// node's MPL. Zero means DefaultAdmissionQueueFactor.
	QueueFactor float64 `json:"queueFactor"`
}

// validate checks the admission description.
func (a *AdmissionConfig) validate() error {
	if a.QueueFactor < 0 {
		return fmt.Errorf("core: admission QueueFactor = %v", a.QueueFactor)
	}
	return nil
}

// ClusterConfig describes a multi-node data-sharing simulation: N
// transaction-processing nodes — each with its own CPUs, MPL, main-memory
// buffer and arrival streams — sharing the disk units and one global NVEM
// that serves as second-level cache and log store.
type ClusterConfig struct {
	// Base is the per-node template. Its CPU/MPL/buffer/CC/partition and
	// window settings apply to every node; its DiskUnits and NVEM
	// parameters describe the storage shared by all nodes. Base.Generator
	// is ignored — Generators supplies the per-node arrival streams.
	Base Config `json:"-"`

	NumNodes int `json:"numNodes"`

	// Generators holds one workload generator per node. Generators are
	// stateful, so nodes must not share an instance.
	Generators []workload.Generator `json:"-"`

	// SharedNVEMCache shares a single NVEM second-level cache of
	// Base.Buffer.NVEMCacheSize frames across all nodes: a page destaged
	// by one node is hittable by every other, with write-invalidate
	// coherence. When false each node gets a private cache (or none when
	// the buffer configuration uses no NVEM cache).
	SharedNVEMCache bool `json:"sharedNVEMCache"`

	// NVEMAccessDelayMS is the modeled interconnect latency of one
	// shared-NVEM-cache access (probe, insert, dirty hand-off). The
	// coupled engine resolves coherence instantaneously and ignores it;
	// under PDES it is what makes a shared cache parallelizable at all —
	// every coherence action becomes a cross-node message arriving this
	// many milliseconds later, and the barrier lookahead becomes
	// min(LockMsgDelayMS, NVEMAccessDelayMS). PDES + SharedNVEMCache is
	// therefore rejected unless this is positive.
	NVEMAccessDelayMS float64 `json:"nvemAccessDelayMS"`

	// GlobalLocks routes every lock request through one cluster-wide lock
	// manager. Each request costs InstrLockMsg instructions of message
	// pathlength on the requesting node's CPU plus a LockMsgDelayMS round
	// trip; releases cost one more message. Zero values take the
	// defaults. When false each node locks locally with no inter-node
	// messages — an idealized lower bound used for overhead ablations.
	GlobalLocks    bool    `json:"globalLocks"`
	InstrLockMsg   float64 `json:"instrLockMsg"`
	LockMsgDelayMS float64 `json:"lockMsgDelayMS"`

	// Failure injects one node crash into the measurement window: the
	// node's volatile state is lost, its arrivals reroute to the
	// surviving nodes, and after RebootMS it replays its redo log and
	// rejoins (recovery.go). The zero value disables injection.
	Failure FailureConfig `json:"-"`

	// Admission sheds rerouted arrivals above a survivor-capacity
	// threshold while a node is down, instead of queueing them. The zero
	// value queues everything (the pre-admission behaviour).
	Admission AdmissionConfig `json:"-"`

	// TimelineBucketMS, when positive, records cluster-wide commits per
	// time bucket over the measurement window (Result.Timeline) — the
	// availability experiments read the throughput dip and ramp-back
	// around a crash from it.
	TimelineBucketMS float64 `json:"timelineBucketMS"`

	// PDES runs the cluster as a conservative parallel simulation: one
	// kernel and private storage per node, cross-node events exchanged at
	// lookahead barriers (pdes.go). Compatible with SharedNVEMCache only
	// when NVEMAccessDelayMS is positive — instantaneous coherence has
	// zero lookahead and cannot be parallelized conservatively.
	PDES PDESConfig `json:"-"`
}

// Validate checks the cluster description.
func (c *ClusterConfig) Validate() error {
	if c.NumNodes <= 0 {
		return fmt.Errorf("core: cluster NumNodes = %d", c.NumNodes)
	}
	if c.NumNodes > MaxNodes {
		return fmt.Errorf("core: cluster NumNodes = %d exceeds MaxNodes = %d", c.NumNodes, MaxNodes)
	}
	if len(c.Generators) != c.NumNodes {
		return fmt.Errorf("core: %d generators for %d nodes", len(c.Generators), c.NumNodes)
	}
	if c.InstrLockMsg < 0 || c.LockMsgDelayMS < 0 {
		return fmt.Errorf("core: negative global-lock message cost")
	}
	if c.SharedNVEMCache && c.Base.Buffer.NVEMCacheSize <= 0 {
		return fmt.Errorf("core: SharedNVEMCache with NVEMCacheSize = %d", c.Base.Buffer.NVEMCacheSize)
	}
	if c.NVEMAccessDelayMS < 0 {
		return fmt.Errorf("core: NVEMAccessDelayMS = %v", c.NVEMAccessDelayMS)
	}
	if err := c.Failure.validate(c.NumNodes, c.Base.MeasureMS); err != nil {
		return err
	}
	if c.Failure.Enabled && c.Base.Arrival.Kind == workload.ArrivalClosedLoop {
		// A crash kills in-flight transactions without completing them, so
		// their terminals would never think again — the terminal population
		// silently shrinks and the post-recovery load is wrong.
		return fmt.Errorf("core: closed-loop arrivals cannot run with failure injection")
	}
	if err := c.Admission.validate(); err != nil {
		return err
	}
	if err := c.PDES.validate(); err != nil {
		return err
	}
	if c.PDES.Enabled && c.SharedNVEMCache && c.NVEMAccessDelayMS <= 0 {
		return fmt.Errorf("core: PDES with a shared NVEM cache requires NVEMAccessDelayMS > 0 (instantaneous coherence has zero lookahead); set ClusterConfig.NVEMAccessDelayMS")
	}
	if c.TimelineBucketMS < 0 {
		return fmt.Errorf("core: TimelineBucketMS = %v", c.TimelineBucketMS)
	}
	for i, g := range c.Generators {
		if g == nil {
			return fmt.Errorf("core: nil generator for node %d", i)
		}
		cfg := c.Base
		cfg.Generator = g
		if err := cfg.Validate(); err != nil {
			return fmt.Errorf("core: node %d: %w", i, err)
		}
	}
	return nil
}

// ClusterResult carries a multi-node run's metrics: the cluster-wide
// aggregate over the measurement window plus each node's own view.
type ClusterResult struct {
	Cluster *Result   // aggregate (includes shared disk-unit and NVEM reports)
	Nodes   []*Result // per-node metrics (no shared-device reports)
}

// Report renders the aggregate report followed by one summary line per
// node.
func (r *ClusterResult) Report() string {
	out := r.Cluster.Report()
	for i, n := range r.Nodes {
		out += fmt.Sprintf("node %d: %s\n", i, n.String())
	}
	return out
}

// RunCluster executes one multi-node data-sharing simulation.
func RunCluster(cfg ClusterConfig) (*ClusterResult, error) {
	_, res, err := runCluster(cfg)
	return res, err
}

// runCluster is RunCluster returning the finished cluster as well, for
// tests that inspect node state after the run.
func runCluster(cfg ClusterConfig) (*cluster, *ClusterResult, error) {
	if err := cfg.Validate(); err != nil {
		return nil, nil, err
	}
	c, err := newCluster(cfg)
	if err != nil {
		return nil, nil, err
	}
	c.runPhases()
	// Sum the node tallies in node-id order; survivors skip the crashed node.
	window := c.window()
	var sum, survivors tally
	out := &ClusterResult{}
	for _, n := range c.nodes {
		t := n.collect()
		out.Nodes = append(out.Nodes, t.result(window))
		sum.add(t)
		if cfg.Failure.Enabled && n.id != cfg.Failure.Node {
			survivors.add(t)
		}
	}
	if c.glocks != nil {
		sum.locks = c.glocks.Stats()
	}
	out.Cluster = sum.result(window)
	c.attachShared(out.Cluster)
	if cfg.Failure.Enabled {
		out.Cluster.Restart = c.nodes[cfg.Failure.Node].restartReport()
		out.Cluster.CrashedTimeline = out.Nodes[cfg.Failure.Node].Timeline
		out.Cluster.SurvivorRespMean = survivors.result(window).RespMean
	}
	c.finish()
	return c, out, nil
}

// oneNode describes a single-system run as a cluster of one node.
func oneNode(cfg Config) ClusterConfig {
	return ClusterConfig{Base: cfg, NumNodes: 1, Generators: []workload.Generator{cfg.Generator}}
}

// cluster wires N nodes onto one or more simulation kernels through the
// interconnect that runs them: the coupled engine puts every node on one
// kernel, the parallel engine gives each node its own (pdes.go). Each
// kernel has its own device set.
type cluster struct {
	// cfg is the run's description with the message costs and the
	// admission threshold defaulted. cfg.LockMsgDelayMS is the model's
	// inter-node message latency: the round trip of a global lock request,
	// and under PDES the travel time of every lock, invalidation and
	// reroute message even when locking is local.
	cfg ClusterConfig

	net     interconnect
	kernels []*sim.Sim // node i runs on kernels[i mod len(kernels)]
	devs    []devices  // devs[k]: kernel k's storage
	nodes   []*node

	glocks *cc.Manager             // non-nil: cluster-wide lock manager
	shared *buffer.SharedNVEMCache // non-nil: coherent shared NVEM cache

	rr int // round-robin cursor of the arrival rerouter
}

// devices is one kernel's storage: the disk units and the NVEM store (nil
// when no node on the kernel uses NVEM).
type devices struct {
	units []*storage.DiskUnit
	nvem  *storage.NVEM
}

// newCluster builds the interconnect with its kernels, each kernel's
// devices and every node; node i runs cfg.Base with generator i.
func newCluster(cfg ClusterConfig) (*cluster, error) {
	cfg.InstrLockMsg = cmp.Or(cfg.InstrLockMsg, DefaultInstrLockMsg)
	cfg.LockMsgDelayMS = cmp.Or(cfg.LockMsgDelayMS, DefaultLockMsgDelayMS)
	cfg.Admission.QueueFactor = cmp.Or(cfg.Admission.QueueFactor, DefaultAdmissionQueueFactor)
	c := &cluster{cfg: cfg}

	if cfg.SharedNVEMCache {
		sc, err := buffer.NewSharedNVEMCache(cfg.Base.Buffer.NVEMCacheSize)
		if err != nil {
			return nil, err
		}
		c.shared = sc
	}
	if cfg.PDES.Enabled {
		c.net = newPDES(c)
	} else {
		c.net = newDirect(c)
	}
	if cfg.GlobalLocks {
		c.glocks = cc.NewManager()
	}

	// Seqs are per kernel: a kernel's devices come before any node
	// resources on it, and its nodes follow in id order.
	for i := range cfg.NumNodes {
		if i < len(c.kernels) {
			d, err := c.newDevices(i)
			if err != nil {
				return nil, err
			}
			c.devs = append(c.devs, d)
		}
		n, err := newNode(c, i)
		if err != nil {
			return nil, err
		}
		c.nodes = append(c.nodes, n)
	}
	return c, nil
}

// newDevices builds kernel k's device set from Base: its disk units, and
// the NVEM store when the buffer configuration uses NVEM. The disk units
// draw from one stream, suffixed /n<k> only when the cluster runs several
// kernels.
func (c *cluster) newDevices(k int) (devices, error) {
	s, cfg := c.kernels[k], &c.cfg.Base
	stream := "disk-units"
	if len(c.kernels) > 1 {
		stream = fmt.Sprintf("%s/n%d", stream, k)
	}
	unitRnd := rng.NewStream(cfg.Seed, stream)
	var d devices
	for i := range cfg.DiskUnits {
		u, err := storage.NewDiskUnit(s, cfg.DiskUnits[i], unitRnd)
		if err != nil {
			return d, err
		}
		d.units = append(d.units, u)
	}
	if cfg.Buffer.UsesNVEM() {
		nvem, err := storage.NewNVEM(s, cfg.NVEMServers, cfg.NVEMDelay)
		if err != nil {
			return d, err
		}
		d.nvem = nvem
	}
	return d, nil
}

// invalidate drops the node's copy of key for a remote writer, counting
// the surrendered copy and whether it was handed off dirty.
func (e *node) invalidate(key storage.PageKey) {
	if had, dirty := e.bm.Invalidate(key); had {
		e.win.invalidations++
		if dirty {
			e.win.dirtyHandoffs++
		}
	}
}

// rerouteTarget takes the reconnect decision for an arrival that hit the
// down node e and returns the survivor to run it on, or nil when the
// arrival is lost. Survivors take rerouted arrivals round-robin, for
// balance. The arrival is dropped when no node is running (the cluster is
// unavailable) or the survivor's input queue is full. It is shed when the
// admission controller is on and that queue already holds QueueFactor ×
// MPL waiting transactions: the survivors keep serving their own load
// instead of queueing rerouted overflow behind it. Losses count against e
// and the arrival's class.
func (c *cluster) rerouteTarget(e *node, typ int) *node {
	var target *node
	for range c.nodes {
		n := c.nodes[c.rr]
		c.rr = (c.rr + 1) % len(c.nodes)
		if n.phase == nodeRunning {
			target = n
			break
		}
	}
	switch {
	case target == nil:
		e.drop(typ)
	case c.cfg.Admission.Enabled &&
		float64(target.mpl.QueueLen()) >= c.cfg.Admission.QueueFactor*float64(target.cfg.MPL):
		e.shedArrival(typ)
	case target.mpl.QueueLen() >= target.cfg.MaxQueue:
		e.drop(typ)
	default:
		return target
	}
	return nil
}

// window is the length of the measurement window so far; every node's
// kernel stands at the same instant between phases.
func (c *cluster) window() sim.Time {
	return c.nodes[0].s.Now() - c.nodes[0].warmStartTime
}

// finish stops the arrival streams and abandons all pending work.
func (c *cluster) finish() {
	for _, n := range c.nodes {
		n.stopArrivals = true
	}
	for _, k := range c.kernels {
		k.Shutdown()
	}
}

// attachShared adds the device reports (disk units, NVEM utilization) to
// a result: the single node's result in a one-node run, the aggregate in a
// cluster run. Each unit's counters sum over the device sets and its
// utilizations average over them (the kernels share one measurement
// window); one device set reports its own values exactly.
func (c *cluster) attachShared(res *Result) {
	cfg := &c.cfg.Base
	sets := float64(len(c.devs))
	for i := range cfg.DiskUnits {
		rep := UnitReport{
			Name: cfg.DiskUnits[i].Name,
			Type: cfg.DiskUnits[i].Type,
		}
		for _, d := range c.devs {
			u := d.units[i]
			rep.Stats = addUnitStats(rep.Stats, u.Stats())
			rep.DiskUtilization += u.DiskUtilization()
			rep.CtrlUtilization += u.ControllerUtilization()
		}
		rep.DiskUtilization /= sets
		rep.CtrlUtilization /= sets
		res.Units = append(res.Units, rep)
	}
	var util float64
	withNVEM := 0
	for _, d := range c.devs {
		if d.nvem != nil {
			util += d.nvem.Utilization()
			withNVEM++
		}
	}
	if withNVEM > 0 {
		res.NVEMUtil = util / float64(withNVEM)
	}
}

// addUnitStats sums two disk-unit counter snapshots field by field.
func addUnitStats(a, b storage.DiskUnitStats) storage.DiskUnitStats {
	a.Reads += b.Reads
	a.Writes += b.Writes
	a.ReadHits += b.ReadHits
	a.WriteHits += b.WriteHits
	a.CacheWrites += b.CacheWrites
	a.SyncDiskWrites += b.SyncDiskWrites
	a.Destages += b.Destages
	a.DiskAccesses += b.DiskAccesses
	return a
}
