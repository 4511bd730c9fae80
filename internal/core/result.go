package core

import (
	"fmt"
	"strings"

	"repro/internal/buffer"
	"repro/internal/cc"
	"repro/internal/storage"
)

// PartitionReport is the per-partition hit breakdown over the measurement
// window. Raw hit counters ride along so cluster aggregation can recompute
// exact percentages from summed counts.
type PartitionReport struct {
	Name       string
	Fixes      int64
	MMHits     int64
	NVEMHits   int64
	MMHitPct   float64
	NVEMHitPct float64
}

// ClassReport is one transaction class's share of the window metrics,
// reported only for multi-class generators. Dropped and Shed split the
// scalar Result counters by class — the scalars stay the aggregate, so
// single-class runs are unchanged.
type ClassReport struct {
	Name     string
	Commits  int64
	Aborts   int64
	Dropped  int64
	Shed     int64
	RespMean float64 // ms
	RespP95  float64 // ms
}

// UnitReport is one disk-unit's activity over the whole run.
type UnitReport struct {
	Name            string
	Type            storage.DiskUnitType
	Stats           storage.DiskUnitStats
	DiskUtilization float64
	CtrlUtilization float64
}

// Result carries every metric a simulation run produces.
type Result struct {
	// Load.
	OfferedTPS float64 // configured aggregate arrival rate
	Commits    int64   // transactions committed in the window
	Aborts     int64   // deadlock aborts in the window (restarts)
	Dropped    int64   // arrivals dropped at the input-queue cap
	Shed       int64   // rerouted arrivals shed by the admission controller
	Saturated  bool    // input queue hit its cap: offered load unsustainable

	// Primary metrics (section 4: response time is the headline metric).
	Throughput   float64 // committed transactions per second
	RespMean     float64 // ms
	RespP95      float64 // ms
	LockWaitMean float64 // mean lock wait per transaction, ms
	IOWaitMean   float64 // mean time in Fix (buffer/storage) per transaction, ms

	// Utilization over the measurement window.
	CPUUtil  float64
	NVEMUtil float64

	// Per-class breakdown (empty for single-class generators).
	Classes []ClassReport

	// Closed-loop runs (ArrivalClosedLoop; Terminals > 0 marks one).
	// TerminalWaitFrac is the mean fraction of terminals waiting for an
	// MPL slot over the window — the closed-loop saturation signal.
	Terminals        int
	ThinkMS          float64
	TerminalWaitFrac float64

	// Caching.
	MMHitPct      float64 // main-memory buffer hit ratio (%)
	NVEMAddHitPct float64 // additional hits in the NVEM cache (%)
	Partitions    []PartitionReport

	// Component detail.
	Buffer buffer.Stats // window delta
	Locks  cc.Stats     // window delta
	Units  []UnitReport

	// Data-sharing cluster metrics (zero for single-node runs).
	LockMsgs      int64 // messages to the global lock manager (window)
	Invalidations int64 // MM copies invalidated by remote writers (window)
	DirtyHandoffs int64 // invalidations that handed off a dirty copy (window)

	// SurvivorRespMean is the mean response time over the non-crashed
	// nodes' commits (set on the cluster aggregate of a failure-injection
	// run) — the admission controller's target metric.
	SurvivorRespMean float64

	// Crash recovery (nil/empty without failure injection or restart
	// measurement).
	Restart          *RestartReport
	TimelineBucketMS float64 // width of one Timeline bucket
	Timeline         []int64 // commits per bucket over the window
	// CrashedTimeline is the crashed node's own commit timeline (set on
	// the cluster aggregate of a failure-injection run): its zero gap is
	// the outage, its resumption the rejoin.
	CrashedTimeline []int64
}

// String renders a compact one-line summary for logs and examples.
func (r *Result) String() string {
	return fmt.Sprintf(
		"offered=%.0f tps thruput=%.1f tps resp=%.2f ms p95=%.2f ms cpu=%.1f%% mmHit=%.1f%% nvemHit=%.1f%% aborts=%d%s",
		r.OfferedTPS, r.Throughput, r.RespMean, r.RespP95,
		100*r.CPUUtil, r.MMHitPct, r.NVEMAddHitPct, r.Aborts,
		map[bool]string{true: " SATURATED", false: ""}[r.Saturated])
}

// Report renders a multi-line human-readable report.
func (r *Result) Report() string {
	var b strings.Builder
	fmt.Fprintf(&b, "offered load:      %.1f TPS\n", r.OfferedTPS)
	fmt.Fprintf(&b, "throughput:        %.1f TPS (%d commits, %d aborts, %d dropped)\n",
		r.Throughput, r.Commits, r.Aborts, r.Dropped)
	if r.Terminals > 0 {
		fmt.Fprintf(&b, "closed loop:       %d terminals, %.0f ms think, %.1f%% waiting for MPL\n",
			r.Terminals, r.ThinkMS, 100*r.TerminalWaitFrac)
	}
	fmt.Fprintf(&b, "response time:     %.2f ms mean, %.2f ms p95\n", r.RespMean, r.RespP95)
	for _, c := range r.Classes {
		fmt.Fprintf(&b, "  class %-13s commits=%d aborts=%d dropped=%d shed=%d resp=%.2f ms p95=%.2f ms\n",
			c.Name, c.Commits, c.Aborts, c.Dropped, c.Shed, c.RespMean, c.RespP95)
	}
	fmt.Fprintf(&b, "  lock wait:       %.2f ms/tx\n", r.LockWaitMean)
	fmt.Fprintf(&b, "  fix (I/O) time:  %.2f ms/tx\n", r.IOWaitMean)
	fmt.Fprintf(&b, "CPU utilization:   %.1f%%\n", 100*r.CPUUtil)
	if r.NVEMUtil > 0 {
		fmt.Fprintf(&b, "NVEM utilization:  %.1f%%\n", 100*r.NVEMUtil)
	}
	fmt.Fprintf(&b, "hit ratios:        %.1f%% MM + %.1f%% NVEM cache\n", r.MMHitPct, r.NVEMAddHitPct)
	for _, p := range r.Partitions {
		fmt.Fprintf(&b, "  %-14s %8d fixes  %5.1f%% MM  %5.1f%% NVEM\n",
			p.Name, p.Fixes, p.MMHitPct, p.NVEMHitPct)
	}
	for _, u := range r.Units {
		fmt.Fprintf(&b, "unit %-12s %-14s reads=%d writes=%d rHits=%d wHits=%d destages=%d disk=%.1f%% ctrl=%.1f%%\n",
			u.Name, u.Type, u.Stats.Reads, u.Stats.Writes, u.Stats.ReadHits,
			u.Stats.WriteHits, u.Stats.Destages, 100*u.DiskUtilization, 100*u.CtrlUtilization)
	}
	if r.Shed > 0 {
		fmt.Fprintf(&b, "admission control: %d rerouted arrivals shed (survivor resp %.2f ms)\n",
			r.Shed, r.SurvivorRespMean)
	}
	if r.LockMsgs > 0 {
		fmt.Fprintf(&b, "global lock msgs:  %d\n", r.LockMsgs)
	}
	if r.Invalidations > 0 {
		fmt.Fprintf(&b, "coherence:         %d invalidations (%d dirty hand-offs)\n",
			r.Invalidations, r.DirtyHandoffs)
	}
	if r.Restart != nil {
		fmt.Fprintf(&b, "recovery:          %s\n", r.Restart)
	}
	if len(r.Timeline) > 0 {
		fmt.Fprintf(&b, "commit timeline (%.0f ms buckets):", r.TimelineBucketMS)
		for _, n := range r.Timeline {
			fmt.Fprintf(&b, " %d", n)
		}
		fmt.Fprintf(&b, "\n")
	}
	if r.Saturated {
		fmt.Fprintf(&b, "WARNING: input queue saturated; offered load exceeds capacity\n")
	}
	return b.String()
}
