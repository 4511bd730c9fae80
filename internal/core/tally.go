package core

import (
	"slices"

	"repro/internal/buffer"
	"repro/internal/cc"
	"repro/internal/sim"
)

// tally is the measurement-window accounting of one node, or the sum of
// several nodes' tallies. Its counts, sums and integrals all start at zero
// when the window opens (node.snapshot), so tallies add, and result
// derives every mean and ratio from them in one place. newNode sets a
// node's offered load, CPUs, terminals and bucket width, the node counts
// into the tally while the window runs, and collect adds its components'
// counters.
type tally struct {
	offeredTPS                     float64
	commits, aborts, dropped, shed int64
	saturated                      bool

	// Sums over committed transactions, ms: response time, lock wait and
	// time in Fix (buffer and storage).
	respSum, lockWaitSum, ioWaitSum float64
	// Percentiles do not add: a sum keeps the largest p95, which bounds
	// the cluster-wide p95 from above (exact for homogeneous nodes).
	respP95 float64

	cpus      int     // CPU servers
	cpuBusy   float64 // ∫ busy CPUs dt
	terminals int     // closed-loop terminals; 0 for open arrivals
	thinkMS   float64
	mplQueue  float64 // ∫ MPL input-queue length dt, closed loop only

	classes []classTally      // multi-class generators only
	parts   []PartitionReport // raw counts; result derives the percentages

	buffer        buffer.Stats
	locks         cc.Stats
	lockMsgs      int64 // sent to the global lock manager: 2 per request, 1 per release
	invalidations int64 // MM copies surrendered to remote writers
	dirtyHandoffs int64 // ... of which were handed off dirty

	timelineBucketMS float64
	timeline         []int64 // commits per bucket
}

// classTally is one transaction class's share of a tally.
type classTally struct {
	name                           string
	commits, aborts, dropped, shed int64
	respSum, respP95               float64
}

// add folds o into t. Counts, sums and integrals add, percentiles take
// the larger, and saturation holds when either side saturated. Cluster
// nodes share one configuration, so class and partition slots line up by
// index. Callers add tallies in node-id order, which fixes the float
// summation order.
func (t *tally) add(o *tally) {
	t.offeredTPS += o.offeredTPS
	t.commits += o.commits
	t.aborts += o.aborts
	t.dropped += o.dropped
	t.shed += o.shed
	t.saturated = t.saturated || o.saturated
	t.respSum += o.respSum
	t.lockWaitSum += o.lockWaitSum
	t.ioWaitSum += o.ioWaitSum
	t.respP95 = max(t.respP95, o.respP95)
	t.cpus += o.cpus
	t.cpuBusy += o.cpuBusy
	t.terminals += o.terminals
	t.thinkMS = max(t.thinkMS, o.thinkMS)
	t.mplQueue += o.mplQueue
	for i, c := range o.classes {
		if i == len(t.classes) {
			t.classes = append(t.classes, classTally{name: c.name})
		}
		tc := &t.classes[i]
		tc.commits += c.commits
		tc.aborts += c.aborts
		tc.dropped += c.dropped
		tc.shed += c.shed
		tc.respSum += c.respSum
		tc.respP95 = max(tc.respP95, c.respP95)
	}
	for i, p := range o.parts {
		if i == len(t.parts) {
			t.parts = append(t.parts, PartitionReport{Name: p.Name})
		}
		tp := &t.parts[i]
		tp.Fixes += p.Fixes
		tp.MMHits += p.MMHits
		tp.NVEMHits += p.NVEMHits
	}
	t.buffer = t.buffer.Add(o.buffer)
	t.locks = t.locks.Add(o.locks)
	t.lockMsgs += o.lockMsgs
	t.invalidations += o.invalidations
	t.dirtyHandoffs += o.dirtyHandoffs
	t.timelineBucketMS = max(t.timelineBucketMS, o.timelineBucketMS)
	for i, n := range o.timeline {
		if i == len(t.timeline) {
			t.timeline = append(t.timeline, 0)
		}
		t.timeline[i] += n
	}
}

// result derives the window metrics of a tally over a window of the given
// length: time metrics are sums over commits, utilization is busy time
// over capacity, and hit ratios are hits over fixes. A node's result, the
// cluster aggregate and the survivors' response time all come from here.
func (t *tally) result(window sim.Time) *Result {
	res := &Result{
		OfferedTPS:       t.offeredTPS,
		Commits:          t.commits,
		Aborts:           t.aborts,
		Dropped:          t.dropped,
		Shed:             t.shed,
		Saturated:        t.saturated,
		RespP95:          t.respP95,
		Terminals:        t.terminals,
		ThinkMS:          t.thinkMS,
		TerminalWaitFrac: t.terminalWaitFrac(window),
		MMHitPct:         pct(t.buffer.MMHits, t.buffer.Fixes),
		NVEMAddHitPct:    pct(t.buffer.NVEMCacheHits, t.buffer.Fixes),
		Buffer:           t.buffer,
		Locks:            t.locks,
		LockMsgs:         t.lockMsgs,
		Invalidations:    t.invalidations,
		DirtyHandoffs:    t.dirtyHandoffs,
	}
	if window > 0 {
		res.Throughput = float64(t.commits) / (window / 1000)
		if t.cpus > 0 {
			res.CPUUtil = t.cpuBusy / (float64(t.cpus) * window)
		}
	}
	if t.commits > 0 {
		n := float64(t.commits)
		res.RespMean = t.respSum / n
		res.LockWaitMean = t.lockWaitSum / n
		res.IOWaitMean = t.ioWaitSum / n
	}
	for _, c := range t.classes {
		cr := ClassReport{Name: c.name, Commits: c.commits, Aborts: c.aborts,
			Dropped: c.dropped, Shed: c.shed, RespP95: c.respP95}
		if c.commits > 0 {
			cr.RespMean = c.respSum / float64(c.commits)
		}
		res.Classes = append(res.Classes, cr)
	}
	for _, p := range t.parts {
		p.MMHitPct = pct(p.MMHits, p.Fixes)
		p.NVEMHitPct = pct(p.NVEMHits, p.Fixes)
		res.Partitions = append(res.Partitions, p)
	}
	if t.timelineBucketMS > 0 {
		res.TimelineBucketMS = t.timelineBucketMS
		res.Timeline = slices.Clone(t.timeline)
	}
	return res
}

// terminalWaitFrac is the mean fraction of closed-loop terminals waiting
// for an MPL slot over the window.
func (t *tally) terminalWaitFrac(window sim.Time) float64 {
	if window <= 0 || t.terminals == 0 {
		return 0
	}
	return t.mplQueue / window / float64(t.terminals)
}

// pct is hits as a percentage of fixes, 0 without fixes.
func pct(hits, fixes int64) float64 {
	if fixes == 0 {
		return 0
	}
	return 100 * float64(hits) / float64(fixes)
}
