package core

import (
	"fmt"

	"repro/internal/recovery"
)

// This file implements the crash–recovery side of the node lifecycle:
// failure injection, the crash transition (kill in-flight transactions,
// drop volatile state), the simulated restart (reboot, device-dependent
// redo log scan, redo page I/O), and the restart-time measurement entry
// point. The pure recovery model lives in internal/recovery; here it is
// executed against the real device models inside the kernel.

// FailureConfig injects one node crash into a cluster run. The zero
// value disables failure injection.
type FailureConfig struct {
	Enabled bool `json:"-"`
	// Node is the index of the node to crash.
	Node int `json:"node"`
	// CrashAtMS is the crash instant as an offset into the measurement
	// window (the crash must land inside it).
	CrashAtMS float64 `json:"crashAtMS"`
	// RebootMS is the failure-detection plus system-restart delay before
	// redo recovery begins.
	RebootMS float64 `json:"rebootMS"`
}

// validate checks the failure description against the cluster shape.
func (f *FailureConfig) validate(numNodes int, measureMS float64) error {
	if !f.Enabled {
		return nil
	}
	switch {
	case f.Node < 0 || f.Node >= numNodes:
		return fmt.Errorf("core: failure node %d of %d", f.Node, numNodes)
	case f.CrashAtMS <= 0 || f.CrashAtMS >= measureMS:
		return fmt.Errorf("core: CrashAtMS = %v outside the %v ms window", f.CrashAtMS, measureMS)
	case f.RebootMS < 0:
		return fmt.Errorf("core: RebootMS = %v", f.RebootMS)
	}
	return nil
}

// RestartReport describes one simulated crash and restart.
type RestartReport struct {
	Node      int
	CrashAtMS float64 // simulated crash instant
	RebootMS  float64 // configured reboot delay

	// Simulated restart breakdown. RestartMS = RebootMS + LogScanMS +
	// RedoMS when the node recovered inside the simulated horizon.
	LogScanMS float64
	RedoMS    float64
	RestartMS float64
	Recovered bool

	// Snapshot is the crash-time recovery state; EstimateMS is the
	// analytic restart-time formula priced from the device parameters
	// (node.estimateRestart), reported for cross-checking the simulated
	// scan.
	Snapshot   recovery.Snapshot
	EstimateMS float64
}

// String renders a one-line restart summary.
func (r *RestartReport) String() string {
	state := "NOT RECOVERED"
	if r.Recovered {
		state = fmt.Sprintf("restart %.1f ms (reboot %.1f + log scan %.1f + redo %.1f)",
			r.RestartMS, r.RebootMS, r.LogScanMS, r.RedoMS)
	}
	return fmt.Sprintf("node %d crashed @%.0f ms: %s; %d log pages, %d redo pages, est %.1f ms",
		r.Node, r.CrashAtMS, state, r.Snapshot.LogPages, r.Snapshot.RedoPages, r.EstimateMS)
}

// MeasureRestart runs cfg exactly like Run, then crashes the node after
// the measurement window closes and simulates its restart, filling
// Result.Restart. The measurement-window metrics are identical to a
// plain Run of the same configuration; the restart drains the kernel
// after them.
func MeasureRestart(cfg Config, rebootMS float64) (*Result, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	if rebootMS < 0 {
		return nil, fmt.Errorf("core: rebootMS = %v", rebootMS)
	}
	c, err := newCluster(oneNode(cfg))
	if err != nil {
		return nil, err
	}
	c.runPhases()
	n := c.nodes[0]
	res := n.collect().result(c.window())
	c.attachShared(res)
	// Quiesce everything that regenerates events, crash, and drain the
	// kernel: only the reboot timer, the redo scan and leftover
	// asynchronous device work remain, all finite.
	n.stopArrivals = true
	n.bm.StopCheckpoints()
	n.crashNow(rebootMS)
	n.s.RunAll()
	res.Restart = n.restartReport()
	c.finish()
	return res, nil
}

// crashNow fails the node at the current simulated instant: the recovery
// snapshot is captured, every in-flight transaction dies (its locks are
// released so remote waiters unblock), the volatile state — MM buffer,
// MPL slots, volatile device caches — is dropped, and the reboot timer
// is scheduled. Non-volatile tiers (NVEM cache/write buffer/resident
// partitions, NV disk caches, SSDs, disks) keep their content.
func (e *node) crashNow(rebootMS float64) {
	e.phase = nodeCrashed
	e.crashed = true
	e.crashedAt = e.s.Now()
	e.rebootMS = rebootMS

	e.redoKeys = e.bm.DirtyKeys()
	e.snapAtCrash = recovery.Snapshot{
		LogPages:  e.bm.LogSinceCkpt(),
		RedoPages: len(e.redoKeys),
		Resident:  e.bm.MMLen(),
	}
	e.estimateMS = e.estimateRestart()

	// Kill in-flight transactions in the order their attempts began. Every
	// one is marked dead before any lock is released, so a grant a release
	// fires to one of them wakes nothing (txRun.Wake).
	for t := e.running.head; t != nil; t = t.nextRun {
		t.dead = true
	}
	for t := e.running.head; t != nil; t = t.nextRun {
		t.releaseLocks()
	}
	e.running = txList{}

	// Fresh MPL slots: the held and queued slots of dead transactions are
	// abandoned with them (queued admissions are work lost in the crash).
	// The input-queue peak observed so far is carried over so pre-crash
	// overload still reaches the Saturated derivation in collect.
	if p := e.mpl.PeakQueueLen(); p > e.peakBeforeCrash {
		e.peakBeforeCrash = p
	}
	e.mpl = e.s.NewResource("mpl"+e.nameSuffix, e.cfg.MPL)

	e.bm.StopCheckpoints() // a crashed node cannot checkpoint
	e.bm.Crash()
	for _, u := range e.units {
		u.CrashVolatile()
	}

	e.s.Schedule(rebootMS, e.startRecovery)
}

// estimateRestart prices the captured snapshot with the analytic
// formula: device-dependent log scan plus per-partition redo reads.
func (e *node) estimateRestart() float64 {
	logRead := recovery.LogReadMS(e.cfg.Buffer.Log, e.cfg.DiskUnits, e.cfg.NVEMDelay)
	est := e.rebootMS + float64(e.snapAtCrash.LogPages)*logRead
	for _, key := range e.redoKeys {
		est += recovery.RedoReadMS(e.cfg.Buffer.Partitions[key.Partition], e.cfg.DiskUnits, e.cfg.NVEMDelay)
	}
	return est
}

// startRecovery fires when the reboot delay elapses: the node enters the
// recovering phase and a recovery process replays the redo log — the
// sequential device-dependent log scan, then one redo fix per dirty page
// lost in the crash (which also rewarms that part of the cold buffer).
// When redo completes the node rejoins: arrivals route to it again and
// the remaining cold-buffer rewarm is paid by regular transactions.
func (e *node) startRecovery() {
	e.phase = nodeRecovering
	e.s.Schedule(0, func() {
		scanStart := e.s.Now()
		e.bm.RecoveryScan(e.snapAtCrash.LogPages, func() {
			e.logScanMS = e.s.Now() - scanStart
			redoStart := e.s.Now()
			i := 0
			var redo func()
			redo = func() {
				if i == len(e.redoKeys) {
					e.redoMS = e.s.Now() - redoStart
					e.recoveredAt = e.s.Now()
					e.phase = nodeRunning
					// Rejoined: checkpointing resumes (not on a quiesced
					// node — a draining restart measurement must end).
					if !e.stopArrivals {
						e.bm.ResumeCheckpoints()
					}
					return
				}
				key := e.redoKeys[i]
				i++
				e.bm.Fix(key, true, redo)
			}
			redo()
		})
	})
}

// restartReport summarizes the node's crash, or nil if it never crashed.
func (e *node) restartReport() *RestartReport {
	if !e.crashed {
		return nil
	}
	rep := &RestartReport{
		Node:       e.id,
		CrashAtMS:  e.crashedAt,
		RebootMS:   e.rebootMS,
		LogScanMS:  e.logScanMS,
		RedoMS:     e.redoMS,
		Recovered:  e.recoveredAt > 0,
		Snapshot:   e.snapAtCrash,
		EstimateMS: e.estimateMS,
	}
	if rep.Recovered {
		rep.RestartMS = e.recoveredAt - e.crashedAt
	}
	return rep
}
