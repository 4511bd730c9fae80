package core

import (
	"repro/internal/sim"
	"repro/internal/storage"
	"repro/internal/workload"
)

// interconnect carries every effect that crosses a node boundary — global
// lock traffic, write-invalidation, shared-NVEM access and the rerouting of
// a down node's arrivals (the data-sharing outlook of the paper's
// section 5) — and runs the phase schedule over the cluster's kernels.
// Node and transaction code call it without knowing which engine runs
// them. Two engines implement it:
//
//   - direct, the coupled engine: one kernel and one device set shared by
//     every node, with each effect applied at once;
//   - *pdesState, the conservative parallel engine (pdes.go): one kernel
//     and device set per node, with each effect sent as a message and
//     applied at the next barrier, landing at its arrival instant.
//
// The decisions an effect takes are written once and shared by both: the
// reroute chain (cluster.rerouteTarget), the in-flight check of a global
// lock request (txRun.landLockRequest) and the reading of its verdict
// (txRun.verdict). The engines differ only in when an effect lands.
type interconnect interface {
	// attach wires node n into the interconnect once its kernel, devices
	// and CPU/MPL resources exist: it builds the node's buffer manager,
	// which reaches a shared NVEM cache directly or over the interconnect.
	attach(n *node) error
	// lockRequest sends t's global lock request (t.g, t.mode) once the
	// request's CPU pathlength is paid. A decided verdict resumes t
	// through onLocked; a queued request waits for lockGrant.
	lockRequest(t *txRun)
	// lockRelease releases every global lock t holds.
	lockRelease(t *txRun)
	// lockGrant resumes t's queued global request once the global lock
	// manager grants it.
	lockGrant(t *txRun)
	// invalidate drops every other node's copy of key before writer
	// modifies the page (write-invalidate coherence). A node that held the
	// page counts the hand-off.
	invalidate(writer *node, key storage.PageKey)
	// reroute hands an arrival that hit the down node e to a survivor
	// (clients reconnect), or loses it.
	reroute(e *node, tx workload.Tx)
	// run executes the phase schedule: every event up to each boundary,
	// the boundary's instant included, fires before its transition runs.
	run(steps []phaseStep)
}

// direct is the coupled engine's interconnect: every node runs on one
// shared kernel against one device set, and a cross-node effect touches
// the shared state in place, with zero lookahead.
type direct struct{ c *cluster }

// newDirect builds the coupled engine's single kernel.
func newDirect(c *cluster) direct {
	c.kernels = []*sim.Sim{sim.New()}
	return direct{c}
}

func (d direct) attach(n *node) error {
	bm, err := n.newBuffer(nil)
	n.bm = bm
	return err
}

// lockRequest delays the requester for the round trip; the request then
// lands at the manager (dispatch's txLockSent).
func (d direct) lockRequest(t *txRun) {
	t.state = txLockSent
	t.e.s.Schedule(d.c.cfg.LockMsgDelayMS, t.resume)
}

func (d direct) lockRelease(t *txRun) {
	t.e.win.lockMsgs++
	d.c.glocks.ReleaseAll(&t.Txn)
}

func (d direct) lockGrant(t *txRun) { t.e.s.Schedule(0, t.granted) }

// invalidate visits the peers in id order for determinism.
func (d direct) invalidate(writer *node, key storage.PageKey) {
	for _, n := range d.c.nodes {
		if n != writer {
			n.invalidate(key)
		}
	}
}

func (d direct) reroute(e *node, tx workload.Tx) {
	if target := d.c.rerouteTarget(e, tx.Type); target != nil {
		target.startTx(tx, nil)
	}
}

func (d direct) run(steps []phaseStep) {
	s := d.c.kernels[0]
	for _, st := range steps {
		s.Run(st.at)
		if st.run != nil {
			st.run()
		}
	}
}
