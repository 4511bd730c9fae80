package core

import (
	"cmp"
	"fmt"
	"runtime"
	"slices"
	"sync/atomic"

	"repro/internal/buffer"
	"repro/internal/cc"
	"repro/internal/sim"
	"repro/internal/storage"
	"repro/internal/workload"
)

// Conservative parallel discrete-event simulation of a cluster run.
//
// Each node becomes one logical process with its own kernel, disk units and
// NVEM; the only interactions that cross node boundaries — global
// lock-manager traffic, write-invalidate coherence, shared-NVEM-cache
// probes and destages, and crash rerouting — already pay a message latency
// in the model: LockMsgDelayMS for lock traffic and rerouting,
// NVEMAccessDelayMS for coherence traffic against a shared NVEM cache. The
// smaller of the two is the lookahead: every kernel can safely run
// [T, T+lookahead] without seeing its peers, because anything a peer sends
// during that window arrives strictly after T+lookahead's window began. The
// coordinator therefore alternates two steps: apply every message sent
// during the last window (single-threaded, sorted by (arrive, sender,
// sender-sequence) so the schedule is independent of the worker count),
// each taking effect on its destination kernel at its arrival instant, then
// let every kernel run the window in parallel (the spin-then-park barrier
// in barrier.go).
//
// Determinism contract: a PDES run's per-node Results are identical for
// every Workers value, because cross-node state is only touched at
// barriers, in sorted order, on the coordinator. PDES is not event-for-
// event identical to the coupled single-kernel mode — the coupled mode
// resolves lock verdicts, invalidations and shared-cache probes
// instantaneously at shared state, which has zero lookahead by
// construction.

// PDESConfig switches a cluster run to the conservative parallel engine.
type PDESConfig struct {
	Enabled bool
	// Workers caps the kernel-executing goroutines (0 = GOMAXPROCS,
	// further capped by the node count). Results are identical for every
	// value; 1 runs the windows inline.
	Workers int
}

// validate checks the parallel-engine description.
func (p *PDESConfig) validate() error {
	if p.Workers < 0 {
		return fmt.Errorf("core: PDES Workers = %d", p.Workers)
	}
	return nil
}

// pdesMsgKind tags one cross-node message.
type pdesMsgKind uint8

const (
	pdesLockReq pdesMsgKind = iota
	pdesLockRelease
	pdesInvalidate
	pdesReroute
	pdesNVEMProbe
	pdesNVEMPut
)

// pdesMsg is one cross-node event in flight: sent by node from's logical
// process during a window and applied by the coordinator at the next
// barrier, taking effect at its arrival instant. seq is a per-sender
// sequence number; (arrive, from, seq) totally orders every batch.
type pdesMsg struct {
	kind   pdesMsgKind
	from   int
	seq    uint64
	arrive sim.Time

	// Lock traffic: the requesting transaction, whose pending request
	// (t.g, t.mode) stays fixed until its verdict, or the releasing one.
	t   *txRun
	txn cc.TxnID

	// Coherence / shared-cache traffic.
	key   storage.PageKey
	dirty bool
	nk    func(hit, dirty bool)

	// Rerouted arrival.
	tx workload.Tx
}

// pdesState is the coordinator of a parallel cluster run and the
// interconnect of its nodes: the in-flight messages, the residency table
// and the worker pool over the per-node kernels.
type pdesState struct {
	c         *cluster
	lookahead sim.Time
	workers   int

	// lockDelay is the latency of lock-manager and reroute messages;
	// cohDelay the latency of coherence traffic (invalidations and shared-
	// NVEM-cache probes/destages). Without a shared cache both equal the
	// lookahead; with one, lookahead = min(lockDelay, cohDelay), so every
	// message still arrives at or after the next window's start.
	lockDelay sim.Time
	cohDelay  sim.Time

	// outboxes[i] collects node i's messages during a window; only node
	// i's logical process appends, so windows need no message locking.
	// Slices are reused across windows.
	outboxes [][]pdesMsg
	seqs     []uint64
	batch    []pdesMsg // reusable merge buffer, coordinator-only

	// pending counts queued messages across all outboxes, so an empty
	// barrier skips the merge entirely (O(1) instead of sweeping every
	// outbox per window). Atomic: senders append from parallel kernels.
	pending atomic.Int64

	// msgTime is the arrival instant of the message currently being
	// applied at a barrier. Grant callbacks fired by the global lock
	// manager during a release read it to timestamp the wakeup.
	msgTime sim.Time

	// residency counts the pages each node holds, so a write-invalidation
	// reaches only the peers holding the page (invalidate). Nil makes
	// every peer a holder: nodes too large for the table, or the
	// pdesBroadcast test hook.
	residency *buffer.Residency

	barrier *pdesBarrier // non-nil when workers > 1
}

// pdesBroadcast, when true, builds PDES clusters without a residency
// table, so every peer counts as a holder of every page and each
// write-invalidation reaches all of them — the reference the exactness
// test compares the holder filter against; never enable it in production
// runs.
var pdesBroadcast = false

// newPDES builds the parallel engine for the nodes nodeCfgs describes: one
// kernel per node, the message latencies and the lookahead, the residency
// table and (for Workers > 1) the persistent worker pool. The cluster's
// shared NVEM cache, if any, must already exist.
func newPDES(c *cluster, nodeCfgs []Config, opts clusterOpts) *pdesState {
	numNodes := len(nodeCfgs)
	workers := opts.pdes.Workers
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	if workers > numNodes {
		workers = numNodes
	}
	// Lock traffic, invalidations and reroutes travel at the lock-message
	// latency. With a shared NVEM cache, coherence traffic instead travels
	// at the NVEM access latency, and the barrier horizon is the smaller
	// of the two (no message may arrive inside the window that sent it).
	lockDelay := sim.Time(opts.lockMsgDelay)
	pd := &pdesState{
		c:         c,
		lookahead: lockDelay,
		lockDelay: lockDelay,
		cohDelay:  lockDelay,
		workers:   workers,
		outboxes:  make([][]pdesMsg, numNodes),
		seqs:      make([]uint64, numNodes),
	}
	if c.shared != nil {
		pd.cohDelay = sim.Time(opts.nvemAccessDelay)
		pd.lookahead = min(lockDelay, pd.cohDelay)
	}
	c.kernels = make([]*sim.Sim, numNodes)
	for i := range c.kernels {
		c.kernels[i] = sim.New()
	}
	if !pdesBroadcast {
		// The residency table covers every frame Invalidate looks in: main
		// memory, plus the private NVEM cache when there is no shared one.
		frames := 0
		for i := range nodeCfgs {
			f := nodeCfgs[i].Buffer.BufferSize
			if c.shared == nil {
				f += nodeCfgs[i].Buffer.NVEMCacheSize
			}
			frames = max(frames, f)
		}
		pd.residency = buffer.NewResidency(numNodes, frames)
	}
	if pd.workers > 1 {
		pd.barrier = newPDESBarrier(c.kernels, pd.workers)
	}
	return pd
}

// attach gives node n its inbox and builds its buffer manager: a shared
// NVEM cache is reached only over the lookahead interconnect, and the
// coordinator applies its operations at barriers. The residency table
// tracks the pages the manager holds.
func (pd *pdesState) attach(n *node) error {
	n.inbox = newPDESInbox(n)
	var bus buffer.RemoteNVEMCache
	if pd.c.shared != nil {
		bus = &pdesNVEMBus{pd: pd, e: n}
	}
	bm, err := n.newBuffer(bus)
	if err != nil {
		return err
	}
	n.bm = bm
	if pd.residency != nil {
		bm.Track(pd.residency, n.id, n.inbox.inserted)
	}
	return nil
}

// stop shuts the worker pool down (idempotent).
func (pd *pdesState) stop() {
	if pd.barrier != nil {
		pd.barrier.stop()
	}
}

// run drives the phase schedule: windows of one lookahead, a message
// barrier before each. Phase transitions (window snapshot, crash
// injection) run on the coordinator at their exact boundary — every kernel
// sits precisely at the boundary then, because sim.Run lands the clock on
// its horizon even when a kernel drains early.
func (pd *pdesState) run(steps []phaseStep) {
	now := sim.Time(0)
	for _, st := range steps {
		for now < st.at {
			w := now + pd.lookahead
			if w > st.at {
				w = st.at
			}
			pd.deliver()
			pd.runWindow(w)
			now = w
		}
		if st.run != nil {
			st.run()
		}
	}
	pd.stop()
}

// runWindow advances every kernel to w.
func (pd *pdesState) runWindow(w sim.Time) {
	if pd.barrier != nil {
		pd.barrier.runWindow(w)
		return
	}
	for _, k := range pd.c.kernels {
		k.Run(w)
	}
}

// send queues one message from its sender's logical process. Called only
// from the sending node's kernel (or from the coordinator at a barrier,
// e.g. crash-time lock releases — outbox and sequence slots are per-node
// either way, so only the pending count needs an atomic).
func (pd *pdesState) send(m pdesMsg) {
	pd.seqs[m.from]++
	m.seq = pd.seqs[m.from]
	pd.outboxes[m.from] = append(pd.outboxes[m.from], m)
	pd.pending.Add(1)
}

// lockRequest ships t's pending lock request to the global lock manager;
// the verdict materializes one round trip (LockMsgDelayMS) later, at the
// message's arrival.
func (pd *pdesState) lockRequest(t *txRun) {
	e := t.e
	pd.send(pdesMsg{kind: pdesLockReq, from: e.id, arrive: e.s.Now() + pd.lockDelay, t: t})
}

// lockRelease ships a one-way release of every lock txn holds: the locks
// drop when it lands at the manager.
func (pd *pdesState) lockRelease(e *node, txn cc.TxnID) {
	pd.send(pdesMsg{kind: pdesLockRelease, from: e.id, arrive: e.s.Now() + pd.lockDelay, txn: txn})
}

// lockGrant wakes a waiter the global manager granted while a release
// message was applied at a barrier: it resumes at that message's arrival
// instant.
func (pd *pdesState) lockGrant(e *node, k func()) { e.inbox.deliver(pd.msgTime, k) }

// invalidate ships a write-invalidation of key; the coordinator applies it
// to the peers at the next barrier (applyInvalidate).
func (pd *pdesState) invalidate(e *node, key storage.PageKey) {
	pd.send(pdesMsg{kind: pdesInvalidate, from: e.id, arrive: e.s.Now() + pd.cohDelay, key: key})
}

// reroute ships an arrival that hit a non-running node to the coordinator;
// the reconnect decision needs cluster-wide state (survivor phases, queue
// lengths) and is taken at the barrier.
func (pd *pdesState) reroute(e *node, tx workload.Tx) {
	pd.send(pdesMsg{kind: pdesReroute, from: e.id, arrive: e.s.Now() + pd.lockDelay, tx: tx})
}

// deliver merges every outbox and applies the batch in (arrive, from, seq)
// order, a total order, so the schedule does not depend on which worker
// ran which kernel. A batch holds what was sent during the last window,
// and its arrivals need not fall inside the window about to run: a message
// class may travel longer than the lookahead — coherence traffic when
// NVEMAccessDelayMS exceeds LockMsgDelayMS, lock traffic in the reverse
// case — and then takes effect windows later. What does hold is that each
// class travels at a single delay, so within a class application order
// equals arrival order, batch after batch; the payload FIFOs of pdesInbox
// rely on it. When no node sent anything the merge is skipped outright.
func (pd *pdesState) deliver() {
	if pd.pending.Load() == 0 {
		return
	}
	pd.pending.Store(0)
	batch := pd.batch[:0]
	for i := range pd.outboxes {
		batch = append(batch, pd.outboxes[i]...)
		pd.outboxes[i] = pd.outboxes[i][:0]
	}
	slices.SortFunc(batch, byArrival)
	for i := range batch {
		pd.dispatch(&batch[i])
	}
	clear(batch) // drop payload references before reuse
	pd.batch = batch[:0]
}

// byArrival orders messages by (arrive, from, seq).
func byArrival(a, b pdesMsg) int {
	if c := cmp.Compare(a.arrive, b.arrive); c != 0 {
		return c
	}
	if c := cmp.Compare(a.from, b.from); c != 0 {
		return c
	}
	return cmp.Compare(a.seq, b.seq)
}

// dispatch applies one message on the coordinator. Effects on a node's
// kernel go through its inbox, which lands them at the arrival instant.
func (pd *pdesState) dispatch(m *pdesMsg) {
	c := pd.c
	pd.msgTime = m.arrive
	switch m.kind {
	case pdesLockReq:
		// A queued request registers as a waiter here, not via a kernel
		// event: a release in the same batch may grant it before its
		// kernel runs again, and the grant must find the waiter.
		if ok, decided := m.t.landLockRequest(m.arrive); decided {
			m.t.e.inbox.verdict(m.arrive, m.t, ok)
		}
	case pdesLockRelease:
		// Grant cascades fire c.glocks' callback synchronously, and
		// lockGrant timestamps them with msgTime.
		c.glocks.ReleaseAllFrom(m.from, m.txn)
	case pdesInvalidate:
		pd.applyInvalidate(m)
	case pdesReroute:
		// The decision is taken at the barrier, where survivor state is
		// coherent.
		if target := c.rerouteTarget(c.nodes[m.from], m.tx.Type); target != nil {
			target.inbox.deliver(m.arrive, target.newTx(m.tx, nil).begin)
		}
	case pdesNVEMProbe:
		// Shared-cache lookup on the requester's behalf. The cache is
		// examined (and, under NOFORCE, the copy removed) here at the
		// barrier in arrival order — equivalent to examining it at the
		// arrival instant, because every shared-cache mutation happens at
		// barriers in the same total order. The verdict reaches the
		// requesting kernel at the arrival instant.
		e := c.nodes[m.from]
		hit, dirty := e.bm.ApplySharedProbe(m.key)
		e.inbox.reply(m.arrive, hit, dirty, m.nk)
	case pdesNVEMPut:
		// One-way insert; an evicted deferred-dirty frame destages on the
		// sender's (quiescent) kernel, mirroring the coupled mode where
		// whoever's Put triggers the eviction pays the destage.
		c.nodes[m.from].bm.ApplySharedPut(m.key, m.dirty)
	}
}

// applyInvalidate applies a write-invalidation: each peer that holds the
// page now gets the invalidation as a kernel event; every other peer only
// reserves the kernel slot the event would take, and the slot becomes an
// event if the page enters the peer's buffer before the slot comes up
// (pdesInbox.inserted). An invalidation that finds no copy changes nothing
// but the kernel clock, and the reserved seq keeps every other event's
// (at, seq), so the kernels fire the same effective events as under a
// broadcast. A zero residency count proves a peer lacks the page; a
// nonzero one is confirmed by Holds.
func (pd *pdesState) applyInvalidate(m *pdesMsg) {
	var row []uint16
	if pd.residency != nil {
		row = pd.residency.Row(m.key)
	}
	for i, n := range pd.c.nodes {
		switch {
		case i == m.from:
		case row == nil || (row[i] != 0 && n.bm.Holds(m.key)):
			n.inbox.invalidate(m.arrive, m.key)
		default:
			n.inbox.reserve(m.arrive, m.key)
		}
	}
}

// pdesNVEMBus routes one node's shared-NVEM-cache operations over the
// message layer; it implements buffer.RemoteNVEMCache.
type pdesNVEMBus struct {
	pd *pdesState
	e  *node
}

// Probe ships a shared-NVEM-cache lookup; the verdict (and, under
// NOFORCE, the promoted copy's dirty bit) materializes at the message's
// arrival on the requesting node.
func (b *pdesNVEMBus) Probe(key storage.PageKey, k func(hit, dirty bool)) {
	b.pd.send(pdesMsg{kind: pdesNVEMProbe, from: b.e.id, arrive: b.e.s.Now() + b.pd.cohDelay, key: key, nk: k})
}

// Put ships a one-way page insert into the shared NVEM cache (victim
// migration, FORCE destage, or a coherence hand-off).
func (b *pdesNVEMBus) Put(key storage.PageKey, dirty bool) {
	b.pd.send(pdesMsg{kind: pdesNVEMPut, from: b.e.id, arrive: b.e.s.Now() + b.pd.cohDelay, key: key, dirty: dirty})
}

// pdesInbox is one node's end of barrier delivery. The coordinator turns a
// message into a typed payload, appends it to the node's FIFO for its kind
// and hands the kernel the kind's fire method, bound once per node,
// through the ordered delivery lane (sim.Deliver), so a barrier allocates
// nothing. Continuations that carry no payload — the grant of a queued
// lock request, the start of a rerouted arrival — are delivered as they
// are.
//
// A kind's payloads fire in the order they were pushed. Each kind travels
// at a single delay (lock verdicts at LockMsgDelayMS, invalidations and
// probe replies at NVEMAccessDelayMS) and batches apply in arrival order,
// so a kind is delivered with nondecreasing arrival time and increasing
// seq — the order the kernel fires it in. Each payload carries the instant
// it was delivered for, and firing it at any other instant panics.
type pdesInbox struct {
	e *node
	s *sim.Sim // e's kernel

	// watch lists the slots reserved for invalidations of pages the node
	// did not hold at the barrier, in delivery order; lateFree recycles
	// the records of those that became events. They lead the struct
	// because the coordinator touches them for nearly every peer of every
	// write.
	watch    fifo[reservedInval]
	lateFree *lateInval

	verdicts fifo[lockVerdict]
	invals   fifo[pageInval]
	replies  fifo[probeReply]

	fireVerdict, fireInval, fireReply func()
}

// lockVerdict resumes a lock request the global manager granted (ok) or
// refused as a deadlock.
type lockVerdict struct {
	at sim.Time
	t  *txRun
	ok bool
}

// pageInval drops the node's copy of a page a peer is about to write.
type pageInval struct {
	at  sim.Time
	key storage.PageKey
}

// reservedInval is a watched kernel slot: where an invalidation of key
// would fire had the node held the page at the barrier.
type reservedInval struct {
	at  sim.Time
	seq uint64
	key storage.PageKey
}

// lateInval is a reserved slot that became an event because its page
// entered the node's buffer before the slot came up. Such events fire
// outside the invals FIFO's order, so each carries its own payload: a
// record pooled on the inbox's freelist with its fire method bound once.
type lateInval struct {
	in   *pdesInbox
	at   sim.Time
	key  storage.PageKey
	fire func()
	next *lateInval // freelist link
}

// probeReply carries a shared-NVEM-cache verdict back to the prober.
type probeReply struct {
	at         sim.Time
	hit, dirty bool
	k          func(hit, dirty bool)
}

func newPDESInbox(e *node) *pdesInbox {
	in := &pdesInbox{e: e, s: e.s}
	in.fireVerdict = in.onVerdict
	in.fireInval = in.onInval
	in.fireReply = in.onReply
	return in
}

// landing is the kernel instant a message arriving at arrive takes effect:
// now + (arrive − now), the instant Schedule(arrive−now) yields. It equals
// arrive once now ≥ arrive/2 makes the subtraction exact; in a run's first
// windows it may differ in the last bit, and the golden outputs pin the
// Schedule rounding.
func (in *pdesInbox) landing(arrive sim.Time) sim.Time {
	now := in.s.Now()
	return now + (arrive - now)
}

// deliver hands fn to the node's kernel for a message arriving at arrive.
func (in *pdesInbox) deliver(arrive sim.Time, fn func()) {
	in.s.Deliver(in.landing(arrive), fn)
}

// verdict delivers the global lock manager's verdict on t's request.
func (in *pdesInbox) verdict(arrive sim.Time, t *txRun, ok bool) {
	at := in.landing(arrive)
	in.verdicts.push(lockVerdict{at: at, t: t, ok: ok})
	in.s.Deliver(at, in.fireVerdict)
}

// invalidate delivers a peer's write-invalidation of key.
func (in *pdesInbox) invalidate(arrive sim.Time, key storage.PageKey) {
	at := in.landing(arrive)
	in.invals.push(pageInval{at: at, key: key})
	in.s.Deliver(at, in.fireInval)
}

// reserve takes the kernel slot of a peer's write-invalidation of key that
// finds the node without the page, and watches it.
func (in *pdesInbox) reserve(arrive sim.Time, key storage.PageKey) {
	in.expire()
	in.watch.push(reservedInval{at: in.landing(arrive), seq: in.s.Reserve(), key: key})
}

// expire drops the watched slots that have passed. Slots are watched in
// the order they were reserved, which is (at, seq) order, so the passed
// ones lead the list.
func (in *pdesInbox) expire() {
	w, s := &in.watch, in.s
	for w.head < len(w.items) && s.Passed(w.items[w.head].at, w.items[w.head].seq) {
		w.pop()
	}
}

// inserted is the buffer manager's insert notification: key entered main
// memory or the private NVEM cache. Every watched slot of key that has not
// passed becomes the invalidation event it stood for. Each match is
// checked on its own: in a run's first windows a landing instant may
// differ from its arrival in the last bit (landing), so correctness does
// not rest on the list's order, only expiry's efficiency does.
func (in *pdesInbox) inserted(key storage.PageKey) {
	in.expire()
	w, s := &in.watch, in.s
	for i := w.head; i < len(w.items); {
		r := w.items[i]
		if r.key != key {
			i++
			continue
		}
		if !s.Passed(r.at, r.seq) {
			in.late(r)
		}
		n := copy(w.items[i:], w.items[i+1:])
		w.items[i+n] = reservedInval{}
		w.items = w.items[:i+n]
	}
}

// late turns the watched slot r into an event on a pooled record.
func (in *pdesInbox) late(r reservedInval) {
	l := in.lateFree
	if l == nil {
		l = &lateInval{in: in}
		l.fire = l.onFire
	} else {
		in.lateFree = l.next
		l.next = nil
	}
	l.at, l.key = r.at, r.key
	in.s.DeliverReserved(r.at, r.seq, l.fire)
}

func (l *lateInval) onFire() {
	in, at, key := l.in, l.at, l.key
	if poolPoison {
		l.at, l.key = -1, storage.PageKey{Partition: -1, Page: -1}
	}
	l.next = in.lateFree
	in.lateFree = l
	in.check(at, "late invalidation")
	in.e.invalidate(key)
}

// reply delivers a shared-cache probe's verdict to the prober's k.
func (in *pdesInbox) reply(arrive sim.Time, hit, dirty bool, k func(hit, dirty bool)) {
	at := in.landing(arrive)
	in.replies.push(probeReply{at: at, hit: hit, dirty: dirty, k: k})
	in.s.Deliver(at, in.fireReply)
}

func (in *pdesInbox) onVerdict() {
	v := in.verdicts.pop()
	in.check(v.at, "lock verdict")
	v.t.onLocked(v.ok)
}

func (in *pdesInbox) onInval() {
	v := in.invals.pop()
	in.check(v.at, "invalidation")
	in.e.invalidate(v.key)
}

func (in *pdesInbox) onReply() {
	v := in.replies.pop()
	in.check(v.at, "probe reply")
	v.k(v.hit, v.dirty)
}

// check panics unless a popped payload fires at the instant it was
// delivered for: a mismatch means the FIFO argument above broke and the
// payload belongs to another event.
func (in *pdesInbox) check(at sim.Time, kind string) {
	if now := in.s.Now(); now != at {
		panic(fmt.Sprintf("core: node %d fired a %s due at %v at %v: barrier payloads out of FIFO order",
			in.e.id, kind, at, now))
	}
}

// fifo is a first-in first-out queue of one payload kind. Its backing
// array is reused once drained and compacted when full, so a warm run
// enqueues without allocating.
type fifo[T any] struct {
	items []T
	head  int
}

func (q *fifo[T]) push(v T) {
	if q.head > 0 && len(q.items) == cap(q.items) {
		n := copy(q.items, q.items[q.head:])
		clear(q.items[n:])
		q.items, q.head = q.items[:n], 0
	}
	q.items = append(q.items, v)
}

func (q *fifo[T]) pop() T {
	v := q.items[q.head]
	var zero T
	q.items[q.head] = zero
	q.head++
	if q.head == len(q.items) {
		q.items, q.head = q.items[:0], 0
	}
	return v
}
