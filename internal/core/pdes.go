package core

import (
	"cmp"
	"fmt"
	"math/bits"
	"runtime"
	"slices"
	"sync/atomic"

	"repro/internal/buffer"
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
// during the last window (single-threaded, in (arrive, sender, send order)
// so the schedule is independent of the worker count), each taking effect
// on its destination kernel at its arrival instant, then run the window on
// the kernels that have an event in it. The others only land their clocks
// on the window's end. A window with enough busy kernels fans out to the
// worker pool (the spin-then-park barrier in barrier.go); a thin one runs
// inline on the coordinator.
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
	Enabled bool `json:"-"`
	// Workers caps the kernel-executing goroutines (0 = GOMAXPROCS,
	// further capped by the node count). Results are identical for every
	// value; 1 runs the windows inline.
	Workers int `json:"workers"`
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
// barrier, taking effect at its arrival instant.
type pdesMsg struct {
	kind   pdesMsgKind
	from   int
	arrive sim.Time

	// Lock traffic: the requesting transaction, whose pending request
	// (t.g, t.mode) stays fixed until its verdict, or the releasing one.
	t *txRun

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

	// outboxes[i] collects node i's messages during a window, in send
	// order; only node i's logical process appends, so windows need no
	// message locking. Slices are reused across windows.
	outboxes [][]pdesMsg

	// senders marks the nodes whose outbox is non-empty, one bit per node
	// in one word per 64 nodes: send sets a node's bit when its outbox goes
	// from empty to non-empty, so a barrier visits only the senders' outboxes
	// and an empty one reads a word per 64 nodes. Atomic: the nodes of one
	// word send from parallel kernels.
	senders []atomic.Uint64

	// keys is the reusable merge buffer, coordinator-only: one key per
	// queued message, sorted into the batch order.
	keys []pdesKey

	// applying is set while deliver applies a batch in place, when a send
	// would append to an outbox being read; send refuses it.
	applying bool

	// msgTime is the arrival instant of the message currently being
	// applied at a barrier. Grant callbacks fired by the global lock
	// manager during a release read it to timestamp the wakeup.
	msgTime sim.Time

	// residency counts the pages each node holds, so a write-invalidation
	// reaches only the peers holding the page (invalidate). Nil makes
	// every peer a holder: nodes too large for the table, or the
	// pdesBroadcast test hook.
	residency *buffer.Residency

	// now is the instant every kernel stands at between windows.
	now sim.Time

	// ordinal counts the invalidations applied so far. Invalidation n
	// owns one seq on every kernel, and a kernel takes the seqs it owes
	// only before its next seq use (pdesInbox.sync), so a peer without the
	// page costs nothing at the barrier. invals is the shared log of the
	// applied invalidations whose landing has not passed, in ordinal
	// order: a peer that inserts the page before the landing finds its
	// slot there (pdesInbox.inserted).
	ordinal uint64
	invals  fifo[appliedInval]

	busy    []*sim.Sim   // the current window's busy kernels, reused
	barrier *pdesBarrier // non-nil when workers > 1
}

// pdesFanOut is the fewest busy kernels a window needs to fan out to the
// worker pool; a thinner window runs inline on the coordinator, where
// handing it to the pool would cost more than its kernels' work. DESIGN.md
// §12 gives the busy-kernel distribution it is picked from.
const pdesFanOut = 24

// pdesBroadcast, when true, builds PDES clusters without a residency
// table, so every peer counts as a holder of every page and each
// write-invalidation reaches all of them — the reference the exactness
// test compares the holder filter against; never enable it in production
// runs.
var pdesBroadcast = false

// pdesForceFanOut, when true, fans every window out to the worker pool,
// however few kernels are busy, so the worker-count tests cover the
// barrier on clusters whose windows would run inline; never enable it in
// production runs.
var pdesForceFanOut = false

// newPDES builds the parallel engine for the cluster's nodes: one kernel
// per node, the message latencies and the lookahead, the residency table
// and (for Workers > 1) the persistent worker pool. The cluster's shared
// NVEM cache, if any, must already exist.
func newPDES(c *cluster) *pdesState {
	numNodes := c.cfg.NumNodes
	workers := c.cfg.PDES.Workers
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
	lockDelay := sim.Time(c.cfg.LockMsgDelayMS)
	pd := &pdesState{
		c:         c,
		lookahead: lockDelay,
		lockDelay: lockDelay,
		cohDelay:  lockDelay,
		workers:   workers,
		outboxes:  make([][]pdesMsg, numNodes),
		senders:   make([]atomic.Uint64, (numNodes+63)/64),
	}
	if c.shared != nil {
		pd.cohDelay = sim.Time(c.cfg.NVEMAccessDelayMS)
		pd.lookahead = min(lockDelay, pd.cohDelay)
	}
	c.kernels = make([]*sim.Sim, numNodes)
	for i := range c.kernels {
		c.kernels[i] = sim.New()
	}
	if !pdesBroadcast {
		// The residency table covers every frame Invalidate looks in: main
		// memory, plus the private NVEM cache when there is no shared one.
		frames := c.cfg.Base.Buffer.BufferSize
		if c.shared == nil {
			frames += c.cfg.Base.Buffer.NVEMCacheSize
		}
		pd.residency = buffer.NewResidency(numNodes, frames)
	}
	if pd.workers > 1 {
		pd.barrier = newPDESBarrier(pd.workers)
	}
	return pd
}

// attach gives node n its inbox and builds its buffer manager: a shared
// NVEM cache is reached only over the lookahead interconnect, and the
// coordinator applies its operations at barriers. The residency table
// tracks the pages the manager holds.
func (pd *pdesState) attach(n *node) error {
	n.inbox = &pdesInbox{pd: pd, e: n, s: n.s}
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
// sits precisely at the boundary then, because sim.Run and sim.Land put
// the clock on the horizon even when a kernel drains early. A transition
// may schedule on any kernel, so each first takes the seqs it owes.
func (pd *pdesState) run(steps []phaseStep) {
	for _, st := range steps {
		for pd.now < st.at {
			w := pd.now + pd.lookahead
			if w > st.at {
				w = st.at
			}
			pd.deliver()
			pd.runWindow(w)
		}
		if st.run != nil {
			for _, n := range pd.c.nodes {
				n.inbox.sync()
			}
			st.run()
		}
	}
	pd.stop()
}

// runWindow advances every kernel to w. A kernel with no event at or
// before w lands on w; the busy ones take the seqs they owe and run,
// inline when they are few (pdesFanOut), else on the worker pool.
func (pd *pdesState) runWindow(w sim.Time) {
	busy := pd.busy[:0]
	for i, k := range pd.c.kernels {
		if k.Idle(w) {
			k.Land(w)
			continue
		}
		pd.c.nodes[i].inbox.sync()
		busy = append(busy, k)
	}
	if pd.barrier != nil && (len(busy) >= pdesFanOut || pdesForceFanOut) {
		pd.barrier.runWindow(w, busy)
	} else {
		for _, k := range busy {
			k.Run(w)
		}
	}
	pd.busy = busy
	pd.now = w
}

// send queues one message from its sender's logical process. Called only
// from the sending node's kernel (or from the coordinator between windows,
// e.g. crash-time lock releases — outboxes are per-node either way, so
// only the sender bitset needs an atomic), never while a batch is applied.
func (pd *pdesState) send(m pdesMsg) {
	if pd.applying {
		panic("core: PDES message sent while a barrier applies its batch")
	}
	box := &pd.outboxes[m.from]
	if len(*box) == 0 {
		pd.senders[m.from>>6].Or(1 << (m.from & 63))
	}
	*box = append(*box, m)
}

// lockRequest ships t's pending lock request to the global lock manager;
// the verdict materializes one round trip (LockMsgDelayMS) later, at the
// message's arrival.
func (pd *pdesState) lockRequest(t *txRun) {
	e := t.e
	pd.send(pdesMsg{kind: pdesLockReq, from: e.id, arrive: e.s.Now() + pd.lockDelay, t: t})
}

// lockRelease ships a one-way release of every lock t holds: the locks
// drop when it lands at the manager. The message carries the record,
// which may start its next attempt, or be reused, before the message
// lands (putTx).
func (pd *pdesState) lockRelease(t *txRun) {
	e := t.e
	pd.send(pdesMsg{kind: pdesLockRelease, from: e.id, arrive: e.s.Now() + pd.lockDelay, t: t})
}

// lockGrant wakes a waiter the global manager granted while a release
// message was applied at a barrier: it resumes at that message's arrival
// instant.
func (pd *pdesState) lockGrant(t *txRun) { t.e.inbox.deliver(pd.msgTime, t.granted) }

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

// pdesKey places one queued message in the batch order: its arrival, then
// ord, its sender's id and its position in the sender's outbox. Keys hold
// no pointers, so sorting them moves 16 bytes a message and the garbage
// collector never scans them.
type pdesKey struct {
	arrive sim.Time
	ord    uint64 // sender<<32 | position
}

// deliver applies every message sent during the last window in (arrive,
// sender, send order), a total order, so the schedule does not depend on
// which worker ran which kernel. It visits only the outboxes the sender
// bitset marks, sorts one key per message, and dispatches each message in
// its outbox, so no message is copied and no empty outbox is written. No
// dispatch path sends (send panics while applying is set): a message sent
// now would append to an outbox being read. A batch holds what was sent
// during the last window, and its arrivals need not fall inside the window
// about to run: a message class may travel longer than the lookahead —
// coherence traffic when NVEMAccessDelayMS exceeds LockMsgDelayMS, lock
// traffic in the reverse case — and then takes effect windows later.
func (pd *pdesState) deliver() {
	// Every kernel stands at now, so each logged invalidation landing at
	// or before it has passed everywhere.
	for q := &pd.invals; q.head < len(q.items) && q.items[q.head].at <= pd.now; {
		q.pop()
	}
	keys := pd.keys[:0]
	for w := range pd.senders {
		for set := pd.senders[w].Load(); set != 0; set &= set - 1 {
			from := w<<6 | bits.TrailingZeros64(set)
			for i := range pd.outboxes[from] {
				keys = append(keys, pdesKey{arrive: pd.outboxes[from][i].arrive, ord: uint64(from)<<32 | uint64(i)})
			}
		}
	}
	if len(keys) == 0 {
		return
	}
	slices.SortFunc(keys, func(a, b pdesKey) int {
		if c := cmp.Compare(a.arrive, b.arrive); c != 0 {
			return c
		}
		return cmp.Compare(a.ord, b.ord)
	})
	pd.applying = true
	for _, k := range keys {
		pd.dispatch(&pd.outboxes[k.ord>>32][uint32(k.ord)])
	}
	pd.applying = false
	// Truncated, not cleared, as outboxes always were: a stale slot refers
	// to the run's pooled records until a later send overwrites it.
	for w := range pd.senders {
		for set := pd.senders[w].Swap(0); set != 0; set &= set - 1 {
			from := w<<6 | bits.TrailingZeros64(set)
			pd.outboxes[from] = pd.outboxes[from][:0]
		}
	}
	pd.keys = keys[:0]
}

// dispatch applies one message on the coordinator. Effects on a node's
// kernel go through its inbox, which lands them at the arrival instant.
func (pd *pdesState) dispatch(m *pdesMsg) {
	c := pd.c
	pd.msgTime = m.arrive
	switch m.kind {
	case pdesLockReq:
		// The verdict is taken here, not in a kernel event: a release
		// later in the same batch may grant a queued request before its
		// kernel runs again.
		if ok, decided := m.t.landLockRequest(m.arrive); decided {
			m.t.e.inbox.verdict(m.arrive, m.t, ok)
		}
	case pdesLockRelease:
		// Grant cascades wake their waiters synchronously (txRun.Wake),
		// and lockGrant timestamps them with msgTime.
		c.nodes[m.from].win.lockMsgs++
		c.glocks.ReleaseAll(&m.t.Txn)
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
		e := c.nodes[m.from]
		e.inbox.sync()
		e.bm.ApplySharedPut(m.key, m.dirty)
	}
}

// applyInvalidate applies a write-invalidation as ordinal n, landing at
// at on every kernel. Each peer that holds the page now gets the
// invalidation as a kernel event, in the seq n owns on its kernel. A
// residency entry that counts no page, or one page with another
// fingerprint, proves a peer lacks the page; Holds confirms any other.
// Every other peer, the sender included, is not touched: it takes its seq
// for n when it next uses one, and the log entry turns that slot into an
// event if the page enters its buffer before the landing
// (pdesInbox.inserted). An invalidation that finds no copy changes nothing
// but the kernel clock, and the seq n owns keeps every other event's place
// in the (at, seq) order, so the kernels fire the same effective events as
// under a broadcast.
func (pd *pdesState) applyInvalidate(m *pdesMsg) {
	pd.ordinal++
	n, at := pd.ordinal, landing(pd.now, m.arrive)
	if pd.residency == nil {
		for _, peer := range pd.c.nodes {
			if peer.id != m.from {
				peer.inbox.invalidate(n, at, m.key)
			}
		}
	} else {
		// Only the row's entries are read for a peer the filter rules out.
		res := pd.residency
		row, alone := res.Row(m.key)
		for i, e := range row {
			if !res.Absent(e, alone) && i != m.from && pd.c.nodes[i].bm.Holds(m.key) {
				pd.c.nodes[i].inbox.invalidate(n, at, m.key)
			}
		}
	}
	pd.invals.push(appliedInval{n: n, at: at, key: m.key, from: m.from})
}

// logFloor is the lowest ordinal the shared log may still hold.
func (pd *pdesState) logFloor() uint64 {
	if q := &pd.invals; q.head < len(q.items) {
		return q.items[q.head].n
	}
	return pd.ordinal + 1
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

// pdesInbox is one node's end of barrier delivery. A delivery that carries
// a payload — a lock verdict, an invalidation, a shared-NVEM probe reply —
// travels on a pooled record whose fire method is bound once, and the
// kernel gets that method through the ordered delivery lane (sim.Deliver),
// so a barrier allocates nothing. Each record carries its own payload, so
// deliveries may fire in any order. Continuations that carry no payload —
// the grant of a queued lock request, the start of a rerouted arrival —
// are delivered as they are.
type pdesInbox struct {
	pd *pdesState
	e  *node
	s  *sim.Sim // e's kernel

	// synced is the last ordinal whose seq the kernel has taken. spans
	// map the ordinals the shared log may still hold to their seqs; an
	// ordinal no span covers took the seq of its delivery to this node,
	// which held the page.
	synced uint64
	spans  fifo[ordinalSpan]

	// lates lists the late invalidations delivered and not yet fired;
	// free recycles every delivery record. fills counts the reserved slots
	// that became events, for the tests of the late path.
	lates, free *delivery
	fills       int
}

// appliedInval is an entry of the shared log: invalidation n of key,
// sent by node from and landing at at on every kernel.
type appliedInval struct {
	n    uint64
	at   sim.Time
	key  storage.PageKey
	from int
}

// ordinalSpan maps the ordinals first..last to the kernel's consecutive
// seqs from seq on, taken by one Reserve.
type ordinalSpan struct {
	first, last, seq uint64
}

// deliveryKind says what a delivery record carries.
type deliveryKind uint8

const (
	dlvVerdict deliveryKind = iota // t's lock verdict: granted (ok) or deadlock
	dlvInval                       // key's invalidation, to a holder
	dlvLate                        // invalidation n of key, in its reserved slot
	dlvReply                       // a probe's hit (ok) and dirty bit, to k
)

// delivery is one barrier delivery with a payload, pooled on its inbox's
// freelist with fire bound once. A late invalidation also sits on the
// inbox's pending list until it fires.
type delivery struct {
	in        *pdesInbox
	kind      deliveryKind
	t         *txRun
	k         func(hit, dirty bool)
	n         uint64
	key       storage.PageKey
	ok, dirty bool
	fire      func()
	next      *delivery // pending-list or freelist link
}

// landing is the kernel instant a message arriving at arrive takes effect
// on a kernel standing at now: now + (arrive − now), the instant
// Schedule(arrive−now) yields. It equals arrive once now ≥ arrive/2 makes
// the subtraction exact; in a run's first windows it may differ in the
// last bit, and the golden outputs pin the Schedule rounding. Every kernel
// stands at the same instant at a barrier, so the landing is the same on
// each.
func landing(now, arrive sim.Time) sim.Time { return now + (arrive - now) }

// sync takes the seqs of the invalidations applied since the kernel last
// took one, so that its next seq follows them as it would have had each
// been delivered to this node. Every seq use outside the node's own
// events comes after a sync: a barrier delivery to the node, a destage a
// shared-cache put starts on it, the start of a window it runs, a phase
// transition.
func (in *pdesInbox) sync() { in.syncTo(in.pd.ordinal) }

// syncTo takes the seqs of ordinals synced+1..n, dropping the spans the
// shared log no longer needs.
func (in *pdesInbox) syncTo(n uint64) {
	if n <= in.synced {
		return
	}
	for q, floor := &in.spans, in.pd.logFloor(); q.head < len(q.items) && q.items[q.head].last < floor; {
		q.pop()
	}
	in.spans.push(ordinalSpan{first: in.synced + 1, last: n, seq: in.s.Reserve(n - in.synced)})
	in.synced = n
}

// seqOf returns the seq ordinal n took on the kernel, or false when n's
// seq went to its delivery (the node held the page at the barrier).
func (in *pdesInbox) seqOf(n uint64) (uint64, bool) {
	for q, i := &in.spans, in.spans.head; i < len(q.items); i++ {
		if sp := &q.items[i]; sp.first <= n && n <= sp.last {
			return sp.seq + (n - sp.first), true
		}
	}
	return 0, false
}

// deliver hands fn to the node's kernel for a message arriving at arrive.
func (in *pdesInbox) deliver(arrive sim.Time, fn func()) {
	in.sync()
	in.s.Deliver(landing(in.s.Now(), arrive), fn)
}

// get takes a delivery record of kind off the freelist, or allocates one
// with its fire method bound.
func (in *pdesInbox) get(kind deliveryKind) *delivery {
	d := in.free
	if d == nil {
		d = &delivery{in: in}
		d.fire = d.onFire
	} else {
		in.free = d.next
	}
	d.kind = kind
	return d
}

// verdict delivers the global lock manager's verdict on t's request.
func (in *pdesInbox) verdict(arrive sim.Time, t *txRun, ok bool) {
	d := in.get(dlvVerdict)
	d.t, d.ok = t, ok
	in.deliver(arrive, d.fire)
}

// reply delivers a shared-cache probe's verdict to the prober's k.
func (in *pdesInbox) reply(arrive sim.Time, hit, dirty bool, k func(hit, dirty bool)) {
	d := in.get(dlvReply)
	d.k, d.ok, d.dirty = k, hit, dirty
	in.deliver(arrive, d.fire)
}

// invalidate delivers invalidation n of key, which lands at at, to a node
// that holds the page: the event takes the seq n owns on the kernel.
func (in *pdesInbox) invalidate(n uint64, at sim.Time, key storage.PageKey) {
	in.syncTo(n - 1)
	d := in.get(dlvInval)
	d.key = key
	in.s.Deliver(at, d.fire)
	in.synced = n
}

// inserted is the buffer manager's insert notification: key entered main
// memory or the private NVEM cache. Every logged invalidation of key from
// a peer whose slot on this kernel has not passed, and that the node did
// not get as a holder, becomes the event it stood for. Each entry is
// checked on its own: in a run's first windows a landing instant may
// differ from its arrival in the last bit (landing), so the log's order
// bounds only how long an entry stays.
func (in *pdesInbox) inserted(key storage.PageKey) {
	q := &in.pd.invals
	for i := q.head; i < len(q.items); i++ {
		if r := &q.items[i]; r.key == key && r.from != in.e.id {
			in.late(r)
		}
	}
}

// late turns r's slot on this kernel into an event on a pooled record,
// unless the slot has passed, went to a delivery, or is already filled.
// Inside the node's events the kernel owes no seqs; a caller outside them
// may find it owing, so late takes them first.
func (in *pdesInbox) late(r *appliedInval) {
	in.sync()
	seq, reserved := in.seqOf(r.n)
	if !reserved || in.s.Passed(r.at, seq) {
		return
	}
	for d := in.lates; d != nil; d = d.next {
		if d.n == r.n {
			return
		}
	}
	d := in.get(dlvLate)
	d.n, d.key = r.n, r.key
	d.next, in.lates = in.lates, d
	in.fills++
	in.s.DeliverReserved(r.at, seq, d.fire)
}

// onFire returns the record to the freelist, off the pending list if it
// is a late invalidation, and then acts on its payload: the action may
// take the record again (a probe reply's fix inserts a page, which can
// fill a late slot).
func (d *delivery) onFire() {
	in, kind, t, k, key, ok, dirty := d.in, d.kind, d.t, d.k, d.key, d.ok, d.dirty
	if kind == dlvLate {
		p := &in.lates
		for *p != d {
			p = &(*p).next
		}
		*p = d.next
	}
	d.t, d.k = nil, nil
	if poolPoison {
		d.kind, d.n, d.key, d.ok, d.dirty = 0xff, 0, storage.PageKey{Partition: -1, Page: -1}, true, true
	}
	d.next, in.free = in.free, d
	switch kind {
	case dlvVerdict:
		t.onLocked(ok)
	case dlvReply:
		k(ok, dirty)
	default:
		in.e.invalidate(key)
	}
}

// fifo is a first-in first-out queue. Its backing
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
