package core

import (
	"fmt"
	"math"

	"repro/internal/buffer"
	"repro/internal/cc"
	"repro/internal/recovery"
	"repro/internal/rng"
	"repro/internal/sim"
	"repro/internal/stats"
	"repro/internal/storage"
	"repro/internal/workload"
)

// node is one transaction-processing system: its own CPUs, MPL slots,
// main-memory buffer, lock state and workload arrival streams. Shared
// storage (disk units, NVEM) and cluster-wide concerns (global lock
// manager, buffer coherence) live on the owning cluster; a classic
// single-system run is a cluster of one node.
type node struct {
	c   *cluster
	id  int
	cfg Config
	s   *sim.Sim

	cpu   *sim.Resource
	mpl   *sim.Resource
	nvem  *storage.NVEM
	units []*storage.DiskUnit
	bm    *buffer.Manager
	locks *cc.Manager // local lock manager; nil under global locking
	inbox *pdesInbox  // barrier deliveries of the PDES coordinator; nil otherwise

	// Lifecycle (phase.go, recovery.go). running lists the in-flight
	// attempts in the order they began, which is the order a crash kills
	// them in.
	phase      nodePhase
	nameSuffix string // "" single-node, "/n<id>" in clusters
	running    txList

	// Crash/restart state (recovery.go). peakBeforeCrash preserves the
	// MPL input-queue peak across the crash's resource replacement.
	peakBeforeCrash int
	crashed         bool
	crashedAt       sim.Time
	recoveredAt     sim.Time
	rebootMS        float64
	logScanMS       float64
	redoMS          float64
	redoKeys        []storage.PageKey
	snapAtCrash     recovery.Snapshot
	estimateMS      float64

	// Random streams: one per concern for reproducibility.
	cpuRnd *rng.Stream
	genRnd *rng.Stream
	arrRnd *rng.Stream

	// Measurement. win is the window tally, guarded by warm or zeroed at
	// snapshot (DESIGN.md, measurement-window contract). resp and
	// classResp keep response times for the percentiles; classResp, like
	// win.classes, exists only for multi-class generators, by Tx.Type.
	warm          bool
	warmStartTime sim.Time
	win           tally
	resp          *stats.Summary
	classResp     []*stats.Summary
	stopArrivals  bool

	// Freelists of the transaction hot path: finished txRun records (their
	// processes and pre-bound continuations ride along) and host operations
	// (the synchronous NVEM-transfer / device-I/O sequences). Dead
	// transactions — killed by a crash — are never recycled: their pending
	// kernel events still reference the record.
	freeTx   *txRun
	freeHost *hostOp
}

// poolPoison, when true, fills freed pool records with sentinel garbage so
// a missing reset in a reuse path surfaces in the pool-contract tests.
var poolPoison = false

// Run executes one single-node simulation described by cfg and returns its
// metrics.
func Run(cfg Config) (*Result, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	c, err := newCluster(oneNode(cfg))
	if err != nil {
		return nil, err
	}
	c.runPhases()
	res := c.nodes[0].collect().result(c.window())
	c.attachShared(res)
	c.finish()
	return res, nil
}

// newNode builds node id from Base and generator id, on its kernel, kernel
// id mod len(c.kernels), and that kernel's devices. Stream names carry a
// node suffix only in multi-node runs, so single-node runs draw the exact
// random sequences of the original engine.
func newNode(c *cluster, id int) (*node, error) {
	cfg := c.cfg.Base
	cfg.Generator = c.cfg.Generators[id]
	suffix := func(base string) string {
		if c.cfg.NumNodes == 1 {
			return base
		}
		return fmt.Sprintf("%s/n%d", base, id)
	}
	k := id % len(c.kernels)
	n := &node{
		c:      c,
		id:     id,
		cfg:    cfg,
		s:      c.kernels[k],
		nvem:   c.devs[k].nvem,
		units:  c.devs[k].units,
		win:    tally{cpus: cfg.NumCPU, timelineBucketMS: c.cfg.TimelineBucketMS},
		resp:   stats.NewSummary(),
		cpuRnd: rng.NewStream(cfg.Seed, suffix("cpu")),
		genRnd: rng.NewStream(cfg.Seed, suffix("workload")),
		arrRnd: rng.NewStream(cfg.Seed, suffix("arrivals")),
	}
	if c.cfg.NumNodes > 1 {
		n.nameSuffix = fmt.Sprintf("/n%d", id)
	}
	n.cpu = n.s.NewResource(suffix("cpu"), cfg.NumCPU)
	n.mpl = n.s.NewResource(suffix("mpl"), cfg.MPL)
	if err := c.net.attach(n); err != nil {
		return nil, err
	}
	if c.glocks == nil {
		n.locks = cc.NewManager()
	}

	// Per-class accounting only exists when classes can actually share the
	// node — single-type generators keep the exact scalar path (and byte-
	// identical reports).
	if nt := cfg.Generator.NumTypes(); nt > 1 {
		n.win.classes = make([]classTally, nt)
		n.classResp = make([]*stats.Summary, nt)
		for i := range n.win.classes {
			name, _ := cfg.Generator.TypeInfo(i)
			n.win.classes[i].name = name
			n.classResp[i] = stats.NewSummary()
		}
	}

	// Arrival processes, one per transaction type.
	for i := 0; i < cfg.Generator.NumTypes(); i++ {
		_, rate := cfg.Generator.TypeInfo(i)
		n.win.offeredTPS += rate
		if err := n.spawnArrivals(i); err != nil {
			return nil, err
		}
	}
	return n, nil
}

// newBuffer builds the node's buffer manager on its devices. The cluster's
// shared NVEM cache, if any, is reached over bus, or directly when bus is
// nil.
func (e *node) newBuffer(bus buffer.RemoteNVEMCache) (*buffer.Manager, error) {
	names := make([]string, len(e.cfg.Partitions))
	for i := range e.cfg.Partitions {
		names[i] = e.cfg.Partitions[i].Name
	}
	return buffer.NewShared(e.cfg.Buffer, names, e.units, e.nvem, e, e.c.shared, bus)
}

// classOf returns the window tally's class slot for a transaction type,
// or nil on a single-class node (or for a type index outside the
// generator's declared range, which trace replay in common-rate mode
// produces).
func (e *node) classOf(typeIdx int) *classTally {
	if typeIdx < 0 || typeIdx >= len(e.win.classes) {
		return nil
	}
	return &e.win.classes[typeIdx]
}

// --- buffer.Host implementation ---

// instrTime converts an exponentially drawn instruction count to CPU
// milliseconds (MIPS = thousand instructions per millisecond).
func (e *node) instrTime(meanInstr float64) sim.Time {
	return e.cpuRnd.Exp(meanInstr) / (e.cfg.MIPS * 1000)
}

// cpuBurst runs an exponentially distributed instruction burst on a CPU,
// then k. The burst length is drawn when the burst is issued (before any
// CPU queueing), matching the paper's open queueing model.
func (e *node) cpuBurst(meanInstr float64, k func()) {
	e.cpu.Use(e.instrTime(meanInstr), k)
}

// IOOverhead implements buffer.Host: the CPU pathlength of one I/O.
func (e *node) IOOverhead(k func()) { e.cpuBurst(e.cfg.InstrIO, k) }

// hostOp stages.
const (
	hoNVAcq    uint8 = iota // CPU acquired: hold the NVEM instruction overhead
	hoNVAccess              // overhead held: perform the NVEM access
	hoIOAcq                 // CPU acquired: hold the I/O instruction overhead
	hoDev                   // overhead held: run the device access
	hoDone                  // access complete: release the CPU, continue
)

// hostOp is one CPU-synchronous host operation — an NVEM page transfer or
// a synchronous device I/O — pooled per node. The step continuation is
// bound once at allocation and serves the CPU grant too; the
// instruction-time draws happen exactly where the closure formulation drew
// them (after the CPU is acquired), so the random sequences are unchanged.
type hostOp struct {
	e     *node
	k     func()
	unit  *storage.DiskUnit // a synchronous device I/O's unit, page and direction
	key   storage.PageKey
	write bool
	state uint8
	step  func()
	next  *hostOp
}

func (e *node) getHostOp() *hostOp {
	op := e.freeHost
	if op == nil {
		op = &hostOp{e: e}
		op.step = op.run
		return op
	}
	e.freeHost = op.next
	op.next = nil
	return op
}

func (e *node) putHostOp(op *hostOp) {
	op.k, op.unit = nil, nil
	if poolPoison {
		op.state = 0xff
	}
	op.next = e.freeHost
	e.freeHost = op
}

// run advances the host operation by one stage.
func (op *hostOp) run() {
	e := op.e
	switch op.state {
	case hoNVAcq:
		op.state = hoNVAccess
		e.s.Schedule(e.instrTime(e.cfg.InstrNVEM), op.step)
	case hoNVAccess:
		op.state = hoDone
		e.nvem.Access(op.step)
	case hoIOAcq:
		op.state = hoDev
		e.s.Schedule(e.instrTime(e.cfg.InstrIO), op.step)
	case hoDev:
		op.state = hoDone
		if op.write {
			op.unit.Write(op.key, op.step)
		} else {
			op.unit.Read(op.key, op.step)
		}
	case hoDone:
		e.cpu.Release()
		k := op.k
		e.putHostOp(op)
		k()
	default:
		panic(fmt.Sprintf("core: hostOp in invalid state %d", op.state))
	}
}

// SyncDeviceIO implements buffer.Host: the whole device access runs with
// the CPU held (AccessMode=synchronous, Table 3.3).
func (e *node) SyncDeviceIO(unit *storage.DiskUnit, key storage.PageKey, write bool, k func()) {
	op := e.getHostOp()
	op.k, op.unit, op.key, op.write = k, unit, key, write
	op.state = hoIOAcq
	e.cpu.Acquire(op.step)
}

// NVEMTransfer implements buffer.Host: a synchronous NVEM page transfer —
// the CPU stays busy for the instruction overhead AND the transfer itself
// (a process switch would cost more than the 50µs delay, section 2).
func (e *node) NVEMTransfer(k func()) {
	op := e.getHostOp()
	op.k = k
	op.state = hoNVAcq
	e.cpu.Acquire(op.step)
}

// Sim implements buffer.Host.
func (e *node) Sim() *sim.Sim { return e.s }

// --- lock integration ---

// Wake implements cc.Waiter: the lock manager granted t's queued request.
// A global grant resumes t over the interconnect, a local one at once. A
// record a crash killed wakes into nothing: crashNow marks every in-flight
// record dead before it releases any lock, so the grants its releases fire
// schedule nothing for the node's own waiters.
func (t *txRun) Wake() {
	if t.dead {
		return
	}
	if t.e.c.glocks != nil {
		t.e.c.net.lockGrant(t)
		return
	}
	t.e.s.Schedule(0, t.granted)
}

// requestLock starts the next access: it maps the access's object to its
// page, requests the lock and continues through onLocked with the
// outcome: false on deadlock (the caller must abort). On a conflict the
// continuation is deferred until the lock manager grants the queued
// request. Under global locking the request first pays the message
// pathlength (state txLockMsg) and then travels to the cluster-wide lock
// manager over the interconnect.
func (t *txRun) requestLock() {
	e := t.e
	acc := &t.tx.Accesses[t.i]
	t.page = e.cfg.Partitions[acc.Partition].PageOf(acc.Object)
	granularity := e.cfg.CCModes[acc.Partition]
	if granularity == cc.NoCC {
		t.onLocked(true)
		return
	}
	id := t.page
	if granularity == cc.ObjectLevel {
		id = acc.Object
	}
	mode := cc.Read
	if acc.Write {
		mode = cc.Write
	}
	g := cc.Granule{Partition: acc.Partition, ID: id}
	if e.c.glocks != nil {
		t.g, t.mode = g, mode
		t.state = txLockMsg
		e.cpuBurst(e.c.cfg.InstrLockMsg, t.resume)
		return
	}
	if ok, decided := t.verdict(e.locks.Acquire(&t.Txn, g, mode), e.s.Now()); decided {
		t.onLocked(ok)
	}
}

// landLockRequest lands t's global lock request at the cluster-wide lock
// manager at instant at and reads the verdict like verdict. A crash while
// the request was in flight killed the transaction, whose locks are
// already released; its request must not reach the manager, where nobody
// would ever release it, and is left undecided.
func (t *txRun) landLockRequest(at sim.Time) (ok, decided bool) {
	if t.dead {
		return false, false
	}
	e := t.e
	e.win.lockMsgs += 2 // the request and its response
	return t.verdict(e.c.glocks.Acquire(&t.Txn, t.g, t.mode), at)
}

// verdict reads a lock manager's verdict on t's request, reached at
// instant at. A granted request is decided ok, a deadlock decided not ok
// (t must abort). A queued request is undecided: t waits for the grant
// (Wake), and the wait counts from at.
func (t *txRun) verdict(res cc.Result, at sim.Time) (ok, decided bool) {
	switch res {
	case cc.Granted:
		return true, true
	case cc.Wait:
		t.waitStart = at
		return false, false
	default: // cc.Deadlock
		return false, true
	}
}

// onGranted resumes a conflicted lock request once the manager grants it,
// crediting the wait to the lock-wait statistic. A wait straddling the
// warmup boundary is only credited its in-window part.
func (t *txRun) onGranted() {
	e := t.e
	if e.warm {
		start := t.waitStart
		if start < e.warmStartTime {
			start = e.warmStartTime
		}
		e.win.lockWaitSum += e.s.Now() - start
	}
	t.onLocked(true)
}

// releaseLocks releases the transaction's locks at the local lock
// manager, or over the interconnect at the global one.
func (t *txRun) releaseLocks() {
	if t.e.c.glocks != nil {
		t.e.c.net.lockRelease(t)
		return
	}
	t.e.locks.ReleaseAll(&t.Txn)
}

// --- workload arrival and transaction execution ---

func (e *node) spawnArrivals(typeIdx int) error {
	if e.cfg.Arrival.Kind == workload.ArrivalClosedLoop {
		// Closed loop: no rate clock — completions schedule arrivals, so
		// the stream exists even at a zero configured rate.
		e.spawnTerminals(typeIdx)
		return nil
	}
	_, rate := e.cfg.Generator.TypeInfo(typeIdx)
	if rate <= 0 {
		return nil
	}
	// One arrival-process instance per stream (processes carry state, e.g.
	// the MMPP state machine). Window-relative spec parameters are anchored
	// at the end of warm-up, the same clock FailureConfig.CrashAtMS uses.
	proc, err := e.cfg.Arrival.NewProcess(rate, e.cfg.WarmupMS)
	if err != nil {
		return err
	}
	// arrive is the one closure the whole arrival stream reuses: each
	// firing admits a transaction and schedules itself after the gap the
	// arrival process draws. The first gap is drawn in a +0 event.
	var arrive func()
	arrive = func() {
		if e.stopArrivals {
			return
		}
		tx := e.cfg.Generator.Next(typeIdx, e.genRnd)
		if len(tx.Accesses) > 0 {
			e.admitArrival(tx)
		}
		e.s.Schedule(proc.NextGapMS(e.s.Now(), e.arrRnd), arrive)
	}
	e.s.Schedule(0, func() { e.s.Schedule(proc.NextGapMS(e.s.Now(), e.arrRnd), arrive) })
	return nil
}

// spawnTerminals starts the closed-loop arrival mode for one transaction
// type: Terminals emulated users, each cycling think → submit → (completion)
// → think. The think time is exponential with mean ThinkMS, drawn from the
// arrival stream like open-loop gaps; the transaction itself comes from the
// workload stream, exactly as in the open-loop path. Closed-loop arrivals
// never hit the MaxQueue drop: the terminal population is the admission
// limit, and a "dropped" terminal would silently shrink it for the rest of
// the run.
func (e *node) spawnTerminals(typeIdx int) {
	spec := &e.cfg.Arrival
	e.win.terminals += spec.Terminals
	e.win.thinkMS = spec.ThinkMS
	for ti := 0; ti < spec.Terminals; ti++ {
		var think func()
		submit := func() {
			if e.stopArrivals {
				return
			}
			tx := e.cfg.Generator.Next(typeIdx, e.genRnd)
			if len(tx.Accesses) == 0 {
				think()
				return
			}
			e.startTx(tx, think)
		}
		think = func() {
			if e.stopArrivals {
				return
			}
			e.s.Schedule(e.arrRnd.Exp(spec.ThinkMS), submit)
		}
		e.s.Schedule(0, think)
	}
}

// admitArrival routes one arrival: run it locally, drop it when the input
// queue is full, or — while this node is down — reroute it to a surviving
// node (clients reconnect).
func (e *node) admitArrival(tx workload.Tx) {
	switch {
	case e.phase != nodeRunning:
		e.c.net.reroute(e, tx)
	case e.mpl.QueueLen() >= e.cfg.MaxQueue:
		e.drop(tx.Type)
	default:
		e.startTx(tx, nil)
	}
}

// drop counts an arrival of type typ lost to a full input queue or an
// unavailable cluster. Like commits and aborts, lost arrivals count only
// inside the measurement window.
func (e *node) drop(typ int) {
	if e.warm {
		e.win.dropped++
		if c := e.classOf(typ); c != nil {
			c.dropped++
		}
	}
}

// shedArrival counts a rerouted arrival of type typ the admission
// controller shed.
func (e *node) shedArrival(typ int) {
	if e.warm {
		e.win.shed++
		if c := e.classOf(typ); c != nil {
			c.shed++
		}
	}
}

// txState names the continuation a txRun resumes into when its pending
// simulated delay elapses. A transaction has exactly one pending
// continuation at any instant, so a single dispatch closure plus this state
// tag replaces a fresh closure per blocking call.
type txState uint8

const (
	txStep     txState = iota // run the next access (or enter commit)
	txFixed                   // page fix completed
	txPhase1                  // EOT burst done: log + force writes
	txLogged                  // log write durable
	txFinish                  // force writes done: release and finish
	txLockMsg                 // lock-request pathlength charged: send it
	txLockSent                // round trip elapsed: deliver to the manager
	txAborted                 // release pathlength charged: release, retry
)

// txRun is one transaction's resumable state machine. Its continuations are
// bound once at allocation (instead of allocating fresh closures per access
// and per commit phase) and advance it through MPL admission, lock acquisition,
// page fixes and the two commit phases, restarting on deadlock aborts
// (access invariance: the restarted transaction repeats the same accesses).
// It carries its lock state (cc.Txn) and is the waiter the lock manager
// wakes on a grant.
type txRun struct {
	cc.Txn
	e       *node
	tx      workload.Tx
	arrival sim.Time
	fixTime sim.Time // cumulative I/O wait across all attempts
	start   sim.Time // current fix start
	i       int      // next access index
	page    int64    // access i's page, mapped when the access starts
	// Pending global lock request (txLockMsg/txLockSent); mode shares a
	// word with the flags below.
	g       cc.Granule
	mode    cc.Mode
	state   txState
	relPaid bool // release-message pathlength charged (global locking)
	// dead marks a transaction killed by its node's crash: its locks are
	// already released and every later continuation must fall through
	// (pending kernel events cannot be unscheduled). Dead records are
	// never recycled.
	dead bool
	// done, when non-nil, runs after commit phase 2 releases the MPL slot
	// — the closed-loop completion hook that puts the submitting terminal
	// back into its think phase.
	done func()

	waitStart sim.Time // the start of the current conflicted wait

	// mod is the reusable modified-page scratch ForcePages reads; valid
	// until the commit's force writes finish, rebuilt per commit.
	mod []storage.PageKey

	// Pre-bound continuations, bound once when the record is first
	// allocated and reused across its whole pooled lifetime: a method
	// value allocates each time it is taken.
	begin    func()
	admitted func()
	resume   func()
	granted  func()
	next     *txRun // freelist link

	// prevRun and nextRun link the record into its node's running list
	// while an attempt runs.
	prevRun, nextRun *txRun
}

// txList is a doubly linked list of transaction records, through their
// prevRun and nextRun links.
type txList struct{ head, tail *txRun }

// push appends t at the tail.
func (l *txList) push(t *txRun) {
	t.prevRun = l.tail
	if l.tail != nil {
		l.tail.nextRun = t
	} else {
		l.head = t
	}
	l.tail = t
}

// remove unlinks t.
func (l *txList) remove(t *txRun) {
	if t.prevRun != nil {
		t.prevRun.nextRun = t.nextRun
	} else {
		l.head = t.nextRun
	}
	if t.nextRun != nil {
		t.nextRun.prevRun = t.prevRun
	} else {
		l.tail = t.prevRun
	}
	t.prevRun, t.nextRun = nil, nil
}

// getTx pops a recycled transaction record (resetting the per-transaction
// state its last run left behind) or allocates one with its continuations
// bound.
func (e *node) getTx() *txRun {
	t := e.freeTx
	if t == nil {
		t = &txRun{e: e}
		t.Waiter = t
		t.begin = t.onBegin
		t.admitted = t.onAdmitted
		t.resume = t.dispatch
		t.granted = t.onGranted
		return t
	}
	e.freeTx = t.next
	t.next = nil
	t.fixTime, t.start = 0, 0
	t.dead = false
	return t
}

// putTx recycles a finished (never a dead) transaction record. It leaves
// the lock handle (cc.Txn) alone, poison or not: under PDES the commit's
// release message may still be in flight, carrying the record, when the
// record is reused. That is safe because the reused record's first lock
// request is sent later, at the same LockMsgDelayMS, from the same node,
// so the batch order (arrive, sender, position) applies the release
// first, and the new attempt starts from a handle that holds nothing.
func (e *node) putTx(t *txRun) {
	t.done = nil
	t.tx = workload.Tx{}
	if poolPoison {
		t.arrival, t.fixTime, t.start, t.waitStart = -1, -1, -1, -1
		t.i, t.page = -1, -1
		t.state = txState(0xff)
		t.relPaid, t.dead = true, true
		t.g = cc.Granule{Partition: -1, ID: -1}
		for i := range t.mod {
			t.mod[i] = storage.PageKey{Partition: -1, Page: -1}
		}
	}
	t.mod = t.mod[:0]
	t.next = e.freeTx
	e.freeTx = t
}

// startTx launches one transaction on a pooled record: one +0 kernel
// event, whose slot in the event order the goldens pin. done (when
// non-nil) runs after the transaction commits and frees its MPL slot.
func (e *node) startTx(tx workload.Tx, done func()) {
	e.s.Schedule(0, e.newTx(tx, done).begin)
}

// newTx readies a pooled record to run tx; its begin continuation starts
// the transaction (a PDES reroute delivers it at the message's arrival).
func (e *node) newTx(tx workload.Tx, done func()) *txRun {
	t := e.getTx()
	t.tx = tx
	t.done = done
	return t
}

// onBegin runs at the transaction's arrival instant: request admission.
func (t *txRun) onBegin() {
	t.arrival = t.e.s.Now()
	t.e.mpl.Acquire(t.admitted)
}

// dispatch resumes the state the transaction parked in. A transaction
// killed by a crash resumes into nothing.
func (t *txRun) dispatch() {
	if t.dead {
		return
	}
	switch t.state {
	case txStep:
		t.doStep()
	case txFixed:
		t.onFixed()
	case txPhase1:
		t.doCommitPhase1()
	case txLogged:
		t.onLogged()
	case txFinish:
		t.finish()
	case txLockMsg:
		t.e.c.net.lockRequest(t)
	case txLockSent:
		if ok, decided := t.landLockRequest(t.e.s.Now()); decided {
			t.onLocked(ok)
		}
	case txAborted:
		t.finishAbort()
	default:
		panic(fmt.Sprintf("core: txRun in invalid state %d", t.state))
	}
}

// onAdmitted starts the first attempt once an MPL slot is granted.
func (t *txRun) onAdmitted() {
	if t.dead {
		return
	}
	t.beginAttempt()
}

// beginAttempt starts one execution attempt at the tail of the node's
// running list. The BOT burst guarantees simulated time advances between
// attempts.
func (t *txRun) beginAttempt() {
	t.i = 0
	t.state = txStep
	t.relPaid = false
	t.e.running.push(t)
	t.e.cpuBurst(t.e.cfg.InstrBOT, t.resume)
}

// doStep processes the next access, or enters commit once all are done.
func (t *txRun) doStep() {
	if t.i == len(t.tx.Accesses) {
		t.state = txPhase1
		t.e.cpuBurst(t.e.cfg.InstrEOT, t.resume)
		return
	}
	t.requestLock()
}

// onLocked continues after the lock decision: fix the page, or abort on
// deadlock. In a multi-node cluster a write fix first invalidates every
// other node's copy of the page (write-invalidate coherence).
func (t *txRun) onLocked(ok bool) {
	if t.dead {
		return
	}
	if !ok {
		t.abort() // deadlock victim
		return
	}
	acc := &t.tx.Accesses[t.i]
	key := storage.PageKey{Partition: acc.Partition, Page: t.page}
	if acc.Write && t.e.c.cfg.NumNodes > 1 {
		t.e.c.net.invalidate(t.e, key)
	}
	t.start = t.e.s.Now()
	t.state = txFixed
	t.e.bm.Fix(key, acc.Write, t.resume)
}

// onFixed accounts the fix delay and runs the per-access CPU burst. A fix
// straddling the warmup boundary is only credited its in-window part.
func (t *txRun) onFixed() {
	if t.e.warm {
		start := t.start
		if start < t.e.warmStartTime {
			start = t.e.warmStartTime
		}
		t.fixTime += t.e.s.Now() - start
	}
	t.i++
	t.state = txStep
	t.e.cpuBurst(t.e.cfg.InstrOR, t.resume)
}

// abort releases everything and retries the whole transaction. Under
// global locking the release message's pathlength is charged first.
func (t *txRun) abort() {
	if t.e.warm {
		t.e.win.aborts++
		if c := t.e.classOf(t.tx.Type); c != nil {
			c.aborts++
		}
	}
	if t.e.c.glocks != nil {
		// A crash during the release burst already released the locks (the
		// attempt was still on the running list); dispatch's dead check
		// drops the continuation then.
		t.state = txAborted
		t.e.cpuBurst(t.e.c.cfg.InstrLockMsg, t.resume)
		return
	}
	t.finishAbort()
}

// finishAbort releases the aborted attempt's locks and retries.
func (t *txRun) finishAbort() {
	t.releaseLocks()
	t.e.running.remove(t)
	t.beginAttempt()
}

// doCommitPhase1 runs after the EOT burst: log write and forced page writes
// for update transactions.
func (t *txRun) doCommitPhase1() {
	if !t.tx.Update() {
		t.finish()
		return
	}
	t.state = txLogged
	t.e.bm.WriteLog(t.resume)
}

// onLogged forces modified pages under FORCE, then finishes.
func (t *txRun) onLogged() {
	if t.e.cfg.Buffer.Force {
		t.state = txFinish
		t.e.bm.ForcePages(t.modifiedPages(), t.resume)
		return
	}
	t.finish()
}

// finish is commit phase 2: release locks, record measurements, free the
// MPL slot. Under global locking the release message's CPU pathlength is
// charged before the locks drop.
func (t *txRun) finish() {
	e := t.e
	if e.c.glocks != nil && !t.relPaid {
		t.relPaid = true
		t.state = txFinish
		e.cpuBurst(e.c.cfg.InstrLockMsg, t.resume)
		return
	}
	t.releaseLocks()
	e.running.remove(t)
	if e.warm {
		rt := e.s.Now() - t.arrival
		e.win.commits++
		e.win.respSum += rt
		e.win.ioWaitSum += t.fixTime
		e.resp.Add(rt)
		e.recordCommit(e.s.Now())
		if c := e.classOf(t.tx.Type); c != nil {
			c.commits++
			c.respSum += rt
			e.classResp[t.tx.Type].Add(rt)
		}
	}
	e.mpl.Release()
	done := t.done
	e.putTx(t)
	if done != nil {
		done()
	}
}

// recordCommit adds one committed transaction to the node's availability
// timeline (no-op unless the cluster configured a bucket width).
func (e *node) recordCommit(now sim.Time) {
	if e.c.cfg.TimelineBucketMS <= 0 {
		return
	}
	idx := int((now - e.warmStartTime) / e.c.cfg.TimelineBucketMS)
	if idx < 0 {
		return
	}
	for len(e.win.timeline) <= idx {
		e.win.timeline = append(e.win.timeline, 0)
	}
	e.win.timeline[idx]++
}

// modifiedPages returns the distinct pages the transaction wrote, in
// first-write order, in the record's reusable scratch (transactions write
// a handful of pages, so the linear dedup beats a fresh map).
func (t *txRun) modifiedPages() []storage.PageKey {
	out := t.mod[:0]
outer:
	for i := range t.tx.Accesses {
		acc := &t.tx.Accesses[i]
		if !acc.Write {
			continue
		}
		page := t.e.cfg.Partitions[acc.Partition].PageOf(acc.Object)
		key := storage.PageKey{Partition: acc.Partition, Page: page}
		for _, k := range out {
			if k == key {
				continue outer
			}
		}
		out = append(out, key)
	}
	t.mod = out
	return out
}

// --- measurement ---

// snapshot opens the measurement window: counters guarded by warm start
// accumulating, and the counters the node's components keep — buffer,
// partition and lock stats, the CPU busy and MPL queue integrals, the MPL
// queue's peak, and the lock-message and coherence counts — restart from
// zero, so collect reads window values directly.
func (e *node) snapshot() {
	e.warm = true
	e.warmStartTime = e.s.Now()
	e.bm.ResetStats()
	if e.locks != nil {
		e.locks.ResetStats()
	}
	e.cpu.ResetStats()
	e.mpl.ResetStats()
	e.win.lockMsgs, e.win.invalidations, e.win.dirtyHandoffs = 0, 0, 0
}

// collect completes the node's window tally from its components'
// counters, once, when the window closes. Shared-device reports (disk
// units, NVEM utilization) are the cluster's (attachShared).
func (e *node) collect() *tally {
	t := &e.win
	t.respP95 = e.resp.Percentile(0.95)
	for i := range t.classes {
		t.classes[i].respP95 = e.classResp[i].Percentile(0.95)
	}
	t.cpuBusy = e.cpu.BusyIntegral()
	// Saturation over the measured window. Open loop: drops are
	// window-only, and the peak queue length (not the instantaneous
	// end-of-run length, which a single lucky drain can hide) marks
	// sustained overload. A crash replaced the MPL resource, so the
	// pre-crash peak rides along. The half-MaxQueue threshold rounds up:
	// plain integer division would make it 0 for MaxQueue <= 1, flagging
	// such configs saturated even when the queue never forms.
	//
	// A closed loop can reach neither signal — terminals never drop, and
	// at most `terminals` transactions exist, usually far below MaxQueue —
	// so saturation is read off the sustained MPL occupancy instead: the
	// time-averaged input-queue length over the window, i.e. the mean
	// number of terminals waiting for an MPL slot. When half the terminal
	// population queues behind the MPL, response time is dominated by the
	// queue and adding terminals only adds waiting — the closed-loop
	// meaning of "offered load exceeds capacity".
	if t.terminals > 0 {
		t.mplQueue = e.mpl.QueueIntegral()
		t.saturated = t.terminalWaitFrac(e.c.window()) >= 0.5
	} else {
		peakQueue := max(e.mpl.PeakQueueLen(), e.peakBeforeCrash)
		t.saturated = t.dropped > 0 || peakQueue >= (e.cfg.MaxQueue+1)/2
	}

	t.buffer = e.bm.Stats()
	for i, p := range e.bm.PartitionStats() {
		t.parts = append(t.parts, PartitionReport{Name: e.cfg.Partitions[i].Name,
			Fixes: p.Fixes, MMHits: p.MMHits, NVEMHits: p.NVEMHits})
	}
	if e.locks != nil {
		t.locks = e.locks.Stats()
	}
	if t.timelineBucketMS > 0 {
		// Pad to the full window, a trailing partial bucket included, so
		// every run of one configuration reports the same number of
		// buckets wherever its last commit landed.
		for len(t.timeline) < int(math.Ceil(e.c.cfg.Base.MeasureMS/t.timelineBucketMS)) {
			t.timeline = append(t.timeline, 0)
		}
	}
	return t
}
