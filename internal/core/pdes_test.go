package core

import (
	"fmt"
	"math"
	"reflect"
	"strings"
	"testing"

	"repro/internal/cc"
	"repro/internal/sim"
	"repro/internal/storage"
	"repro/internal/workload"
)

// pdesCluster builds a PDES-enabled Debit-Credit cluster over the
// dcCluster template (global locking on, shared NVEM off).
func pdesCluster(t *testing.T, nodes int, aggregateRate float64, workers int) ClusterConfig {
	t.Helper()
	cfg := dcCluster(t, nodes, aggregateRate, false)
	cfg.PDES = PDESConfig{Enabled: true, Workers: workers}
	return cfg
}

// pdesSharedCluster builds a PDES cluster with the cluster-shared NVEM
// cache and the positive access latency that makes it parallelizable.
func pdesSharedCluster(t testing.TB, nodes int, aggregateRate float64, workers int) ClusterConfig {
	t.Helper()
	cfg := dcCluster(t, nodes, aggregateRate, true)
	cfg.PDES = PDESConfig{Enabled: true, Workers: workers}
	cfg.NVEMAccessDelayMS = 0.15
	return cfg
}

// pdesPrivateCluster builds a PDES cluster whose nodes cache pages in
// private NVEM caches under deferred destage, with main memory small
// enough that pages keep migrating between the two.
func pdesPrivateCluster(t *testing.T, nodes int, aggregateRate float64, workers int) ClusterConfig {
	t.Helper()
	cfg := pdesCluster(t, nodes, aggregateRate, workers)
	for i := range cfg.Base.Buffer.Partitions {
		cfg.Base.Buffer.Partitions[i].NVEMCache = true
	}
	cfg.Base.Buffer.BufferSize = 300
	cfg.Base.Buffer.NVEMCacheSize = 600
	cfg.Base.Buffer.NVEMDeferredDestage = true
	return cfg
}

// runPDES executes one PDES cluster run.
func runPDES(t *testing.T, cfg ClusterConfig) *ClusterResult {
	t.Helper()
	res, err := RunCluster(cfg)
	if err != nil {
		t.Fatal(err)
	}
	return res
}

// fanOutModes are the fan-out rules each multi-worker case runs under:
// the default, which keeps thin windows on the coordinator, and
// pdesForceFanOut, which sends every window through the barrier.
var fanOutModes = []bool{false, true}

// runPDESFanOut executes one PDES cluster run, fanning every window out
// to the worker pool when force is set (checkFanOut).
func runPDESFanOut(t *testing.T, cfg ClusterConfig, force bool) *ClusterResult {
	t.Helper()
	pdesForceFanOut = force
	defer func() { pdesForceFanOut = false }()
	c, res, err := runCluster(cfg)
	if err != nil {
		t.Fatal(err)
	}
	checkFanOut(t, c, force)
	return res
}

// fannedOut reports how many windows of the finished PDES cluster c the
// worker pool ran, and how many windows the run had. The barrier's epoch
// counts the windows it ran, plus one for the stop.
func fannedOut(c *cluster) (fanned, windows int) {
	pd := c.net.(*pdesState)
	for now, steps := sim.Time(0), c.phases(); len(steps) > 0; steps = steps[1:] {
		for ; now < steps[0].at; windows++ {
			now = min(now+pd.lookahead, steps[0].at)
		}
	}
	if pd.barrier != nil {
		fanned = int(pd.barrier.epoch.Load()) - 1
	}
	return fanned, windows
}

// checkFanOut logs how many windows of the finished cluster c crossed the
// barrier and, when every window was forced out, fails unless all of them
// did — so a forced run cannot silently stay on the coordinator.
func checkFanOut(t *testing.T, c *cluster, force bool) {
	t.Helper()
	pd := c.net.(*pdesState)
	if pd.barrier == nil {
		return // one worker: there is no pool
	}
	f, w := fannedOut(c)
	if force && f != w {
		t.Fatalf("%d workers, forced fan-out: %d of %d windows crossed the barrier", pd.workers, f, w)
	}
	t.Logf("%d nodes, %d workers, forced fan-out %v: %d of %d windows crossed the barrier",
		len(c.nodes), pd.workers, force, f, w)
}

// TestPDESWorkerCountInvariant is the parallel engine's determinism pin: a
// serial coordinator (Workers = 1) and a parallel one must produce
// identical per-node Results — cross-node state is only touched at
// barriers, in (arrive, sender, send order), independent of which goroutine
// ran which kernel. Each parallel run is made twice, with the default
// fan-out rule and with every window fanned out.
func TestPDESWorkerCountInvariant(t *testing.T) {
	serial := runPDES(t, pdesCluster(t, 3, 300, 1))
	if serial.Cluster.Commits == 0 {
		t.Fatal("PDES run produced no commits")
	}
	if serial.Cluster.LockMsgs == 0 {
		t.Fatal("global locking under PDES produced no messages")
	}
	for _, workers := range []int{2, 4, 0} {
		for _, force := range fanOutModes {
			parallel := runPDESFanOut(t, pdesCluster(t, 3, 300, workers), force)
			for i := range serial.Nodes {
				if !reflect.DeepEqual(serial.Nodes[i], parallel.Nodes[i]) {
					t.Fatalf("workers=%d, forced fan-out %v: node %d diverged from the serial run:\n%+v\nvs\n%+v",
						workers, force, i, parallel.Nodes[i], serial.Nodes[i])
				}
			}
			if got, want := parallel.Report(), serial.Report(); got != want {
				t.Fatalf("workers=%d, forced fan-out %v: report diverged:\n%s\nvs\n%s", workers, force, got, want)
			}
		}
	}
}

// TestPDESFailureWorkerCountInvariant extends the worker-count pin across
// the hardest schedule: a mid-window crash whose arrivals reroute through
// barrier messages, admission shedding on the survivors, in-flight lock
// requests of killed transactions, and redo recovery on the crashed node's
// own kernel.
func TestPDESFailureWorkerCountInvariant(t *testing.T) {
	build := func(workers int) ClusterConfig {
		cfg := pdesCluster(t, 3, 360, workers)
		cfg.Base.Buffer.CheckpointIntervalMS = 1000
		cfg.Failure = FailureConfig{Enabled: true, Node: 1, CrashAtMS: 800, RebootMS: 600}
		cfg.Admission = AdmissionConfig{Enabled: true}
		cfg.TimelineBucketMS = 250
		return cfg
	}
	serial := runPDES(t, build(1))
	if serial.Cluster.Restart == nil {
		t.Fatal("crash injected but no restart report")
	}
	for _, force := range fanOutModes {
		parallel := runPDESFanOut(t, build(4), force)
		for i := range serial.Nodes {
			if !reflect.DeepEqual(serial.Nodes[i], parallel.Nodes[i]) {
				t.Fatalf("forced fan-out %v: node %d diverged across worker counts:\n%+v\nvs\n%+v",
					force, i, parallel.Nodes[i], serial.Nodes[i])
			}
		}
		if got, want := parallel.Report(), serial.Report(); got != want {
			t.Fatalf("forced fan-out %v: failure-run report diverged:\n%s\nvs\n%s", force, got, want)
		}
	}
	// The crashed node's outage must be visible: its arrivals rerouted to
	// the survivors, so it commits strictly less than either of them.
	for _, i := range []int{0, 2} {
		if serial.Nodes[1].Commits >= serial.Nodes[i].Commits {
			t.Fatalf("crashed node committed %d, survivor %d committed %d — no outage visible",
				serial.Nodes[1].Commits, i, serial.Nodes[i].Commits)
		}
	}
}

// TestPDESWorkerCountInvariant256 pins the determinism contract at the
// scale the barrier fast path exists for: 256 kernels, every supported
// worker count, short windows so the pin stays cheap enough for -race CI.
// At 10 TPS per node few kernels are busy in a window, so under the
// default rule nearly every window stays on the coordinator; each
// parallel run is therefore made twice, with the default rule and with
// every window fanned out.
func TestPDESWorkerCountInvariant256(t *testing.T) {
	build := func(workers int) ClusterConfig {
		cfg := pdesCluster(t, 256, 2560, workers)
		cfg.Base.WarmupMS = 150
		cfg.Base.MeasureMS = 300
		return cfg
	}
	serial := runPDES(t, build(1))
	if serial.Cluster.Commits == 0 {
		t.Fatal("256-node PDES run produced no commits")
	}
	for _, workers := range []int{2, 4, 8} {
		for _, force := range fanOutModes {
			parallel := runPDESFanOut(t, build(workers), force)
			for i := range serial.Nodes {
				if !reflect.DeepEqual(serial.Nodes[i], parallel.Nodes[i]) {
					t.Fatalf("workers=%d, forced fan-out %v: node %d diverged from the serial run:\n%+v\nvs\n%+v",
						workers, force, i, parallel.Nodes[i], serial.Nodes[i])
				}
			}
			if got, want := parallel.Report(), serial.Report(); got != want {
				t.Fatalf("workers=%d, forced fan-out %v: report diverged:\n%s\nvs\n%s", workers, force, got, want)
			}
		}
	}
}

// TestPDESCrash256 is the 256-node crash scenario CI runs under the race
// detector: a mid-window crash with rerouted arrivals and redo recovery,
// replayed serially and on the full 8-worker barrier pool. Divergence or
// a data race here means the fast-path barrier broke the contract under
// the hardest schedule at full scale. Its windows are too thin for the
// default fan-out rule, so the 8-worker run is made with the default rule
// and with every window fanned out.
func TestPDESCrash256(t *testing.T) {
	build := func(workers int) ClusterConfig {
		cfg := pdesCluster(t, 256, 2560, workers)
		cfg.Base.WarmupMS = 150
		cfg.Base.MeasureMS = 300
		cfg.Base.Buffer.CheckpointIntervalMS = 200
		cfg.Failure = FailureConfig{Enabled: true, Node: 17, CrashAtMS: 200, RebootMS: 150}
		return cfg
	}
	serial := runPDES(t, build(1))
	if serial.Cluster.Restart == nil {
		t.Fatal("crash injected but no restart report")
	}
	for _, force := range fanOutModes {
		parallel := runPDESFanOut(t, build(8), force)
		for i := range serial.Nodes {
			if !reflect.DeepEqual(serial.Nodes[i], parallel.Nodes[i]) {
				t.Fatalf("forced fan-out %v: node %d diverged across worker counts:\n%+v\nvs\n%+v",
					force, i, parallel.Nodes[i], serial.Nodes[i])
			}
		}
		if got, want := parallel.Report(), serial.Report(); got != want {
			t.Fatalf("forced fan-out %v: 256-node crash report diverged:\n%s\nvs\n%s", force, got, want)
		}
	}
}

// TestPDESSharedNVEMWorkerCountInvariant pins the newest cross-node
// traffic class — shared-NVEM-cache probes, inserts and dirty hand-offs
// travelling as lookahead messages — to the same worker-count contract,
// and checks the shared cache actually serves remote hits under PDES.
func TestPDESSharedNVEMWorkerCountInvariant(t *testing.T) {
	serial := runPDES(t, pdesSharedCluster(t, 3, 300, 1))
	if serial.Cluster.Commits == 0 {
		t.Fatal("shared-NVEM PDES run produced no commits")
	}
	if serial.Cluster.Buffer.NVEMCacheHits == 0 {
		t.Fatal("shared NVEM cache under PDES served no hits")
	}
	if serial.Cluster.Invalidations == 0 {
		t.Fatal("write-invalidate coherence under PDES recorded no invalidations")
	}
	for _, workers := range []int{2, 4, 0} {
		for _, force := range fanOutModes {
			parallel := runPDESFanOut(t, pdesSharedCluster(t, 3, 300, workers), force)
			for i := range serial.Nodes {
				if !reflect.DeepEqual(serial.Nodes[i], parallel.Nodes[i]) {
					t.Fatalf("workers=%d, forced fan-out %v: node %d diverged from the serial run:\n%+v\nvs\n%+v",
						workers, force, i, parallel.Nodes[i], serial.Nodes[i])
				}
			}
			if got, want := parallel.Report(), serial.Report(); got != want {
				t.Fatalf("workers=%d, forced fan-out %v: report diverged:\n%s\nvs\n%s", workers, force, got, want)
			}
		}
	}
}

// TestPDESSharedNVEMRepeatable: the shared-cache configuration renders
// identical reports across two runs (the golden corpus relies on it).
func TestPDESSharedNVEMRepeatable(t *testing.T) {
	a := runPDES(t, pdesSharedCluster(t, 2, 200, 2))
	b := runPDES(t, pdesSharedCluster(t, 2, 200, 2))
	if ar, br := a.Report(), b.Report(); ar != br {
		t.Fatalf("shared-NVEM PDES runs diverged:\n%s\nvs\n%s", ar, br)
	}
}

// TestPDESRepeatable: two PDES runs of one configuration render identical
// reports (the cluster-level determinism the golden corpus relies on).
func TestPDESRepeatable(t *testing.T) {
	a := runPDES(t, pdesCluster(t, 2, 200, 2))
	b := runPDES(t, pdesCluster(t, 2, 200, 2))
	if ar, br := a.Report(), b.Report(); ar != br {
		t.Fatalf("PDES runs diverged:\n%s\nvs\n%s", ar, br)
	}
}

// TestPDESValidate covers the parallel engine's configuration checks.
func TestPDESValidate(t *testing.T) {
	bad := dcCluster(t, 2, 200, true) // shared NVEM cache, no access delay
	bad.PDES = PDESConfig{Enabled: true}
	if _, err := RunCluster(bad); err == nil {
		t.Fatal("PDES with a shared NVEM cache and NVEMAccessDelayMS = 0 must error")
	}
	bad.NVEMAccessDelayMS = -0.1
	if _, err := RunCluster(bad); err == nil {
		t.Fatal("negative NVEMAccessDelayMS must error")
	}
	ok := pdesSharedCluster(t, 2, 200, 1)
	if err := ok.Validate(); err != nil {
		t.Fatalf("PDES with a shared NVEM cache and a positive delay must validate: %v", err)
	}
	bad = pdesCluster(t, 2, 200, -1)
	if _, err := RunCluster(bad); err == nil {
		t.Fatal("negative Workers must error")
	}
}

// quietPDES builds a PDES cluster of nodes nodes over the shared-NVEM
// template, serial, with every arrival stream stopped, so a test drives
// all traffic itself. window runs one barrier and one lookahead window;
// busy reports whether any kernel or outbox still holds work.
func quietPDES(t testing.TB, nodes int) (c *cluster, window func(), busy func() bool) {
	t.Helper()
	c, err := newCluster(pdesSharedCluster(t, nodes, 100*float64(nodes), 1))
	if err != nil {
		t.Fatal(err)
	}
	for _, n := range c.nodes {
		n.stopArrivals = true // the test's traffic is the only traffic
	}
	pd := c.net.(*pdesState)
	now := sim.Time(0)
	window = func() {
		pd.deliver()
		now += pd.lookahead
		pd.runWindow(now)
	}
	busy = func() bool {
		for _, k := range c.kernels {
			if !k.Idle(math.MaxFloat64) { // an event is pending
				return true
			}
		}
		for i := range pd.senders {
			if pd.senders[i].Load() != 0 { // an outbox holds a message
				return true
			}
		}
		return false
	}
	return c, window, busy
}

// deadWhileRunning returns a window function for a quietPDES cluster that
// keeps the test's transactions ts alive while the barrier applies its
// batch, so their lock requests reach the global manager and its grants
// wake them, and dead while the kernels run, so every verdict and grant
// resumes into nothing.
func deadWhileRunning(pd *pdesState, ts ...*txRun) (window func()) {
	mark := func(dead bool) {
		for _, t := range ts {
			t.dead = dead
		}
	}
	mark(true)
	return func() {
		mark(false)
		pd.deliver()
		mark(true)
		pd.runWindow(pd.now + pd.lookahead)
	}
}

// wakeFunc adapts a function to cc.Waiter.
type wakeFunc func()

func (f wakeFunc) Wake() { f() }

// watched is the number of slots node n watches: logged invalidations
// from its peers that it did not get as a holder and has not filled, whose
// slot on its kernel has not passed. It first takes the seqs the kernel
// owes, as a phase transition would.
func watched(n *node) int {
	in := n.inbox
	in.sync()
	k := 0
	for _, r := range in.pd.invals.items[in.pd.invals.head:] {
		if seq, ok := in.seqOf(r.n); r.from != n.id && ok && !in.s.Passed(r.at, seq) && pendingLate(n, r.n) == nil {
			k++
		}
	}
	return k
}

// logged is the number of invalidations in the shared log.
func logged(c *cluster) int {
	q := &c.net.(*pdesState).invals
	return len(q.items) - q.head
}

// pendingLate returns node n's late invalidation of ordinal o that is
// delivered and has not fired, or nil.
func pendingLate(n *node, o uint64) *delivery {
	for l := n.inbox.lates; l != nil; l = l.next {
		if l.n == o {
			return l
		}
	}
	return nil
}

// lateRecords counts the late-invalidation records delivered on every
// node: one per reserved slot a late insert turned into an event.
func lateRecords(c *cluster) int {
	k := 0
	for _, n := range c.nodes {
		k += n.inbox.fills
	}
	return k
}

// TestPDESBarrierDeliveryZeroAlloc pins barrier delivery at zero
// allocations once warm. Each cycle drives the coordinator through a lock
// request the global manager grants, one it queues and grants when a
// release lands, one it refuses as a deadlock, two shared-NVEM probes whose
// replies resume remote fixes (a probe hit and a miss that reads the
// device), and three invalidations. Two of them reach the one peer holding
// the page, which hands a dirty page off, and reserve kernel slots on the
// other peers; the third finds no holder, and one peer fixes the page
// before the invalidation lands, which turns its reserved slot into an
// event.
func TestPDESBarrierDeliveryZeroAlloc(t *testing.T) {
	c, window, busy := quietPDES(t, 4)
	pd := c.net.(*pdesState)

	// Transactions x (node 1) and y (node 2) contend for two granules.
	// Both are dead except while a barrier applies its batch, so their
	// lock traffic reaches the manager but their verdicts and grants
	// resume into nothing, and the cycle measures delivery alone.
	x, y := c.nodes[1].getTx(), c.nodes[2].getTx()
	window = deadWhileRunning(pd, x, y)
	g1, g2 := cc.Granule{ID: 1}, cc.Granule{ID: 2}
	request := func(tx *txRun, g cc.Granule) {
		tx.g, tx.mode = g, cc.Write
		pd.lockRequest(tx)
	}
	// Node 3 fixes two pages through the shared cache, then node 0 writes
	// both: the written page is handed off into the shared cache and hits
	// there next cycle, the clean one is dropped and misses again. Node 0
	// also writes a third page no one holds, and node 2 fixes it while that
	// invalidation is in flight.
	n2, n3 := c.nodes[2], c.nodes[3]
	fixes := 0
	fixed := func() { fixes++ }
	hot := storage.PageKey{Partition: 0, Page: 1}
	cold := storage.PageKey{Partition: 0, Page: 2}
	late := storage.PageKey{Partition: 0, Page: 3}

	cycles := 0
	cycle := func() {
		cycles++
		request(x, g1)
		request(y, g2)
		fixes = 0
		n3.bm.Fix(hot, true, fixed)
		n3.bm.Fix(cold, false, fixed)
		window()
		request(x, g2) // queues behind y
		request(y, g1) // closes the wait-for cycle: deadlock
		window()
		pd.lockRelease(y) // grants x's queued request
		window()
		pd.lockRelease(x)
		for fixes < 2 {
			window()
		}
		pd.invalidate(c.nodes[0], hot)
		pd.invalidate(c.nodes[0], cold)
		pd.invalidate(c.nodes[0], late)
		window() // the barrier reserves slots; the invalidations land later
		n2.bm.Fix(late, false, fixed)
		for busy() {
			window()
		}
	}
	// Warm every freelist, FIFO, lane and event queue first.
	for i := 0; i < 300; i++ {
		cycle()
	}
	allocs := testing.AllocsPerRun(50, cycle)
	locks, buf := c.glocks.Stats(), n3.bm.Stats()
	if locks.Conflicts == 0 || locks.Deadlocks == 0 || buf.NVEMCacheHits == 0 ||
		buf.DeviceReads == 0 || n3.win.dirtyHandoffs == 0 {
		t.Fatalf("cycle skipped a delivery path: locks %+v, buffer %+v, dirty hand-offs %d",
			locks, buf, n3.win.dirtyHandoffs)
	}
	if n2.win.invalidations != int64(cycles) || n2.bm.Holds(late) || lateRecords(c) != cycles {
		t.Fatalf("late invalidations: node 2 counted %d in %d cycles, holds the page %v, %d late records delivered",
			n2.win.invalidations, cycles, n2.bm.Holds(late), lateRecords(c))
	}
	// Node 1 never inserts. It takes its seqs for each cycle's three
	// invalidations when it next syncs, and its spans and the shared log
	// drop them once they land: at most one cycle's three stay.
	n1 := c.nodes[1]
	if spans := len(n1.inbox.spans.items) - n1.inbox.spans.head; cap(n1.inbox.spans.items) == 0 ||
		spans > 3 || logged(c) > 3 {
		t.Fatalf("node 1 took no seqs for invalidations, or kept %d spans and the log %d entries, more than one cycle's",
			spans, logged(c))
	}
	if allocs != 0 {
		t.Fatalf("warm barrier delivery cycle allocates %.2f/op, want 0", allocs)
	}
}

// TestPDESLateInsertInvalidated drives the late-insert path: a peer that
// does not hold the page at the barrier fixes it before the invalidation
// lands, so the reserved slot becomes an event that still drops the copy
// and counts it — exactly what the broadcast did.
func TestPDESLateInsertInvalidated(t *testing.T) {
	defer func() { pdesBroadcast = false }()
	for _, broadcast := range []bool{false, true} {
		pdesBroadcast = broadcast
		c, window, busy := quietPDES(t, 3)
		pdesBroadcast = false
		n1, n2 := c.nodes[1], c.nodes[2]
		page := storage.PageKey{Partition: 0, Page: 7}

		// Sent at 0, the invalidation lands at 0.15; the barrier at 0 finds
		// no holder. Node 1 fixes the page at 0.05, between the two.
		c.net.invalidate(c.nodes[0], page)
		n1.s.Schedule(0.05, func() { n1.bm.Fix(page, false, func() {}) })
		window()
		if !broadcast && (watched(n1) != 0 || watched(n2) != 1) {
			t.Fatalf("at 0.1 nodes 1 and 2 watch %d and %d slots, want 0 (the insert filled it) and 1",
				watched(n1), watched(n2))
		}
		for busy() {
			window()
		}
		if n1.bm.Holds(page) || n1.win.invalidations != 1 || n2.win.invalidations != 0 {
			t.Fatalf("broadcast=%v: node 1 holds the page %v and counted %d invalidations, node 2 %d; want false, 1, 0",
				broadcast, n1.bm.Holds(page), n1.win.invalidations, n2.win.invalidations)
		}
		if !broadcast && lateRecords(c) != 1 {
			t.Fatalf("%d late records delivered, want 1", lateRecords(c))
		}
	}
}

// TestPDESInsertAfterSlotCreatesNoEvent: a peer that fixes the page only
// after its slot has passed keeps its copy, and no event is created for
// the slot.
func TestPDESInsertAfterSlotCreatesNoEvent(t *testing.T) {
	c, window, busy := quietPDES(t, 3)
	n1 := c.nodes[1]
	page := storage.PageKey{Partition: 0, Page: 7}
	c.net.invalidate(c.nodes[0], page) // lands at 0.15
	window()
	window() // both kernels now stand at 0.2
	// The log still holds the invalidation, and node 1 has a slot for it
	// that has passed.
	w := watched(n1)
	seq, ok := n1.inbox.seqOf(1)
	if logged(c) != 1 || !ok || !n1.s.Passed(n1.inbox.pd.invals.items[0].at, seq) || w != 0 {
		t.Fatalf("log holds %d invalidations, node 1 has a slot %v, watches %d; want 1, a passed slot, 0",
			logged(c), ok, w)
	}
	n1.bm.Fix(page, false, func() {})
	if n1.inbox.lates != nil {
		t.Fatal("the insert turned a passed slot into an event")
	}
	window()
	if logged(c) != 0 {
		t.Fatalf("the barrier at 0.2 kept %d landed invalidations logged", logged(c))
	}
	for busy() {
		window()
	}
	if !n1.bm.Holds(page) || n1.win.invalidations != 0 || lateRecords(c) != 0 {
		t.Fatalf("node 1 holds the page %v, counted %d invalidations, %d late records; want true, 0, 0",
			n1.bm.Holds(page), n1.win.invalidations, lateRecords(c))
	}
}

// TestPDESLateSlotFilledOnce: a peer that inserts the page, loses it and
// inserts it again before the invalidation lands gets one event for its
// slot, not one per insert.
func TestPDESLateSlotFilledOnce(t *testing.T) {
	c, window, busy := quietPDES(t, 3)
	n1 := c.nodes[1]
	page := storage.PageKey{Partition: 0, Page: 7}
	c.net.invalidate(c.nodes[0], page) // lands at 0.15
	fix := func() { n1.bm.Fix(page, false, func() {}) }
	n1.s.Schedule(0.05, fix)
	n1.s.Schedule(0.06, func() { n1.bm.Invalidate(page) })
	n1.s.Schedule(0.07, fix)
	window()
	if l := pendingLate(n1, 1); l == nil || l.next != nil {
		t.Fatal("two inserts before the landing did not leave exactly one late event pending")
	}
	for busy() {
		window()
	}
	if n1.bm.Holds(page) || n1.win.invalidations != 1 || lateRecords(c) != 1 {
		t.Fatalf("node 1 holds the page %v, counted %d invalidations, %d late records; want false, 1, 1",
			n1.bm.Holds(page), n1.win.invalidations, lateRecords(c))
	}
}

// filterScenario is a configuration the holder filter is checked on,
// built for a given worker count.
type filterScenario struct {
	name  string
	build func(workers int) ClusterConfig
}

// filterScenarios cover every kind of copy Invalidate drops and the crash
// schedule.
func filterScenarios(t *testing.T) []filterScenario {
	return []filterScenario{
		{"shared NVEM, NOFORCE", func(w int) ClusterConfig {
			return pdesSharedCluster(t, 4, 400, w)
		}},
		{"shared NVEM, FORCE", func(w int) ClusterConfig {
			cfg := pdesSharedCluster(t, 4, 400, w)
			cfg.Base.Buffer.Force = true
			return cfg
		}},
		{"private NVEM caches", func(w int) ClusterConfig {
			return pdesPrivateCluster(t, 4, 400, w)
		}},
		{"256 nodes with a crash", func(w int) ClusterConfig {
			cfg := pdesCluster(t, 256, 2560, w)
			cfg.Base.WarmupMS = 150
			cfg.Base.MeasureMS = 300
			cfg.Base.Buffer.CheckpointIntervalMS = 200
			cfg.Failure = FailureConfig{Enabled: true, Node: 17, CrashAtMS: 200, RebootMS: 150}
			return cfg
		}},
	}
}

// TestPDESInvalidationFilterExact checks the holder filter against the
// broadcast it replaces: with the pdesBroadcast hook every peer counts as
// a holder, so the same code delivers each invalidation to every peer. The
// filtered runs, at 1, 2 and 4 workers, the parallel ones with the default
// fan-out rule and with every window fanned out, must render the
// broadcast's report byte for byte and match it node for node, and must
// have turned invalidation slots into events.
func TestPDESInvalidationFilterExact(t *testing.T) {
	defer func() { pdesBroadcast, pdesForceFanOut = false, false }()
	for _, sc := range filterScenarios(t) {
		pdesBroadcast = true
		_, want, err := runCluster(sc.build(1))
		pdesBroadcast = false
		if err != nil {
			t.Fatal(err)
		}
		if want.Cluster.Invalidations == 0 {
			t.Fatalf("%s: the broadcast run invalidated nothing", sc.name)
		}
		late := 0
		for _, workers := range []int{1, 2, 4} {
			for _, force := range fanOutModes {
				if force && workers == 1 {
					continue // one worker has no pool to fan out to
				}
				pdesForceFanOut = force
				c, got, err := runCluster(sc.build(workers))
				pdesForceFanOut = false
				if err != nil {
					t.Fatal(err)
				}
				checkFanOut(t, c, force)
				if g, w := got.Report(), want.Report(); g != w {
					t.Fatalf("%s, %d workers, forced fan-out %v: the filtered report differs from the broadcast:\n%s\nvs\n%s",
						sc.name, workers, force, g, w)
				}
				for i := range want.Nodes {
					if !reflect.DeepEqual(got.Nodes[i], want.Nodes[i]) {
						t.Fatalf("%s, %d workers, forced fan-out %v: node %d differs from the broadcast:\n%+v\nvs\n%+v",
							sc.name, workers, force, i, got.Nodes[i], want.Nodes[i])
					}
				}
				late += lateRecords(c)
			}
		}
		if late == 0 {
			t.Fatalf("%s: no invalidation slot became an event; the late-insert path went untested", sc.name)
		}
	}
}

// TestPDESOrdinalTie pins the ordinal mapping where seqs alone decide the
// order: two peers' invalidations of two pages and a lock grant land at
// the same instant on node 2, which inserts both pages after the barrier
// that applied them, so both invalidations reach it through late slots
// that tie with the grant. The batch orders the grant between the two
// invalidations, so it must fire between them — seeing page a dropped and
// page b still held — as it does under the broadcast. Node 0 sends one of
// the invalidations and receives the other, as a holder, in the same
// batch.
func TestPDESOrdinalTie(t *testing.T) {
	defer func() { pdesBroadcast = false }()
	run := func(broadcast bool) string {
		pdesBroadcast = broadcast
		c, window, busy := quietPDES(t, 4)
		pdesBroadcast = false
		pd := c.net.(*pdesState)
		n0, n1, n2, n3 := c.nodes[0], c.nodes[1], c.nodes[2], c.nodes[3]
		a, b := storage.PageKey{Partition: 0, Page: 11}, storage.PageKey{Partition: 0, Page: 12}
		fix := func(n *node, at sim.Time, keys ...storage.PageKey) {
			n.s.Schedule(at, func() {
				for _, k := range keys {
					n.bm.Fix(k, false, func() {})
				}
			})
		}
		fix(n0, 0.01, b)

		// Node 1's transaction holds granule g; node 2's waits for it.
		g := cc.Granule{ID: 9}
		holder, waiter := n1.getTx(), n2.getTx()
		if c.glocks.Acquire(&holder.Txn, g, cc.Write) != cc.Granted ||
			c.glocks.Acquire(&waiter.Txn, g, cc.Write) != cc.Wait {
			t.Fatal("granule g was not held by node 1 and awaited by node 2")
		}
		seen := "the grant never fired"
		waiter.granted = func() {
			seen = fmt.Sprintf("grant at %v: node 2 holds a %v, b %v", n2.s.Now(), n2.bm.Holds(a), n2.bm.Holds(b))
		}
		// Sent at 0.22 and 0.27, all three messages arrive at 0.37 and
		// are applied at the barrier at 0.3 in the order a, release, b.
		n0.s.Schedule(0.22, func() { pd.invalidate(n0, a) })
		n3.s.Schedule(0.22, func() { pd.invalidate(n3, b) })
		n1.s.Schedule(0.27, func() { pd.lockRelease(holder) })
		fix(n2, 0.33, a, b)
		for busy() {
			window()
		}
		if !broadcast && lateRecords(c) != 2 {
			t.Fatalf("%d late records delivered, want 2", lateRecords(c))
		}
		return fmt.Sprintf("%s; invalidations %d %d %d %d; node 0 holds b %v; node 2 %+v",
			seen, n0.win.invalidations, n1.win.invalidations, n2.win.invalidations, n3.win.invalidations,
			n0.bm.Holds(b), n2.bm.Stats())
	}
	want := run(true)
	if !strings.HasPrefix(want, "grant at 0.37: node 2 holds a false, b true; invalidations 1 0 2 0; node 0 holds b false") {
		t.Fatalf("the broadcast run did not order the tie as sent: %s", want)
	}
	if got := run(false); got != want {
		t.Fatalf("the filtered run differs from the broadcast:\n%s\nvs\n%s", got, want)
	}
}

// TestPDESFanOutRule pins the default fan-out rule (pdesFanOut): no
// window of a 4-node run leaves the coordinator, and most windows of a
// 256-node run at 50 TPS per node cross the barrier.
func TestPDESFanOutRule(t *testing.T) {
	fanned := func(cfg ClusterConfig) (fanned, windows int) {
		t.Helper()
		c, _, err := runCluster(cfg)
		if err != nil {
			t.Fatal(err)
		}
		return fannedOut(c)
	}
	if f, w := fanned(pdesSharedCluster(t, 4, 400, 4)); f != 0 {
		t.Fatalf("4 nodes: %d of %d windows fanned out, want none", f, w)
	}
	cfg := pdesSharedCluster(t, 256, 256*50, 2)
	cfg.Base.WarmupMS = 100
	cfg.Base.MeasureMS = 200
	if f, w := fanned(cfg); f < w/2 {
		t.Fatalf("256 nodes: %d of %d windows fanned out, want most", f, w)
	} else {
		t.Logf("256 nodes: %d of %d windows fanned out", f, w)
	}
}

// TestPDESResidencyMatchesRecount: after a PDES run with a crash, whose
// buffer clear must uncount every frame, each node's residency counts
// equal a recount of its main memory and private NVEM cache.
func TestPDESResidencyMatchesRecount(t *testing.T) {
	cfg := pdesPrivateCluster(t, 4, 400, 2)
	cfg.Base.Buffer.CheckpointIntervalMS = 500
	cfg.Failure = FailureConfig{Enabled: true, Node: 1, CrashAtMS: 500, RebootMS: 300}
	c, res, err := runCluster(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if res.Cluster.Restart == nil || !res.Cluster.Restart.Recovered {
		t.Fatal("the crashed node did not recover within the run")
	}
	for _, n := range c.nodes {
		if n.bm.MMLen() == 0 || n.bm.Stats().VictimToNVEM == 0 {
			t.Fatalf("node %d holds %d MM pages and moved %d victims into its NVEM cache; the recount is vacuous",
				n.id, n.bm.MMLen(), n.bm.Stats().VictimToNVEM)
		}
		if err := n.bm.VerifyResidency(c.net.(*pdesState).residency, n.id); err != nil {
			t.Fatal(err)
		}
	}
}

// TestPDESBatchOrder pins the order one barrier applies its batch in:
// arrival first, then sender id, then send order. Each node sends
// invalidations at two instants, several per event, so the batch holds
// ties both across senders and within one; node 1 also sends one from the
// coordinator between windows, as a crash-time release is, which ties with
// the messages its kernel sent at the window's end and follows them. The
// shared log lists the applied invalidations in the batch order.
func TestPDESBatchOrder(t *testing.T) {
	c, window, _ := quietPDES(t, 3)
	pd := c.net.(*pdesState)
	type sent struct {
		from int
		page int64
	}
	var early, late []sent // arriving at 0.2 and at 0.25, in the order they must apply
	for _, n := range c.nodes {
		for _, at := range []sim.Time{0.1, 0.05} { // scheduled out of time order
			var pages []int64
			for k := range 3 {
				pages = append(pages, int64(100*n.id+10*int(at*100)+3-k)) // descending within an event
			}
			n.s.Schedule(at, func() {
				for _, p := range pages {
					pd.invalidate(n, storage.PageKey{Page: p})
				}
			})
			for _, p := range pages {
				if at == 0.05 {
					early = append(early, sent{n.id, p})
				} else {
					late = append(late, sent{n.id, p})
				}
			}
		}
	}
	window() // runs [0, 0.1]; every message is still in its outbox
	pd.invalidate(c.nodes[1], storage.PageKey{Page: 1})
	want := append(early, late[:6]...)
	want = append(want, sent{1, 1})
	want = append(want, late[6:]...)
	window() // the barrier at 0.1 applies the batch
	var got []sent
	for _, r := range pd.invals.items[pd.invals.head:] {
		got = append(got, sent{r.from, r.key.Page})
	}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("the barrier applied\n%v\nwant\n%v", got, want)
	}
}

// TestPDESNoSendDuringBatch pins the rule that lets a barrier apply its
// batch where the messages lie, in their outboxes: no dispatch path sends.
// Every PDES run checks it, since send panics while a batch is applied;
// here a waiter whose wake answers with a message must trip that check
// when a release in the batch grants it.
func TestPDESNoSendDuringBatch(t *testing.T) {
	c, window, _ := quietPDES(t, 2)
	pd := c.net.(*pdesState)
	holder, waiter := c.nodes[0].getTx(), c.nodes[1].getTx()
	waiter.Waiter = wakeFunc(func() { pd.lockRelease(waiter) })
	g := cc.Granule{ID: 1}
	if c.glocks.Acquire(&holder.Txn, g, cc.Write) != cc.Granted || c.glocks.Acquire(&waiter.Txn, g, cc.Write) != cc.Wait {
		t.Fatal("granule g was not held by node 0 and awaited by node 1")
	}
	pd.lockRelease(holder)
	defer func() {
		if r := recover(); r == nil || !strings.Contains(fmt.Sprint(r), "applies its batch") {
			t.Fatalf("a send from inside the batch: recovered %v, want the barrier's panic", r)
		}
	}()
	window()
	t.Fatal("the barrier applied a batch whose dispatch sent a message")
}

// TestPDESReusedRecordReleaseFirst: under global locking a transaction
// commits, and its release message, which carries the record, is still in
// flight when the next arrival reuses the record. The release must land
// before the new attempt's first request and release only the old
// attempt's locks, and a waiter on an old lock is granted at the
// release's arrival.
func TestPDESReusedRecordReleaseFirst(t *testing.T) {
	c, window, busy := quietPDES(t, 3)
	pd := c.net.(*pdesState)
	n1, n2 := c.nodes[1], c.nodes[2]
	part := &c.cfg.Base.Partitions[0]
	old := workload.Access{Partition: 0, Object: 0, Write: true}
	fresh := workload.Access{Partition: 0, Object: 5000, Write: true}
	gOld := cc.Granule{Partition: 0, ID: part.PageOf(old.Object)}
	gNew := cc.Granule{Partition: 0, ID: part.PageOf(fresh.Object)}
	if gOld == gNew {
		t.Fatal("the two accesses share a page")
	}

	// Node 1's transaction a writes the old page. When it commits, the next
	// arrival b takes a's record at once and writes the fresh page, then
	// the old one.
	var b *txRun
	commitAt := sim.Time(-1)
	a := n1.newTx(workload.Tx{Accesses: []workload.Access{old}}, func() {
		commitAt = n1.s.Now()
		b = n1.newTx(workload.Tx{Accesses: []workload.Access{fresh, old}}, nil)
		n1.s.Schedule(0, b.begin)
	})
	n1.s.Schedule(0, a.begin)
	// Node 2's transaction w queues on the old page behind a; its grant
	// only records when it lands.
	w := n2.getTx()
	grantAt := sim.Time(-1)
	w.granted = func() { grantAt = n2.s.Now() }
	for i := 0; a.state != txFixed; i++ {
		if i == 10_000 {
			t.Fatal("a never locked the old page")
		}
		window()
	}
	if c.glocks.Acquire(&w.Txn, gOld, cc.Write) != cc.Wait {
		t.Fatal("w did not queue behind a")
	}
	for busy() {
		window()
	}

	if b != a {
		t.Fatal("the next arrival did not reuse the committed record")
	}
	if grantAt != commitAt+pd.lockDelay || grantAt >= b.start {
		t.Fatalf("w granted at %v, b's first verdict at %v; want the release's arrival %v, before it",
			grantAt, b.start, commitAt+pd.lockDelay)
	}
	// b holds the fresh page and waits for the old one behind w.
	var probe cc.Txn
	held := c.glocks.Acquire(&probe, gNew, cc.Read)
	c.glocks.ReleaseAll(&probe)
	if held != cc.Wait || b.i != 1 || b.waitStart <= grantAt {
		t.Fatalf("b: a read of the fresh page reads %v, b's next access is %d, its wait began at %v; want Wait, 1 and after %v",
			held, b.i, b.waitStart, grantAt)
	}
}
