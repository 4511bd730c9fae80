package cc

import (
	"cmp"
	"slices"
	"testing"
	"testing/quick"

	"repro/internal/rng"
)

// TestWriteGrantOrderFCFS: conflicting write requests on one granule are
// granted strictly in request order.
func TestWriteGrantOrderFCFS(t *testing.T) {
	f := func(n uint8) bool {
		waiters := int(n%10) + 2
		var granted []int
		m, tx := NewManager(), txns(waiters+1, &granted)
		m.Acquire(tx[1], g(0, 1), Write)
		for i := 2; i <= waiters+1; i++ {
			if m.Acquire(tx[i], g(0, 1), Write) != Wait {
				return false
			}
		}
		// Release one by one; each release grants exactly the next waiter.
		m.ReleaseAll(tx[1])
		for i := 2; i <= waiters+1; i++ {
			m.ReleaseAll(tx[i])
		}
		if len(granted) != waiters {
			return false
		}
		for i, txn := range granted {
			if txn != i+2 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Fatal(err)
	}
}

// TestSingleLockTransactionsNeverDeadlock: transactions that each request
// only one granule can chain but never cycle.
func TestSingleLockTransactionsNeverDeadlock(t *testing.T) {
	type step struct {
		Txn  uint8
		Gran uint8
		W    bool
	}
	f := func(steps []step) bool {
		m, tx := NewManager(), txns(8, nil)
		busy := map[int]bool{} // requested its single lock already
		for _, s := range steps {
			txn := int(s.Txn%8) + 1
			if busy[txn] {
				continue
			}
			mode := Read
			if s.W {
				mode = Write
			}
			if m.Acquire(tx[txn], g(0, int64(s.Gran%8)), mode) == Deadlock {
				return false
			}
			busy[txn] = true
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

// TestOrderedAcquisitionDeadlockFree: when every transaction acquires its
// granules in globally ascending order, no deadlock can occur even with
// FCFS queue edges (holder edges strictly increase the waited-on granule,
// so the wait-for graph cannot cycle). This is the design argument behind
// Debit-Credit's fixed record-type order (section 3.1).
func TestOrderedAcquisitionDeadlockFree(t *testing.T) {
	type step struct {
		Txn   uint8
		Grans [4]uint8
	}
	f := func(steps []step) bool {
		m, tx := NewManager(), txns(6, nil)
		waiting := map[int]bool{}
		highWater := map[int]int64{} // largest granule requested so far
		for _, s := range steps {
			txn := int(s.Txn%6) + 1
			if waiting[txn] {
				continue
			}
			grans := map[int64]bool{}
			for _, raw := range s.Grans {
				grans[int64(raw%16)] = true
			}
			for id := int64(0); id < 16; id++ {
				// Global per-transaction ascending order across all steps.
				if !grans[id] || (highWater[txn] > 0 && id <= highWater[txn]) {
					continue
				}
				highWater[txn] = id
				switch m.Acquire(tx[txn], g(0, id), Write) {
				case Deadlock:
					return false // impossible under ordered acquisition
				case Wait:
					waiting[txn] = true
				}
				if waiting[txn] {
					break
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 150}); err != nil {
		t.Fatal(err)
	}
}

// TestQueueEdgeDeadlock documents that FCFS queue positions create real
// wait-for edges: T1(holds 1) waits on 5; T3 (violating the global order:
// it holds 7) queues on 5 behind T1; T2(holds 5) then requests 7 —
// T2→T3→T1(queue edge)→T2 is a genuine deadlock under strict FCFS, closed
// through a queue position rather than a held lock.
func TestQueueEdgeDeadlock(t *testing.T) {
	m, tx := NewManager(), txns(3, nil)
	if m.Acquire(tx[1], g(0, 1), Write) != Granted {
		t.Fatal("setup")
	}
	if m.Acquire(tx[2], g(0, 5), Write) != Granted {
		t.Fatal("setup")
	}
	if m.Acquire(tx[3], g(0, 2), Write) != Granted {
		t.Fatal("setup")
	}
	if m.Acquire(tx[3], g(0, 7), Write) != Granted {
		t.Fatal("setup")
	}
	if m.Acquire(tx[1], g(0, 5), Write) != Wait {
		t.Fatal("T1 should wait on 5")
	}
	if m.Acquire(tx[3], g(0, 5), Write) != Wait { // out of order: T3 holds 7
		t.Fatal("T3 should queue behind T1")
	}
	// T2 closes the cycle through the queue edge T3→T1.
	if m.Acquire(tx[2], g(0, 7), Write) != Deadlock {
		t.Fatal("FCFS queue deadlock not detected")
	}
}

// TestStrictTwoPhase: no granule is ever available to a conflicting
// requester before the holder's ReleaseAll.
func TestStrictTwoPhase(t *testing.T) {
	m, tx := NewManager(), txns(3, nil)
	m.Acquire(tx[1], g(0, 1), Write)
	m.Acquire(tx[1], g(0, 2), Write)
	// A second transaction conflicts on both.
	if m.Acquire(tx[2], g(0, 1), Read) != Wait {
		t.Fatal("should wait")
	}
	// Nothing 1 does before ReleaseAll may free the lock: acquiring more
	// locks, re-acquiring held ones...
	m.Acquire(tx[1], g(0, 3), Write)
	m.Acquire(tx[1], g(0, 1), Write)
	if m.Holds(tx[2], g(0, 1), Read) {
		t.Fatal("lock leaked before release")
	}
	m.ReleaseAll(tx[1])
	if !m.Holds(tx[2], g(0, 1), Read) {
		t.Fatal("waiter not granted at release")
	}
}

func TestStatsAccumulate(t *testing.T) {
	m, tx := NewManager(), txns(3, nil)
	m.Acquire(tx[1], g(0, 1), Read)
	m.Acquire(tx[1], g(0, 1), Write) // upgrade, sole holder
	m.Acquire(tx[2], g(0, 1), Write) // conflict
	s := m.Stats()
	if s.Requests != 3 || s.Upgrades != 1 || s.Conflicts != 1 {
		t.Fatalf("stats = %+v", s)
	}
}

// TestReleaseOrderLargeLockSet: one transaction takes up to 2,000 granules
// across several partitions in random order, re-requesting some and
// upgrading some from Read to Write, and every granule gets one queued
// waiter. Before release, Holds and HeldCount must agree with a recount of
// what was requested; at release, the waiters must be granted in
// (Partition, ID) order, one per granule.
func TestReleaseOrderLargeLockSet(t *testing.T) {
	s := rng.NewStream(1, "cc-large-lock-set")
	sizes := []int{1, 2, 2000}
	for range 4 {
		sizes = append(sizes, 1+s.Intn(2000))
	}
	for _, n := range sizes {
		var granted []int
		m, tx := NewManager(), txns(1+n, &granted)
		holder := tx[1]

		// n distinct granules over five partitions, in random order.
		gs := make([]Granule, 0, n)
		seen := make(map[Granule]bool, n)
		for len(gs) < n {
			gr := g(s.Intn(5), s.Int63n(1<<40))
			if !seen[gr] {
				seen[gr] = true
				gs = append(gs, gr)
			}
		}
		// Each granule is requested once, a fifth of them twice; the
		// requests run shuffled, so a second request may re-request the
		// same mode, ask for less, or upgrade Read to Write.
		type req struct {
			k    int
			mode Mode
		}
		var reqs []req
		for k := range gs {
			reqs = append(reqs, req{k, Mode(s.Intn(2))})
			if s.Bool(0.2) {
				reqs = append(reqs, req{k, Mode(s.Intn(2))})
			}
		}
		for i := len(reqs) - 1; i > 0; i-- {
			j := s.Intn(i + 1)
			reqs[i], reqs[j] = reqs[j], reqs[i]
		}
		want := make([]Mode, n)
		taken := make([]bool, n)
		var upgrades int64
		for _, r := range reqs {
			if res := m.Acquire(holder, gs[r.k], r.mode); res != Granted {
				t.Fatalf("n=%d: uncontended request %v, want Granted", n, res)
			}
			if taken[r.k] && want[r.k] == Read && r.mode == Write {
				upgrades++
			}
			if !taken[r.k] || r.mode == Write {
				want[r.k] = r.mode
			}
			taken[r.k] = true
		}
		if got := m.Stats().Upgrades; got != upgrades {
			t.Fatalf("n=%d: %d upgrades counted, want %d", n, got, upgrades)
		}

		// One conflicting waiter per granule: a reader behind a writer, a
		// writer behind a reader or writer.
		waiterOf := make(map[int]int, n)
		waiterMode := make([]Mode, n)
		for k, gr := range gs {
			w := 2 + k
			waiterMode[k] = Write
			if want[k] == Write && s.Bool(0.5) {
				waiterMode[k] = Read
			}
			if res := m.Acquire(tx[w], gr, waiterMode[k]); res != Wait {
				t.Fatalf("n=%d: conflicting waiter %v, want Wait", n, res)
			}
			waiterOf[w] = k
		}

		if got := holder.HeldCount(); got != n {
			t.Fatalf("n=%d: HeldCount = %d", n, got)
		}
		for k, gr := range gs {
			if !m.Holds(holder, gr, Read) || m.Holds(holder, gr, Write) != (want[k] == Write) {
				t.Fatalf("n=%d: Holds(%+v) disagrees with requested mode %v", n, gr, want[k])
			}
			if m.Holds(tx[2+k], gr, Read) {
				t.Fatalf("n=%d: queued waiter holds %+v before release", n, gr)
			}
		}
		if m.Holds(holder, g(5, 0), Read) {
			t.Fatalf("n=%d: Holds reports a granule never requested", n)
		}

		m.ReleaseAll(holder)
		if len(granted) != n {
			t.Fatalf("n=%d: %d waiters granted, want %d", n, len(granted), n)
		}
		for i, w := range granted {
			k := waiterOf[w]
			if !m.Holds(tx[w], gs[k], waiterMode[k]) {
				t.Fatalf("n=%d: waiter %d granted but does not hold %+v", n, w, gs[k])
			}
			if i == 0 {
				continue
			}
			prev, cur := gs[waiterOf[granted[i-1]]], gs[k]
			if prev.Partition > cur.Partition || (prev.Partition == cur.Partition && prev.ID >= cur.ID) {
				t.Fatalf("n=%d: grant %d on %+v follows %+v", n, i, cur, prev)
			}
		}
		if holder.HeldCount() != 0 {
			t.Fatalf("n=%d: holder keeps locks after ReleaseAll", n)
		}
		for k := range gs {
			m.ReleaseAll(tx[2+k])
		}
		if m.lockEntries() != 0 {
			t.Fatalf("n=%d: %d lock entries leaked", n, m.lockEntries())
		}
	}
}

// TestReleaseSparseWaiters: one transaction holds up to 2,000 granules
// across several partitions, taken in random order, and a random tenth of
// them get one queued waiter; of the rest, a tenth of those it reads get
// a second reader. Releasing it must grant exactly those waiters, in
// (Partition, ID) order, keep the second readers' holds, and leave no
// entry in the table but theirs and the waiters'.
func TestReleaseSparseWaiters(t *testing.T) {
	s := rng.NewStream(1, "cc-sparse-waiters")
	sizes := []int{1, 10, 2000}
	for range 4 {
		sizes = append(sizes, 1+s.Intn(2000))
	}
	for _, n := range sizes {
		var granted []int
		m, tx := NewManager(), txns(2*n+1, &granted)
		holder := tx[1]
		gs := make([]Granule, 0, n)
		seen := make(map[Granule]bool, n)
		for len(gs) < n {
			gr := g(s.Intn(5), s.Int63n(1<<40))
			if !seen[gr] {
				seen[gr] = true
				gs = append(gs, gr)
			}
		}
		modes := make([]Mode, n)
		for k, gr := range gs {
			modes[k] = Mode(s.Intn(2))
			if res := m.Acquire(holder, gr, modes[k]); res != Granted {
				t.Fatalf("n=%d: uncontended request %v, want Granted", n, res)
			}
		}
		var want []Granule // the waited-for granules
		waiterOf := make(map[int]Granule)
		readerOf := make(map[int]Granule)
		for k, gr := range gs {
			if !s.Bool(0.1) {
				if r := 2 + n + k; modes[k] == Read && s.Bool(0.1) {
					if res := m.Acquire(tx[r], gr, Read); res != Granted {
						t.Fatalf("n=%d: second reader %v, want Granted", n, res)
					}
					readerOf[r] = gr
				}
				continue
			}
			w := 2 + k
			mode := Write
			if modes[k] == Write && s.Bool(0.5) {
				mode = Read
			}
			if res := m.Acquire(tx[w], gr, mode); res != Wait {
				t.Fatalf("n=%d: conflicting waiter %v, want Wait", n, res)
			}
			want = append(want, gr)
			waiterOf[w] = gr
		}
		slices.SortFunc(want, func(a, b Granule) int {
			if c := cmp.Compare(a.Partition, b.Partition); c != 0 {
				return c
			}
			return cmp.Compare(a.ID, b.ID)
		})

		m.ReleaseAll(holder)
		got := make([]Granule, len(granted))
		for i, w := range granted {
			got[i] = waiterOf[w]
			if !m.Holds(tx[w], got[i], Read) {
				t.Fatalf("n=%d: waiter %d granted but does not hold %+v", n, w, got[i])
			}
		}
		if !slices.Equal(got, want) {
			t.Fatalf("n=%d: granted %v, want the waited-for granules in (Partition, ID) order %v", n, got, want)
		}
		if m.lockEntries() != len(want)+len(readerOf) || holder.HeldCount() != 0 {
			t.Fatalf("n=%d: %d lock entries and %d holds of the releaser left, want %d and 0",
				n, m.lockEntries(), holder.HeldCount(), len(want)+len(readerOf))
		}
		for k := range gs {
			if gr, ok := readerOf[2+n+k]; ok && !m.Holds(tx[2+n+k], gr, Read) {
				t.Fatalf("n=%d: the second reader of %+v lost its hold", n, gr)
			}
		}
		for _, w := range granted {
			m.ReleaseAll(tx[w])
		}
		for k := range gs {
			m.ReleaseAll(tx[2+n+k])
		}
		if m.lockEntries() != 0 {
			t.Fatalf("n=%d: %d lock entries leaked", n, m.lockEntries())
		}
	}
}
