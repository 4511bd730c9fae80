package cc

import (
	"testing"
	"testing/quick"
)

func g(p int, id int64) Granule { return Granule{Partition: p, ID: id} }

// testTxn is a transaction with an index, which it records when a queued
// request of it is granted.
type testTxn struct {
	Txn
	id      int
	granted *[]int
}

func (t *testTxn) Wake() {
	if t.granted != nil {
		*t.granted = append(*t.granted, t.id)
	}
}

// txns returns transactions 0..n, the one at index i indexed i, each
// appending its index to *granted on a grant (granted may be nil).
func txns(n int, granted *[]int) []*Txn {
	ts := make([]*Txn, n+1)
	for i := range ts {
		t := &testTxn{id: i, granted: granted}
		t.Waiter = t
		ts[i] = &t.Txn
	}
	return ts
}

// lockEntries returns how many granules have a lock-table entry.
func (m *Manager) lockEntries() int { return m.locks.Len() }

// entry returns g's lock-table entry, or nil if g has none.
func (m *Manager) entry(g Granule) *lockEntry {
	e, _ := m.locks.Get(g)
	return e
}

func TestReadLocksShared(t *testing.T) {
	m, tx := NewManager(), txns(3, nil)
	if m.Acquire(tx[1], g(0, 1), Read) != Granted {
		t.Fatal("first read not granted")
	}
	if m.Acquire(tx[2], g(0, 1), Read) != Granted {
		t.Fatal("second read not granted")
	}
	if !m.Holds(tx[1], g(0, 1), Read) || !m.Holds(tx[2], g(0, 1), Read) {
		t.Fatal("holders not recorded")
	}
}

func TestWriteExcludes(t *testing.T) {
	var granted []int
	m, tx := NewManager(), txns(3, &granted)
	if m.Acquire(tx[1], g(0, 1), Write) != Granted {
		t.Fatal("first write not granted")
	}
	if m.Acquire(tx[2], g(0, 1), Write) != Wait {
		t.Fatal("conflicting write did not wait")
	}
	if m.Acquire(tx[3], g(0, 1), Read) != Wait {
		t.Fatal("conflicting read did not wait")
	}
	m.ReleaseAll(tx[1])
	if len(granted) != 1 || granted[0] != 2 {
		t.Fatalf("grant order = %v, want [2] (FCFS)", granted)
	}
	m.ReleaseAll(tx[2])
	if len(granted) != 2 || granted[1] != 3 {
		t.Fatalf("grant order = %v, want [2 3]", granted)
	}
}

func TestFCFSNoStarvation(t *testing.T) {
	// A read arriving after a queued write must not jump the queue even
	// though it is compatible with the current read holders.
	m, tx := NewManager(), txns(3, nil)
	m.Acquire(tx[1], g(0, 1), Read)
	if m.Acquire(tx[2], g(0, 1), Write) != Wait {
		t.Fatal("write should wait")
	}
	if m.Acquire(tx[3], g(0, 1), Read) != Wait {
		t.Fatal("read must queue behind waiting write")
	}
}

func TestBatchReadGrant(t *testing.T) {
	var granted []int
	m, tx := NewManager(), txns(3, &granted)
	m.Acquire(tx[1], g(0, 1), Write)
	m.Acquire(tx[2], g(0, 1), Read)
	m.Acquire(tx[3], g(0, 1), Read)
	m.ReleaseAll(tx[1])
	if len(granted) != 2 {
		t.Fatalf("granted = %v, want both reads at once", granted)
	}
}

func TestReacquireHeldLock(t *testing.T) {
	m, tx := NewManager(), txns(3, nil)
	m.Acquire(tx[1], g(0, 1), Write)
	if m.Acquire(tx[1], g(0, 1), Write) != Granted {
		t.Fatal("re-acquire of held write must be granted")
	}
	if m.Acquire(tx[1], g(0, 1), Read) != Granted {
		t.Fatal("read under held write must be granted")
	}
	if got := m.Stats().Requests; got != 3 {
		t.Fatalf("requests = %d", got)
	}
}

func TestUpgradeSoleHolder(t *testing.T) {
	m, tx := NewManager(), txns(3, nil)
	m.Acquire(tx[1], g(0, 1), Read)
	if m.Acquire(tx[1], g(0, 1), Write) != Granted {
		t.Fatal("sole-holder upgrade must be granted")
	}
	if !m.Holds(tx[1], g(0, 1), Write) {
		t.Fatal("upgrade not recorded")
	}
	if m.Stats().Upgrades != 1 {
		t.Fatal("upgrade not counted")
	}
}

func TestUpgradeWaitsForOtherReaders(t *testing.T) {
	var granted []int
	m, tx := NewManager(), txns(3, &granted)
	m.Acquire(tx[1], g(0, 1), Read)
	m.Acquire(tx[2], g(0, 1), Read)
	if m.Acquire(tx[1], g(0, 1), Write) != Wait {
		t.Fatal("upgrade with other reader must wait")
	}
	m.ReleaseAll(tx[2])
	if len(granted) != 1 || granted[0] != 1 {
		t.Fatalf("granted = %v, want [1]", granted)
	}
	if !m.Holds(tx[1], g(0, 1), Write) {
		t.Fatal("upgrade not completed")
	}
}

func TestUpgradeHasPriorityOverQueuedWrites(t *testing.T) {
	var granted []int
	m, tx := NewManager(), txns(3, &granted)
	m.Acquire(tx[1], g(0, 1), Read)
	m.Acquire(tx[2], g(0, 1), Read)
	if m.Acquire(tx[3], g(0, 1), Write) != Wait {
		t.Fatal("fresh write must wait")
	}
	if m.Acquire(tx[1], g(0, 1), Write) != Wait {
		t.Fatal("upgrade must wait for reader 2")
	}
	m.ReleaseAll(tx[2])
	// Upgrade (txn 1) must be granted before the earlier-queued write (3).
	if len(granted) == 0 || granted[0] != 1 {
		t.Fatalf("granted = %v, want upgrade first", granted)
	}
	m.ReleaseAll(tx[1])
	if granted[len(granted)-1] != 3 {
		t.Fatalf("granted = %v, want 3 last", granted)
	}
}

func TestDeadlockDetected(t *testing.T) {
	m, tx := NewManager(), txns(3, nil)
	m.Acquire(tx[1], g(0, 1), Write)
	m.Acquire(tx[2], g(0, 2), Write)
	if m.Acquire(tx[1], g(0, 2), Write) != Wait {
		t.Fatal("1 should wait for 2")
	}
	// 2 requesting 1's lock closes the cycle: 2 must be refused.
	if m.Acquire(tx[2], g(0, 1), Write) != Deadlock {
		t.Fatal("deadlock not detected")
	}
	if m.Stats().Deadlocks != 1 {
		t.Fatal("deadlock not counted")
	}
	// Victim aborts: releasing its locks lets 1 proceed.
	m.ReleaseAll(tx[2])
	if !m.Holds(tx[1], g(0, 2), Write) {
		t.Fatal("survivor not granted after victim release")
	}
}

func TestThreeWayDeadlock(t *testing.T) {
	m, tx := NewManager(), txns(3, nil)
	m.Acquire(tx[1], g(0, 1), Write)
	m.Acquire(tx[2], g(0, 2), Write)
	m.Acquire(tx[3], g(0, 3), Write)
	if m.Acquire(tx[1], g(0, 2), Write) != Wait {
		t.Fatal("1→2 should wait")
	}
	if m.Acquire(tx[2], g(0, 3), Write) != Wait {
		t.Fatal("2→3 should wait")
	}
	if m.Acquire(tx[3], g(0, 1), Write) != Deadlock {
		t.Fatal("three-way cycle not detected")
	}
}

func TestUpgradeDeadlock(t *testing.T) {
	// Two readers both upgrading: classic conversion deadlock.
	m, tx := NewManager(), txns(3, nil)
	m.Acquire(tx[1], g(0, 1), Read)
	m.Acquire(tx[2], g(0, 1), Read)
	if m.Acquire(tx[1], g(0, 1), Write) != Wait {
		t.Fatal("first upgrade should wait")
	}
	if m.Acquire(tx[2], g(0, 1), Write) != Deadlock {
		t.Fatal("second upgrade must be a deadlock")
	}
}

func TestNoFalseDeadlock(t *testing.T) {
	m, tx := NewManager(), txns(3, nil)
	m.Acquire(tx[1], g(0, 1), Write)
	if m.Acquire(tx[2], g(0, 1), Write) != Wait {
		t.Fatal("should wait")
	}
	// 3 waiting on the same lock is a chain, not a cycle.
	if m.Acquire(tx[3], g(0, 1), Write) != Wait {
		t.Fatal("chain misreported as deadlock")
	}
}

func TestAbortWhileWaiting(t *testing.T) {
	var granted []int
	m, tx := NewManager(), txns(3, &granted)
	m.Acquire(tx[1], g(0, 1), Write)
	m.Acquire(tx[2], g(0, 1), Write)
	m.Acquire(tx[3], g(0, 1), Write)
	// 2 aborts while queued; its request must vanish.
	m.ReleaseAll(tx[2])
	m.ReleaseAll(tx[1])
	if len(granted) != 1 || granted[0] != 3 {
		t.Fatalf("granted = %v, want [3]", granted)
	}
}

func TestReleaseAllClearsEverything(t *testing.T) {
	m, tx := NewManager(), txns(3, nil)
	m.Acquire(tx[1], g(0, 1), Write)
	m.Acquire(tx[1], g(0, 2), Read)
	m.Acquire(tx[1], g(1, 1), Write)
	if tx[1].HeldCount() != 3 {
		t.Fatalf("held = %d", tx[1].HeldCount())
	}
	m.ReleaseAll(tx[1])
	if tx[1].HeldCount() != 0 {
		t.Fatal("locks remain after ReleaseAll")
	}
	if m.lockEntries() != 0 {
		t.Fatalf("%d lock entries leaked", m.lockEntries())
	}
}

func TestDistinctGranulesIndependent(t *testing.T) {
	m, tx := NewManager(), txns(3, nil)
	if m.Acquire(tx[1], g(0, 1), Write) != Granted {
		t.Fatal("not granted")
	}
	if m.Acquire(tx[2], g(0, 2), Write) != Granted {
		t.Fatal("different page must be independent")
	}
	if m.Acquire(tx[3], g(1, 1), Write) != Granted {
		t.Fatal("different partition must be independent")
	}
}

func TestConflictCounter(t *testing.T) {
	m, tx := NewManager(), txns(3, nil)
	m.Acquire(tx[1], g(0, 1), Write)
	m.Acquire(tx[2], g(0, 1), Write)
	m.Acquire(tx[3], g(0, 2), Write)
	s := m.Stats()
	if s.Requests != 3 || s.Conflicts != 1 {
		t.Fatalf("stats = %+v", s)
	}
}

// Property: under random workloads, at most one Write holder per granule,
// never Read+Write holders coexisting, and all entries drain when every
// transaction releases.
func TestLockInvariants(t *testing.T) {
	type op struct {
		Txn  uint8
		Page uint8
		Mode uint8
	}
	f := func(ops []op) bool {
		m, tx := NewManager(), txns(8, nil)
		active := map[int]bool{}
		waiting := map[int]bool{}
		for _, o := range ops {
			txn := int(o.Txn%8) + 1
			if waiting[txn] {
				continue // a waiting txn cannot issue more requests
			}
			mode := Read
			if o.Mode%2 == 1 {
				mode = Write
			}
			gr := g(0, int64(o.Page%16))
			switch m.Acquire(tx[txn], gr, mode) {
			case Granted:
				active[txn] = true
			case Wait:
				active[txn] = true
				waiting[txn] = true
			case Deadlock:
				m.ReleaseAll(tx[txn])
				delete(active, txn)
			}
			// Check mutual exclusion invariant on every entry.
			for page := int64(0); page < 16; page++ {
				e := m.entry(g(0, page))
				if e == nil {
					continue
				}
				writers, readers := 0, 0
				for _, held := range e.holders {
					if held.mode == Write {
						writers++
					} else {
						readers++
					}
				}
				if writers > 1 || (writers == 1 && readers > 0) {
					return false
				}
			}
		}
		// Drain: release every transaction; grants may cascade. A waiter
		// that is granted leaves the waiting set — simulate by releasing
		// repeatedly until the table is empty.
		for i := 0; i < 16; i++ {
			for txn := 1; txn <= 8; txn++ {
				m.ReleaseAll(tx[txn])
			}
		}
		return m.lockEntries() == 0
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 150}); err != nil {
		t.Fatal(err)
	}
}

func TestAcquireWhileWaitingPanics(t *testing.T) {
	m, tx := NewManager(), txns(3, nil)
	m.Acquire(tx[1], g(0, 1), Write)
	m.Acquire(tx[2], g(0, 1), Write) // 2 now waits
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	m.Acquire(tx[2], g(0, 2), Read)
}
