package cc

import (
	"slices"
	"testing"
)

// TestLockEntryPoolResetContract pins the freelist reset contract: a
// recycled granule record and a recycled held-lock list must present fully
// clean state to their next user. poolPoison overwrites a freed record's
// granule and fills its backing arrays with sentinel garbage, so if any
// reset line in newEntry is deleted, the stale granule, holders or queue
// become visible here. A released held-lock list is cleared whether or not
// poisoning is on: it must keep no pointer to an entry that may be freed
// and reused for another granule.
func TestLockEntryPoolResetContract(t *testing.T) {
	poolPoison = true
	defer func() { poolPoison = false }()

	m, tx := NewManager(), txns(8, nil)
	g := Granule{Partition: 1, ID: 42}
	// Dirty every field of the entry: shared holders plus a queued writer.
	m.Acquire(tx[1], g, Read)
	m.Acquire(tx[2], g, Read)
	if r := m.Acquire(tx[3], g, Write); r != Wait {
		t.Fatalf("writer behind readers: %v, want Wait", r)
	}
	m.ReleaseAll(tx[1])
	m.ReleaseAll(tx[2]) // writer granted
	m.ReleaseAll(tx[3]) // entry empties: poisoned and freed
	if len(m.freeEntries) == 0 {
		t.Fatal("emptied entry was not returned to the freelist")
	}
	freed := m.freeEntries[len(m.freeEntries)-1]
	if freed.granule != (Granule{Partition: -1, ID: -1}) {
		t.Fatalf("freed entry keeps its granule %+v", freed.granule)
	}
	if m.entry(g) != nil || m.lockEntries() != 0 {
		t.Fatalf("emptied entry still in the lock table (%d entries)", m.lockEntries())
	}
	if len(m.freeHeld) == 0 {
		t.Fatal("released held-lock lists were not returned to the freelist")
	}
	for i, l := range m.freeHeld {
		for j, e := range l[:cap(l)] {
			if e != nil {
				t.Fatalf("recycled held list %d keeps a pointer to %+v in slot %d", i, e.granule, j)
			}
		}
	}

	// Recycle onto a different granule for a different transaction.
	g2 := Granule{Partition: 2, ID: 7}
	if r := m.Acquire(tx[7], g2, Write); r != Granted {
		t.Fatalf("acquire on recycled entry: %v, want Granted", r)
	}
	e := m.entry(g2)
	if e != freed || e.granule != g2 {
		t.Fatalf("recycled entry %p carries granule %+v, want %p with %+v", e, e.granule, freed, g2)
	}
	if len(e.holders) != 1 || e.holders[0] != (holder{txn: tx[7], mode: Write}) {
		t.Fatalf("recycled entry carries stale holders: %+v", e.holders)
	}
	if len(e.queue) != 0 {
		t.Fatalf("recycled entry carries stale queue: %+v", e.queue)
	}
	if tx[7].HeldCount() != 1 || !m.Holds(tx[7], g2, Write) {
		t.Fatalf("recycled held list corrupt: count=%d", tx[7].HeldCount())
	}
	// Poisoned queue capacity must not leak into conflict decisions.
	if r := m.Acquire(tx[8], g2, Read); r != Wait {
		t.Fatalf("conflicting read on recycled entry: %v, want Wait", r)
	}
	m.ReleaseAll(tx[7])
	if !m.Holds(tx[8], g2, Read) {
		t.Fatal("queued reader not granted after recycled writer released")
	}
	m.ReleaseAll(tx[8])
	if m.lockEntries() != 0 {
		t.Fatalf("%d lock entries leaked", m.lockEntries())
	}
}

// TestLockManagerSteadyStateZeroAlloc pins the headline discipline: once
// the freelists are warm, an acquire-all/release-all transaction cycle
// allocates nothing.
func TestLockManagerSteadyStateZeroAlloc(t *testing.T) {
	m, txn := NewManager(), &Txn{}
	allocs := testing.AllocsPerRun(100, func() {
		for g := int64(0); g < 8; g++ {
			m.Acquire(txn, Granule{Partition: 0, ID: g}, Write)
		}
		m.ReleaseAll(txn)
	})
	if allocs != 0 {
		t.Fatalf("steady-state lock cycle allocates %.0f/op, want 0", allocs)
	}
}

// TestTxnReuse pins the handle's contract: after ReleaseAll a Txn holds
// nothing and waits on nothing, and it acquires again exactly as a fresh
// Txn does, whether it held locks, was released while queued or got a
// deadlock verdict. The script's last request closes a cycle through a
// transaction the search just before it visited, so it also pins that a
// deadlock search never takes an earlier search's stamps for its own.
func TestTxnReuse(t *testing.T) {
	g1, g2 := g(0, 1), g(0, 2)
	// run drives a, b and c through the script, then releases them in
	// the order b, c, a, and returns the verdicts and grants.
	run := func(m *Manager, a, b, c *Txn, granted *[]int) []Result {
		var got []Result
		for _, r := range []struct {
			txn *Txn
			g   Granule
		}{
			{a, g1}, {b, g2},
			{a, g2}, // a waits for b; the search visits b
			{c, g1}, // c waits behind a; the search visits a and b
			{b, g1}, // b → c → a → b: the search must visit a again
		} {
			got = append(got, m.Acquire(r.txn, r.g, Write))
		}
		for _, txn := range []*Txn{b, c, a} {
			m.ReleaseAll(txn)
			if txn.HeldCount() != 0 || txn.waitsOn != nil {
				t.Fatalf("after ReleaseAll a handle holds %d locks and waits on %v", txn.HeldCount(), txn.waitsOn)
			}
		}
		if m.lockEntries() != 0 {
			t.Fatalf("%d lock entries left after the script", m.lockEntries())
		}
		*granted = append(*granted, -1) // ends the round
		return got
	}

	var wantGrants []int
	fresh := txns(3, &wantGrants)
	want := run(NewManager(), fresh[1], fresh[2], fresh[3], &wantGrants)
	if !slices.Equal(want, []Result{Granted, Granted, Wait, Wait, Deadlock}) || !slices.Equal(wantGrants, []int{1, -1}) {
		t.Fatalf("fresh handles: verdicts %v, grants %v; want [0 0 1 1 2] and [1 -1]", want, wantGrants)
	}

	// The first round leaves a handle that held locks (1), one released
	// while queued (3) and one that got a deadlock verdict (2). Each later
	// round hands every handle another role, on the same manager.
	var grants []int
	m, tx := NewManager(), txns(3, &grants)
	for round, roles := range [][3]int{{1, 2, 3}, {3, 1, 2}, {2, 3, 1}, {1, 2, 3}} {
		grants = grants[:0]
		got := run(m, tx[roles[0]], tx[roles[1]], tx[roles[2]], &grants)
		wantRound := []int{roles[0], -1}
		if !slices.Equal(got, want) || !slices.Equal(grants, wantRound) {
			t.Fatalf("round %d: verdicts %v, grants %v; want %v and %v", round, got, grants, want, wantRound)
		}
	}
}
