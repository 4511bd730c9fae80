package cc

import "testing"

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

	m := NewManager(nil)
	g := Granule{Partition: 1, ID: 42}
	// Dirty every field of the entry: shared holders plus a queued writer.
	m.Acquire(1, g, Read)
	m.Acquire(2, g, Read)
	if r := m.Acquire(3, g, Write); r != Wait {
		t.Fatalf("writer behind readers: %v, want Wait", r)
	}
	m.ReleaseAll(1)
	m.ReleaseAll(2) // writer granted
	m.ReleaseAll(3) // entry empties: poisoned and freed
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
	if r := m.Acquire(7, g2, Write); r != Granted {
		t.Fatalf("acquire on recycled entry: %v, want Granted", r)
	}
	e := m.entry(g2)
	if e != freed || e.granule != g2 {
		t.Fatalf("recycled entry %p carries granule %+v, want %p with %+v", e, e.granule, freed, g2)
	}
	if len(e.holders) != 1 || e.holders[0] != (holder{txn: 7, mode: Write}) {
		t.Fatalf("recycled entry carries stale holders: %+v", e.holders)
	}
	if len(e.queue) != 0 {
		t.Fatalf("recycled entry carries stale queue: %+v", e.queue)
	}
	if m.HeldCount(7) != 1 || !m.Holds(7, g2, Write) {
		t.Fatalf("recycled held list corrupt: count=%d", m.HeldCount(7))
	}
	// Poisoned queue capacity must not leak into conflict decisions.
	if r := m.Acquire(8, g2, Read); r != Wait {
		t.Fatalf("conflicting read on recycled entry: %v, want Wait", r)
	}
	m.ReleaseAll(7)
	if !m.Holds(8, g2, Read) {
		t.Fatal("queued reader not granted after recycled writer released")
	}
	m.ReleaseAll(8)
	if m.lockEntries() != 0 {
		t.Fatalf("%d lock entries leaked", m.lockEntries())
	}
}

// TestLockManagerSteadyStateZeroAlloc pins the headline discipline: once
// the freelists are warm, an acquire-all/release-all transaction cycle
// allocates nothing.
func TestLockManagerSteadyStateZeroAlloc(t *testing.T) {
	m := NewManager(nil)
	txn := TxnID(0)
	allocs := testing.AllocsPerRun(100, func() {
		txn++
		for g := int64(0); g < 8; g++ {
			m.Acquire(txn, Granule{Partition: 0, ID: g}, Write)
		}
		m.ReleaseAll(txn)
	})
	if allocs != 0 {
		t.Fatalf("steady-state lock cycle allocates %.0f/op, want 0", allocs)
	}
}
