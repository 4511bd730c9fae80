package cc

import "testing"

// TestGlobalMessageAccounting: requests cost a message pair on the
// requesting node, releases one message, and grants route through onGrant
// exactly as with a local manager.
func TestGlobalMessageAccounting(t *testing.T) {
	var granted []TxnID
	g := NewGlobal(2, func(txn TxnID) { granted = append(granted, txn) })
	gr := Granule{Partition: 0, ID: 1}

	if res := g.AcquireFrom(0, 1, gr, Write); res != Granted {
		t.Fatalf("first acquire = %v", res)
	}
	if res := g.AcquireFrom(1, 2, gr, Write); res != Wait {
		t.Fatalf("conflicting acquire = %v", res)
	}
	if g.Messages(0) != 2 || g.Messages(1) != 2 {
		t.Fatalf("messages = %d/%d, want 2/2", g.Messages(0), g.Messages(1))
	}
	g.ReleaseAllFrom(0, 1)
	if len(granted) != 1 || granted[0] != 2 {
		t.Fatalf("granted = %v, want [2]", granted)
	}
	if g.Messages(0) != 3 {
		t.Fatalf("messages(0) = %d after release, want 3", g.Messages(0))
	}
	if total := g.Messages(0) + g.Messages(1); total != 5 {
		t.Fatalf("total messages = %d, want 5", total)
	}
	if st := g.Stats(); st.Requests != 2 || st.Conflicts != 1 {
		t.Fatalf("stats = %+v", st)
	}
	g.ReleaseAllFrom(1, 2)
	g.ResetStats()
	if g.Messages(0) != 0 || g.Messages(1) != 0 || g.Stats() != (Stats{}) {
		t.Fatalf("after reset: messages %d/%d, stats %+v; want all zero", g.Messages(0), g.Messages(1), g.Stats())
	}
}

func TestGlobalRejectsZeroNodes(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("NewGlobal(0, nil) must panic")
		}
	}()
	NewGlobal(0, nil)
}
