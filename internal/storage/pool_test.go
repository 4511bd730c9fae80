package storage

import (
	"testing"

	"repro/internal/sim"
)

// TestDiskOpPoolResetContract pins the diskOp freelist reset contract:
// poolPoison fills freed ops with sentinel garbage (key {-1,-1}, state and
// after 0xff), so a deleted reset line in the issue path surfaces here as
// a panic in run() or a skewed access count, not as silent timing drift.
func TestDiskOpPoolResetContract(t *testing.T) {
	poolPoison = true
	defer func() { poolPoison = false }()

	s := sim.New()
	u, err := NewDiskUnit(s, regularCfg(), testStream())
	if err != nil {
		t.Fatal(err)
	}
	script(s, write(u, key(0, 1)), read(u, key(0, 2)))
	s.RunAll()
	if u.freeOps == nil {
		t.Fatal("completed disk operations were not returned to the freelist")
	}
	if op := u.freeOps; op.key != (PageKey{Partition: -1, Page: -1}) || op.state != 0xff {
		t.Fatalf("freed diskOp not poisoned: key=%+v state=%d", op.key, op.state)
	}

	// Recycle the poisoned ops and verify they serve like fresh ones.
	done := 0
	script(s, read(u, key(0, 3)), write(u, key(0, 4)), func(next func()) { done = 2; next() })
	s.RunAll()
	if done != 2 {
		t.Fatal("recycled ops did not complete their accesses")
	}
	if st := u.Stats(); st.DiskAccesses != 4 {
		t.Fatalf("DiskAccesses = %d, want 4", st.DiskAccesses)
	}
}

// TestDiskUnitSteadyStateZeroAlloc pins the pooled access path: once the
// freelist and the kernel's event queue are warm, read/write cycles on
// a regular unit allocate nothing. Delays are deterministic, so the bound
// is stable.
func TestDiskUnitSteadyStateZeroAlloc(t *testing.T) {
	s := sim.New()
	u, err := NewDiskUnit(s, regularCfg(), testStream())
	if err != nil {
		t.Fatal(err)
	}
	noop := func() {}
	cycle := func() {
		u.Write(key(0, 1), noop)
		u.Read(key(0, 2), noop)
		s.RunAll()
	}
	for i := 0; i < 500; i++ {
		cycle()
	}
	if allocs := testing.AllocsPerRun(50, cycle); allocs != 0 {
		t.Fatalf("steady-state disk cycle allocates %.2f/op, want 0", allocs)
	}
}
