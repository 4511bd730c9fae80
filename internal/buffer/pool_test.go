package buffer

import (
	"testing"

	"repro/internal/storage"
)

// TestBufOpPoolResetContract pins the bufOp freelist reset contract: with
// poolPoison filling freed ops with sentinel garbage, recycled ops must
// behave exactly like fresh ones. A deleted reset line in an issue path
// leaves the poison in place — the sentinel state 0xff panics run(), and a
// stale key/victim corrupts the statistics asserted here.
func TestBufOpPoolResetContract(t *testing.T) {
	poolPoison = true
	defer func() { poolPoison = false }()

	r := newRig(t, baseCfg())
	r.drive(
		// Dirty every op field: three filling misses, then a miss with a
		// dirty victim (synchronous write-back + device read), then a log
		// write. Each recycles at least one op through the freelist.
		fix(r.m, key(0, 1), true),
		fix(r.m, key(0, 2), true),
		fix(r.m, key(0, 3), true),
		fix(r.m, key(0, 4), true),
		writeLog(r.m),
	)
	if r.m.freeOps == nil {
		t.Fatal("completed operations were not returned to the freelist")
	}
	if op := r.m.freeOps; op.state != 0xff || op.key != (storage.PageKey{Partition: -1, Page: -1}) {
		t.Fatalf("freed op not poisoned: state=%d key=%+v", op.state, op.key)
	}

	// Recycle poisoned ops through every hot stage again and verify the
	// outcome is exactly what fresh ops would produce.
	r.drive(
		fix(r.m, key(0, 5), true), // miss, dirty victim
		fix(r.m, key(0, 5), true), // MM hit, no op
		writeLog(r.m),
	)
	st := r.m.Stats()
	if st.DeviceReads != 5 || st.VictimWrites != 2 || st.MMHits != 1 || st.LogWrites != 2 {
		t.Fatalf("recycled ops skewed stats: %+v", st)
	}
	if r.m.MMLen() != 3 {
		t.Fatalf("MM occupancy = %d, want 3", r.m.MMLen())
	}
}

// TestForceOpPoolResetContract recycles the commit-set walker (fcLoop and
// friends) under poison: the second transaction's force set must not see
// the first's keys or cursor.
func TestForceOpPoolResetContract(t *testing.T) {
	poolPoison = true
	defer func() { poolPoison = false }()

	cfg := baseCfg()
	cfg.BufferSize = 8
	cfg.Force = true
	r := newRig(t, cfg)
	r.drive(
		fix(r.m, key(0, 1), true),
		fix(r.m, key(0, 2), true),
		force(r.m, key(0, 1), key(0, 2)),
		// Recycled walker with a different, shorter set; page 2 is already
		// clean, so exactly one more force write must happen.
		fix(r.m, key(0, 3), true),
		force(r.m, key(0, 3), key(0, 2)),
	)
	if st := r.m.Stats(); st.ForceWrites != 3 {
		t.Fatalf("ForceWrites = %d, want 3", st.ForceWrites)
	}
}

// TestGroupCommitWaiterBufferRecycled pins the group-commit waiter-slice
// recycling: after a group flushes, its buffer returns to gcFree and the
// next group reuses it without re-delivering stale continuations.
func TestGroupCommitWaiterBufferRecycled(t *testing.T) {
	poolPoison = true
	defer func() { poolPoison = false }()

	cfg := baseCfg()
	cfg.GroupCommit = true
	cfg.GroupCommitWaitMS = 1
	r := newRig(t, cfg)
	commits := 0
	group := func() {
		for i := 0; i < 3; i++ {
			r.s.Schedule(0, func() {
				r.m.WriteLog(func() { commits++ })
			})
		}
		r.s.RunAll()
	}
	group()
	if len(r.m.gcFree) != 1 {
		t.Fatalf("flushed group's waiter buffer not recycled: gcFree=%d", len(r.m.gcFree))
	}
	group()
	st := r.m.Stats()
	if commits != 6 || st.GroupCommits != 2 || st.LogWrites != 2 {
		t.Fatalf("recycled group misbehaved: commits=%d stats=%+v", commits, st)
	}
	if len(r.m.gcFree) != 1 {
		t.Fatalf("second group's buffer not recycled: gcFree=%d", len(r.m.gcFree))
	}
}

// TestBufferSteadyStateZeroAlloc pins the headline discipline: once the
// freelists and the kernel's event queue are warm, the miss/write-back/
// log cycle — fix with dirty victim, device read, log write — allocates
// nothing. The rig's delays are deterministic, so this is a stable bound,
// not a flaky one.
func TestBufferSteadyStateZeroAlloc(t *testing.T) {
	cfg := baseCfg()
	cfg.BufferSize = 2
	r := newRig(t, cfg)
	noop := func() {}
	cycle := func() {
		for pg := int64(1); pg <= 4; pg++ {
			r.m.Fix(key(0, pg), true, noop)
			r.m.WriteLog(noop)
			r.s.RunAll()
		}
	}
	for i := 0; i < 300; i++ {
		cycle()
	}
	if allocs := testing.AllocsPerRun(50, cycle); allocs != 0 {
		t.Fatalf("steady-state buffer cycle allocates %.2f/op, want 0", allocs)
	}
}

// TestRemoteFixSteadyStateZeroAlloc pins the remote fix path and the
// coherence hand-off at zero allocations once warm: misses probe the
// shared cache over the bus (hits transfer from NVEM, misses read the
// device), victims migrate into it, and invalidating a dirty page hands it
// off in the background.
func TestRemoteFixSteadyStateZeroAlloc(t *testing.T) {
	cfg := Config{
		BufferSize:    2,
		NVEMCacheSize: 3,
		Partitions:    []PartitionAlloc{{DiskUnit: 0, NVEMCache: true, NVEMCacheMode: MigrateAll}},
	}
	r := newRemoteRig(t, cfg, 3)
	noop := func() {}
	cycle := func() {
		for pg := int64(1); pg <= 5; pg++ {
			r.m.Fix(key(0, pg), pg == 4, noop)
			r.s.RunAll()
		}
		r.m.Invalidate(key(0, 4)) // dirty: handed off into the shared cache
		r.m.Invalidate(key(0, 5)) // clean: dropped, so it misses again
		r.s.RunAll()
	}
	for i := 0; i < 300; i++ {
		cycle()
	}
	st := r.m.Stats()
	if st.NVEMCacheHits == 0 || st.DeviceReads == 0 || st.VictimToNVEM == 0 {
		t.Fatalf("cycle skipped a remote-fix path: %+v", st)
	}
	if allocs := testing.AllocsPerRun(50, cycle); allocs != 0 {
		t.Fatalf("steady-state remote fix cycle allocates %.2f/op, want 0", allocs)
	}
}
