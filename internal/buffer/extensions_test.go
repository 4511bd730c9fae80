package buffer

import (
	"testing"

	"repro/internal/sim"
	"repro/internal/storage"
)

func TestGroupCommitBatchesLogWrites(t *testing.T) {
	cfg := baseCfg()
	cfg.GroupCommit = true
	cfg.GroupCommitWaitMS = 5
	r := newRig(t, cfg)
	done := 0
	// Five transactions commit within one group window.
	for i := 0; i < 5; i++ {
		r.s.Schedule(sim.Time(i), func() {
			r.m.WriteLog(func() { done++ })
		})
	}
	r.s.RunAll()
	if done != 5 {
		t.Fatalf("done = %d", done)
	}
	st := r.m.Stats()
	if st.GroupCommits != 1 {
		t.Fatalf("group commits = %d, want 1", st.GroupCommits)
	}
	if st.LogWrites != 1 {
		t.Fatalf("log writes = %d, want 1 (one I/O for the group)", st.LogWrites)
	}
	if r.unit.Stats().Writes != 1 {
		t.Fatalf("unit writes = %d", r.unit.Stats().Writes)
	}
}

func TestGroupCommitSeparateWindows(t *testing.T) {
	cfg := baseCfg()
	cfg.GroupCommit = true
	cfg.GroupCommitWaitMS = 2
	r := newRig(t, cfg)
	var finish []sim.Time
	for _, at := range []sim.Time{0, 100} { // far apart: two groups
		r.s.Schedule(at, func() {
			r.m.WriteLog(func() { finish = append(finish, r.s.Now()) })
		})
	}
	r.s.RunAll()
	st := r.m.Stats()
	if st.GroupCommits != 2 || st.LogWrites != 2 {
		t.Fatalf("stats = %+v, want two separate groups", st)
	}
	// Each committer waited at least the group window.
	if len(finish) != 2 || finish[0] < 2 || finish[1] < 102 {
		t.Fatalf("finish times %v: group window not respected", finish)
	}
}

func TestGroupCommitValidation(t *testing.T) {
	cfg := baseCfg()
	cfg.GroupCommit = true // missing wait
	if err := cfg.Validate([]string{"p"}, 1); err == nil {
		t.Fatal("group commit without window must error")
	}
	cfg.GroupCommitWaitMS = 5
	cfg.Logging = false
	if err := cfg.Validate([]string{"p"}, 1); err == nil {
		t.Fatal("group commit without logging must error")
	}
}

func TestAsyncReplacementAvoidsSyncVictimWrite(t *testing.T) {
	cfg := baseCfg()
	cfg.AsyncReplacement = true
	r := newRig(t, cfg)
	var missDelay sim.Time
	r.drive(
		fix(r.m, key(0, 1), true),
		fix(r.m, key(0, 2), true),
		fix(r.m, key(0, 3), true),
		timed(r.s, &missDelay, fix(r.m, key(0, 4), false)), // dirty victim handled in background
	)
	st := r.m.Stats()
	if st.VictimWrites != 0 || st.VictimAsync != 1 {
		t.Fatalf("stats = %+v", st)
	}
	if st.AsyncDiskWrites != 1 {
		t.Fatalf("async writes = %d", st.AsyncDiskWrites)
	}
	// Only the read is synchronous: well under two device accesses.
	if missDelay > 60 {
		t.Fatalf("miss delay = %v with async replacement", missDelay)
	}
	if r.unit.Stats().Writes != 1 {
		t.Fatal("victim write never reached the device")
	}
}

func TestDeferredDestageSavesDiskWrites(t *testing.T) {
	// FORCE + NVEM cache: a page forced repeatedly is written to disk once
	// under deferred destage (at NVEM eviction) instead of once per force.
	mk := func(deferred bool) (Stats, storage.DiskUnitStats) {
		cfg := nvemCacheCfg(4, 2)
		cfg.Force = true
		cfg.NVEMDeferredDestage = deferred
		r := newRig(t, cfg)
		var steps []step
		for i := 0; i < 5; i++ {
			steps = append(steps, fix(r.m, key(0, 1), true), force(r.m, key(0, 1)))
		}
		r.drive(append(steps,
			// Evict page 1 from the 2-frame NVEM cache (if cached there).
			fix(r.m, key(0, 2), true),
			force(r.m, key(0, 2)),
			fix(r.m, key(0, 3), true),
			force(r.m, key(0, 3)),
			fix(r.m, key(0, 4), true),
			force(r.m, key(0, 4)),
		)...)
		return r.m.Stats(), r.unit.Stats()
	}
	immStats, immUnit := mk(false)
	defStats, defUnit := mk(true)
	if immUnit.Writes <= defUnit.Writes {
		t.Fatalf("deferred destage must reduce disk writes: immediate=%d deferred=%d",
			immUnit.Writes, defUnit.Writes)
	}
	if defStats.NVEMEvictWrites == 0 {
		t.Fatal("deferred destage never destaged on eviction")
	}
	if immStats.NVEMEvictWrites != 0 {
		t.Fatal("immediate propagation must not destage on eviction")
	}
}

func TestDeferredDestagePromotionKeepsDirty(t *testing.T) {
	// NOFORCE + deferred destage: a dirty page promoted from NVEM to MM
	// must stay dirty, so its modification eventually reaches disk.
	cfg := nvemCacheCfg(2, 4)
	cfg.NVEMDeferredDestage = true
	r := newRig(t, cfg)
	r.drive(
		fix(r.m, key(0, 1), true), // dirty
		fix(r.m, key(0, 2), false),
		fix(r.m, key(0, 3), false), // 1 → NVEM, dirty, NOT destaged
		do(func() {
			if got := r.m.Stats().AsyncDiskWrites; got != 0 {
				t.Errorf("deferred mode destaged immediately (%d writes)", got)
			}
		}),
		fix(r.m, key(0, 1), false), // promote dirty page back to MM
		// Push it out again via a NON-caching... the partition caches, so
		// it goes back to NVEM dirty; instead verify the MM frame is dirty
		// by forcing an eviction chain later. Here we check the promoted
		// frame state indirectly: evict it to NVEM and then evict from NVEM.
		fix(r.m, key(0, 4), false),
		fix(r.m, key(0, 5), false), // fills NVEM with {2,3,1-dirty,4}-ish
		fix(r.m, key(0, 6), false),
		fix(r.m, key(0, 7), false), // NVEM (cap 4) starts evicting
		fix(r.m, key(0, 8), false),
		fix(r.m, key(0, 9), false),
		fix(r.m, key(0, 10), false), // pushes the dirty page out of NVEM
	)
	st := r.m.Stats()
	if st.NVEMEvictWrites == 0 {
		t.Fatal("dirty page never destaged — modification lost")
	}
	if r.unit.Stats().Writes == 0 {
		t.Fatal("no disk write reached the device")
	}
}
