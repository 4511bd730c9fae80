package buffer

import (
	"testing"

	"repro/internal/rng"
	"repro/internal/sim"
	"repro/internal/storage"
)

// twoNodeRig builds two buffer managers that share one disk unit, one NVEM
// store and one shared NVEM second-level cache — the buffer-level shape of
// a two-node data-sharing cluster.
func twoNodeRig(t *testing.T, bufferSize, sharedFrames int) (s *sim.Sim, a, b *Manager, shared *SharedNVEMCache) {
	t.Helper()
	s = sim.New()
	unit, err := storage.NewDiskUnit(s, storage.DiskUnitConfig{
		Name: "u0", Type: storage.Regular,
		NumControllers: 4, ContrDelay: 1, TransDelay: 0.4,
		NumDisks: 4, DiskDelay: 15,
	}, rng.NewStream(1, "unit"))
	if err != nil {
		t.Fatal(err)
	}
	nvem, err := storage.NewNVEM(s, 1, 0.05)
	if err != nil {
		t.Fatal(err)
	}
	shared, err = NewSharedNVEMCache(sharedFrames)
	if err != nil {
		t.Fatal(err)
	}
	cfg := Config{
		BufferSize:    bufferSize,
		Logging:       false,
		NVEMCacheSize: sharedFrames,
		Partitions:    []PartitionAlloc{{DiskUnit: 0, NVEMCache: true, NVEMCacheMode: MigrateAll}},
		Log:           LogAlloc{DiskUnit: 0},
	}
	mk := func() *Manager {
		host := &testHost{s: s, nvem: nvem}
		m, err := NewShared(cfg, []string{"p"}, []*storage.DiskUnit{unit}, nvem, host, shared, nil)
		if err != nil {
			t.Fatal(err)
		}
		return m
	}
	return s, mk(), mk(), shared
}

// TestSharedNVEMCacheCrossNodeHit: a page node A destages into the shared
// cache must be hittable by node B.
func TestSharedNVEMCacheCrossNodeHit(t *testing.T) {
	s, a, b, _ := twoNodeRig(t, 1, 10)
	script(s,
		fix(a, key(0, 1), false), // A reads page 1
		fix(a, key(0, 2), false), // evicts page 1 into the shared cache
		fix(b, key(0, 1), false), // B must hit it there
	)
	s.RunAll()
	if got := a.Stats().VictimToNVEM; got != 1 {
		t.Fatalf("node A migrated %d victims into the shared cache, want 1", got)
	}
	if got := b.Stats().NVEMCacheHits; got != 1 {
		t.Fatalf("node B NVEM cache hits = %d, want 1 (cross-node hit)", got)
	}
	if got := b.Stats().DeviceReads; got != 0 {
		t.Fatalf("node B read the device %d times despite the shared-cache copy", got)
	}
}

// TestInvalidateCleanCopy: invalidating a clean remote copy drops it so the
// next local fix misses.
func TestInvalidateCleanCopy(t *testing.T) {
	s, a, _, _ := twoNodeRig(t, 2, 10)
	script(s, fix(a, key(0, 1), false))
	s.RunAll()
	had, dirty := a.Invalidate(key(0, 1))
	if !had || dirty {
		t.Fatalf("Invalidate = (%v, %v), want (true, false)", had, dirty)
	}
	if a.MMLen() != 0 {
		t.Fatalf("MM still holds %d frames after invalidation", a.MMLen())
	}
	if had, _ := a.Invalidate(key(0, 1)); had {
		t.Fatal("second invalidation found a copy")
	}
}

// TestInvalidatePrivateNVEMCacheCopy: a private (non-shared) NVEM cache
// copy is stale after a remote write and must be dropped with the MM
// frame — the next local fix pays the device read again.
func TestInvalidatePrivateNVEMCacheCopy(t *testing.T) {
	r := newRig(t, Config{
		BufferSize:    1,
		NVEMCacheSize: 10,
		Partitions:    []PartitionAlloc{{DiskUnit: 0, NVEMCache: true, NVEMCacheMode: MigrateAll}},
		Log:           LogAlloc{DiskUnit: 0},
	})
	r.drive(
		fix(r.m, key(0, 1), false), // read page 1
		fix(r.m, key(0, 2), false), // evict page 1 into the private cache
	)
	if r.m.NVEMCacheLen() != 1 {
		t.Fatalf("private cache holds %d frames, want 1", r.m.NVEMCacheLen())
	}
	if had, _ := r.m.Invalidate(key(0, 1)); had {
		t.Fatal("page 1 must not be in main memory")
	}
	if r.m.NVEMCacheLen() != 0 {
		t.Fatal("stale private-cache copy survived invalidation")
	}
	reads := r.m.Stats().DeviceReads
	r.drive(fix(r.m, key(0, 1), false))
	if got := r.m.Stats().DeviceReads; got != reads+1 {
		t.Fatalf("refetch after invalidation read the device %d times, want %d", got-reads, 1)
	}
}

// TestInvalidateDirtyHandoff: invalidating a dirty copy hands the current
// version off to the shared NVEM cache, where the writer (or any reader)
// can hit it instead of reading a stale disk copy.
func TestInvalidateDirtyHandoff(t *testing.T) {
	s, a, b, _ := twoNodeRig(t, 2, 10)
	script(s, fix(a, key(0, 1), true)) // A modifies page 1
	s.RunAll()
	had, dirty := a.Invalidate(key(0, 1))
	if !had || !dirty {
		t.Fatalf("Invalidate = (%v, %v), want (true, true)", had, dirty)
	}
	script(s, fix(b, key(0, 1), true)) // B picks the page up from the shared cache
	s.RunAll()
	if got := b.Stats().NVEMCacheHits; got != 1 {
		t.Fatalf("writer missed the handed-off copy: %+v", b.Stats())
	}
}

// TestResidencyTracksHolders: a tracked manager counts exactly the copies
// Invalidate would drop — main memory and the private NVEM cache — and
// notifies every page that enters either; a crash uncounts the lost main
// memory, and an invalidation uncounts what it drops.
func TestResidencyTracksHolders(t *testing.T) {
	r := newRig(t, Config{
		BufferSize:    1,
		NVEMCacheSize: 10,
		Partitions:    []PartitionAlloc{{DiskUnit: 0, NVEMCache: true, NVEMCacheMode: MigrateAll}},
		Log:           LogAlloc{DiskUnit: 0},
	})
	res := NewResidency(2, 11)
	var inserted []storage.PageKey
	r.m.Track(res, 1, func(k storage.PageKey) { inserted = append(inserted, k) })
	verify := func(when string) {
		t.Helper()
		if err := r.m.VerifyResidency(res, 1); err != nil {
			t.Fatalf("%s: %v", when, err)
		}
	}
	r.drive(
		fix(r.m, key(0, 1), false), // page 1 enters MM
		fix(r.m, key(0, 2), false), // page 2 enters MM, page 1 the NVEM cache
	)
	if len(inserted) != 3 || inserted[0] != key(0, 1) || inserted[1] != key(0, 2) || inserted[2] != key(0, 1) {
		t.Fatalf("insert notifications %v, want pages 1 (MM), 2 (MM), 1 (NVEM cache)", inserted)
	}
	verify("after the fixes")
	for page, want := range map[int64]bool{1: true, 2: true, 3: false} {
		if got := r.m.Holds(key(0, page)); got != want {
			t.Fatalf("Holds(page %d) = %v, want %v", page, got, want)
		}
		if row, _ := res.Row(key(0, page)); want && row[1] == 0 || row[0] != 0 {
			t.Fatalf("page %d's slot counts %v, want nonzero only in column 1", page, row)
		}
	}
	r.m.Crash()
	verify("after the crash")
	if r.m.Holds(key(0, 2)) || !r.m.Holds(key(0, 1)) {
		t.Fatal("the crash must drop the MM copy and keep the NVEM-cache copy")
	}
	r.m.Invalidate(key(0, 1))
	verify("after the invalidation")
	if r.m.Holds(key(0, 1)) {
		t.Fatal("the invalidation left the NVEM-cache copy")
	}
}

// TestResidencyAbsenceRule pins the rule that lets a residency entry rule
// a holder out without a Holds probe: an entry that counts no page, or one
// page with another fingerprint, proves the node lacks the page; any other
// entry must be probed. The cases fill the page's slot on one node with
// nothing, another page, the page itself, two other pages, and the page in
// main memory and in the private NVEM cache at once, whose fingerprints
// cancel. The rule must never rule out a node that holds the page.
func TestResidencyAbsenceRule(t *testing.T) {
	cfg := Config{
		BufferSize:    2,
		NVEMCacheSize: 4,
		Force:         true, // an NVEM-cache hit keeps its copy
		Partitions:    []PartitionAlloc{{DiskUnit: 0, NVEMCache: true, NVEMCacheMode: MigrateAll}},
		Log:           LogAlloc{DiskUnit: 0},
	}
	frames := cfg.BufferSize + cfg.NVEMCacheSize
	probe := NewResidency(1, frames)
	x := key(0, 1)
	xRow, xAlone := probe.Row(x)
	// y and z share x's slot with other fingerprints; a and b lie elsewhere.
	var y, z, a, b storage.PageKey
	for page, found := int64(2), 0; found < 4; page++ {
		k := key(0, page)
		row, alone := probe.Row(k)
		switch same := &row[0] == &xRow[0]; {
		case same && alone != xAlone && y == (storage.PageKey{}):
			y = k
		case same && alone != xAlone && z == (storage.PageKey{}):
			z = k
		case !same && a == (storage.PageKey{}):
			a = k
		case !same && b == (storage.PageKey{}):
			b = k
		default:
			continue
		}
		found++
	}
	for _, tc := range []struct {
		name                  string
		fixes                 []storage.PageKey
		absent, holds, inBoth bool
	}{
		{"empty slot", nil, true, false, false},
		{"one other page", []storage.PageKey{y}, true, false, false},
		{"the page itself", []storage.PageKey{x}, false, true, false},
		{"two other pages", []storage.PageKey{y, z}, false, false, false},
		{"the page in main memory and the NVEM cache", []storage.PageKey{x, a, b, x}, false, true, true},
	} {
		r := newRig(t, cfg)
		res := NewResidency(1, frames)
		r.m.Track(res, 0, func(storage.PageKey) {})
		var steps []step
		for _, k := range tc.fixes {
			steps = append(steps, fix(r.m, k, false))
		}
		r.drive(steps...)
		if err := r.m.VerifyResidency(res, 0); err != nil {
			t.Fatalf("%s: %v", tc.name, err)
		}
		row, alone := res.Row(x)
		if got := res.Absent(row[0], alone); got != tc.absent {
			t.Fatalf("%s: entry %#04x (page alone %#04x) rules the page out %v, want %v", tc.name, row[0], alone, got, tc.absent)
		}
		if got := r.m.Holds(x); got != tc.holds {
			t.Fatalf("%s: Holds = %v, want %v", tc.name, got, tc.holds)
		}
		if tc.inBoth {
			_, inMM := r.m.mm.Peek(x)
			_, inCache := r.m.nvemCache.Peek(x)
			if !inMM || !inCache || row[0] != 2 {
				t.Fatalf("%s: in main memory %v, in the NVEM cache %v, entry %#04x; want both and a count of 2 with no fingerprint",
					tc.name, inMM, inCache, row[0])
			}
		}
	}
}

// TestResidencySkipsSharedCache: a page a node destaged into the shared
// NVEM cache is not the node's copy — Invalidate leaves it alone — so it
// is neither counted nor held.
func TestResidencySkipsSharedCache(t *testing.T) {
	s, a, _, shared := twoNodeRig(t, 1, 10)
	res := NewResidency(2, 1)
	a.Track(res, 0, func(storage.PageKey) {})
	script(s,
		fix(a, key(0, 1), false),
		fix(a, key(0, 2), false), // page 1 moves into the shared cache
	)
	s.RunAll()
	if shared.cache.Len() != 1 || a.Holds(key(0, 1)) || !a.Holds(key(0, 2)) {
		t.Fatalf("shared cache holds %d pages; node holds page 1 %v, page 2 %v; want 1, false, true",
			shared.cache.Len(), a.Holds(key(0, 1)), a.Holds(key(0, 2)))
	}
	if err := a.VerifyResidency(res, 0); err != nil {
		t.Fatal(err)
	}
}

// TestNewResidencyTooLarge: nodes whose frames a uint16 count cannot
// cover get no residency table.
func TestNewResidencyTooLarge(t *testing.T) {
	if NewResidency(4, 1<<16) != nil {
		t.Fatal("a table for 65536 frames per node must not be built")
	}
	if NewResidency(4, 1<<16-1) == nil {
		t.Fatal("65535 frames per node fit a uint16 count")
	}
}
