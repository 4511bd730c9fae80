package buffer

import "testing"

// fixPaths are the paths of a buffer fix that every simulated page
// reference takes one of: a main-memory hit, an NVEM-cache hit, and a miss
// that writes a dirty victim back before it reads the page, with its
// device accesses asynchronous or synchronous.
var fixPaths = []struct {
	name string
	cfg  func() Config
	// pages is how many pages a cycle fixes in turn, write says whether it
	// fixes them for writing, and took reports whether n fixes all took
	// the path.
	pages int64
	write bool
	took  func(st Stats, n int64) bool
}{
	{
		name:  "mm-hit",
		cfg:   baseCfg,
		pages: 1,
		took:  func(st Stats, n int64) bool { return st.MMHits == n },
	},
	{
		// One frame and two pages: each fix promotes its page from the
		// NVEM cache and migrates the other one down.
		name: "nvem-hit",
		cfg: func() Config {
			return Config{
				BufferSize:    1,
				NVEMCacheSize: 2,
				Partitions:    []PartitionAlloc{{DiskUnit: 0, NVEMCache: true, NVEMCacheMode: MigrateAll}},
			}
		},
		pages: 2,
		took:  func(st Stats, n int64) bool { return st.NVEMCacheHits == n },
	},
	{
		// Two frames and three pages, all written: each fix misses and
		// evicts a dirty page.
		name: "miss-dirty-victim",
		cfg: func() Config {
			cfg := baseCfg()
			cfg.BufferSize = 2
			return cfg
		},
		pages: 3,
		write: true,
		took:  func(st Stats, n int64) bool { return st.DeviceReads == n && st.VictimWrites == n },
	},
	{
		// The same on a partition accessed synchronously: the host holds
		// the CPU for both device accesses.
		name: "miss-dirty-victim-sync",
		cfg: func() Config {
			cfg := baseCfg()
			cfg.BufferSize = 2
			cfg.Partitions[0].SyncAccess = true
			return cfg
		},
		pages: 3,
		write: true,
		took:  func(st Stats, n int64) bool { return st.DeviceReads == n && st.VictimWrites == n },
	},
}

// warmFix builds the rig of fixPaths[i] and returns it with a step that
// fixes the path's next page and runs the simulation to rest. The step has
// run enough times to warm every freelist and the event queue.
func warmFix(tb testing.TB, i int) (*rig, func()) {
	fp := fixPaths[i]
	r := newRig(tb, fp.cfg())
	noop := func() {}
	var n int64
	step := func() {
		r.m.Fix(key(0, 1+n%fp.pages), fp.write, noop)
		r.s.RunAll()
		n++
	}
	for range 300 {
		step()
	}
	return r, step
}

// BenchmarkFix measures one buffer fix on each of its paths,
// including the simulated I/O the fix waits for.
func BenchmarkFix(b *testing.B) {
	for i, fp := range fixPaths {
		b.Run(fp.name, func(b *testing.B) {
			_, step := warmFix(b, i)
			b.ReportAllocs()
			b.ResetTimer()
			for range b.N {
				step()
			}
		})
	}
}

// TestFixZeroAlloc pins each fix path of BenchmarkFix at zero allocations
// once warm, and checks that every fix took its path.
func TestFixZeroAlloc(t *testing.T) {
	for i, fp := range fixPaths {
		t.Run(fp.name, func(t *testing.T) {
			r, step := warmFix(t, i)
			r.m.ResetStats()
			const runs = 100
			if allocs := testing.AllocsPerRun(runs, step); allocs != 0 {
				t.Fatalf("fix allocates %.2f/op, want 0", allocs)
			}
			// AllocsPerRun runs the step once more to warm up.
			if st := r.m.Stats(); st.Fixes != runs+1 || !fp.took(st, runs+1) {
				t.Fatalf("fixes left the %s path: %+v", fp.name, st)
			}
		})
	}
}
