package storage

import (
	"math"
	"testing"

	"repro/internal/rng"
	"repro/internal/sim"
)

func key(p int, page int64) PageKey { return PageKey{Partition: p, Page: page} }

// fixedStream returns a stream whose Exp draws are deterministic means.
// For device tests we want exact delays, so we use a config with the rng
// only where exponential variation is acceptable; here we exploit that
// Exp(0)=0 and pass delays via TransDelay when determinism matters.
func testStream() *rng.Stream { return rng.NewStream(1, "storage-test") }

// step is one operation of a test script: it starts the operation and
// runs next when the operation completes.
type step = func(next func())

// seq chains steps into one: each step's continuation starts the next.
func seq(steps ...step) step {
	return func(next func()) {
		if len(steps) == 0 {
			next()
			return
		}
		steps[0](func() { seq(steps[1:]...)(next) })
	}
}

// script runs steps one after another from one s.Schedule(0, …).
func script(s *sim.Sim, steps ...step) { s.Schedule(0, func() { seq(steps...)(func() {}) }) }

// timed runs steps and adds the simulated time they take to *d.
func timed(s *sim.Sim, d *sim.Time, steps ...step) step {
	return func(next func()) {
		start := s.Now()
		seq(steps...)(func() { *d += s.Now() - start; next() })
	}
}

func read(u *DiskUnit, k PageKey) step  { return func(next func()) { u.Read(k, next) } }
func write(u *DiskUnit, k PageKey) step { return func(next func()) { u.Write(k, next) } }

func regularCfg() DiskUnitConfig {
	return DiskUnitConfig{
		Name: "db", Type: Regular,
		NumControllers: 1, ContrDelay: 1, TransDelay: 0.4,
		NumDisks: 1, DiskDelay: 15,
	}
}

func TestConfigValidation(t *testing.T) {
	cases := map[string]func(*DiskUnitConfig){
		"no controllers": func(c *DiskUnitConfig) { c.NumControllers = 0 },
		"neg delay":      func(c *DiskUnitConfig) { c.ContrDelay = -1 },
		"no disks":       func(c *DiskUnitConfig) { c.NumDisks = 0 },
		"no disk delay":  func(c *DiskUnitConfig) { c.DiskDelay = 0 },
		"bad type":       func(c *DiskUnitConfig) { c.Type = 99 },
		"cache size": func(c *DiskUnitConfig) {
			c.Type = VolatileCache
			c.CacheSize = 0
		},
		"wb needs nv": func(c *DiskUnitConfig) {
			c.WriteBufferOnly = true
		},
	}
	for name, mutate := range cases {
		cfg := regularCfg()
		mutate(&cfg)
		s := sim.New()
		if _, err := NewDiskUnit(s, cfg, testStream()); err == nil {
			t.Errorf("%s: expected error", name)
		}
	}
	// SSD without disks is fine.
	s := sim.New()
	ssd := DiskUnitConfig{Name: "ssd", Type: SSD, NumControllers: 1, ContrDelay: 1, TransDelay: 0.4}
	if _, err := NewDiskUnit(s, ssd, testStream()); err != nil {
		t.Fatalf("SSD config rejected: %v", err)
	}
}

func TestRegularDiskTiming(t *testing.T) {
	s := sim.New()
	cfg := regularCfg()
	u, err := NewDiskUnit(s, cfg, testStream())
	if err != nil {
		t.Fatal(err)
	}
	var elapsed sim.Time
	script(s, timed(s, &elapsed, read(u, key(0, 1))))
	s.RunAll()
	// Exponential service: elapsed is random but positive and includes the
	// fixed transmission delay.
	if elapsed < 0.4 {
		t.Fatalf("elapsed = %v, must include transmission 0.4", elapsed)
	}
	if u.Stats().Reads != 1 || u.Stats().DiskAccesses != 1 {
		t.Fatalf("stats = %+v", u.Stats())
	}
}

func TestRegularMeanAccessTime(t *testing.T) {
	// With ContrDelay 1, TransDelay 0.4, DiskDelay 15 the mean access time
	// without queueing is 16.4 ms (section 4.1).
	s := sim.New()
	u, _ := NewDiskUnit(s, regularCfg(), testStream())
	total := sim.Time(0)
	const n = 2000
	reads := make([]step, n)
	for i := range reads {
		reads[i] = timed(s, &total, read(u, key(0, int64(i))))
	}
	script(s, reads...)
	s.RunAll()
	mean := total / n
	if math.Abs(mean-16.4) > 0.8 {
		t.Fatalf("mean access = %v, want ~16.4", mean)
	}
}

func TestSSDMeanAccessTime(t *testing.T) {
	// SSD: controller (1ms) + transmission (0.4ms) = 1.4 ms mean.
	s := sim.New()
	cfg := DiskUnitConfig{Name: "ssd", Type: SSD, NumControllers: 1, ContrDelay: 1, TransDelay: 0.4}
	u, _ := NewDiskUnit(s, cfg, testStream())
	total := sim.Time(0)
	const n = 2000
	accesses := make([]step, n)
	for i := range accesses {
		access := read
		if i%2 != 0 {
			access = write
		}
		accesses[i] = timed(s, &total, access(u, key(0, int64(i))))
	}
	script(s, accesses...)
	s.RunAll()
	mean := total / n
	if math.Abs(mean-1.4) > 0.1 {
		t.Fatalf("mean access = %v, want ~1.4", mean)
	}
	if u.Stats().DiskAccesses != 0 {
		t.Fatal("SSD must never access a disk")
	}
}

func TestVolatileCacheReadHit(t *testing.T) {
	s := sim.New()
	cfg := regularCfg()
	cfg.Type = VolatileCache
	cfg.CacheSize = 10
	u, _ := NewDiskUnit(s, cfg, testStream())
	script(s,
		read(u, key(0, 1)), // miss: disk access + allocate
		read(u, key(0, 1)), // hit
	)
	s.RunAll()
	st := u.Stats()
	if st.Reads != 2 || st.ReadHits != 1 || st.DiskAccesses != 1 {
		t.Fatalf("stats = %+v", st)
	}
}

func TestVolatileCacheWriteAlwaysHitsDisk(t *testing.T) {
	s := sim.New()
	cfg := regularCfg()
	cfg.Type = VolatileCache
	cfg.CacheSize = 10
	u, _ := NewDiskUnit(s, cfg, testStream())
	script(s,
		write(u, key(0, 1)), // write miss: disk access, no allocation
		read(u, key(0, 1)),  // still a miss (write misses don't allocate)
		write(u, key(0, 1)), // write hit: refresh, still disk access
	)
	s.RunAll()
	st := u.Stats()
	if st.DiskAccesses != 3 {
		t.Fatalf("disk accesses = %d, want 3 (volatile cache is write-through)", st.DiskAccesses)
	}
	if st.WriteHits != 1 {
		t.Fatalf("write hits = %d, want 1", st.WriteHits)
	}
	if st.ReadHits != 0 {
		t.Fatalf("read hits = %d: write miss must not allocate", st.ReadHits)
	}
}

func TestNVCacheWriteSatisfiedInCache(t *testing.T) {
	s := sim.New()
	cfg := regularCfg()
	cfg.Type = NVCache
	cfg.CacheSize = 10
	u, _ := NewDiskUnit(s, cfg, testStream())
	var writeDelay sim.Time
	script(s, timed(s, &writeDelay, write(u, key(0, 1)))) // write miss, allocated, async destage
	s.RunAll()
	st := u.Stats()
	if st.CacheWrites != 1 || st.Destages != 1 {
		t.Fatalf("stats = %+v", st)
	}
	// The caller's delay must not include the 15ms disk access; the destage
	// happens asynchronously (but the disk access still occurred by RunAll).
	if writeDelay > 10 {
		t.Fatalf("write delay = %v: destage leaked into caller", writeDelay)
	}
	if st.DiskAccesses != 1 {
		t.Fatalf("disk accesses = %d: destage must update disk", st.DiskAccesses)
	}
	if u.DirtyFrames() != 0 {
		t.Fatal("frame still dirty after destage completed")
	}
}

func TestNVCacheAllDirtyFallsBackToDisk(t *testing.T) {
	s := sim.New()
	cfg := regularCfg()
	cfg.Type = NVCache
	cfg.CacheSize = 2
	cfg.DiskDelay = 1000 // destages take forever: frames stay dirty
	u, _ := NewDiskUnit(s, cfg, testStream())
	var thirdDelay sim.Time
	script(s,
		write(u, key(0, 1)),
		write(u, key(0, 2)),
		timed(s, &thirdDelay, write(u, key(0, 3))), // all frames dirty: synchronous disk write
	)
	s.RunAll()
	st := u.Stats()
	if st.SyncDiskWrites != 1 {
		t.Fatalf("sync disk writes = %d, want 1", st.SyncDiskWrites)
	}
	if thirdDelay < 100 {
		t.Fatalf("third write delay = %v: must include synchronous disk access", thirdDelay)
	}
}

func TestNVCacheWriteHitAlwaysPossible(t *testing.T) {
	s := sim.New()
	cfg := regularCfg()
	cfg.Type = NVCache
	cfg.CacheSize = 1
	cfg.DiskDelay = 1000
	u, _ := NewDiskUnit(s, cfg, testStream())
	delays := make([]sim.Time, 3)
	writes := make([]step, len(delays))
	for i := range writes {
		writes[i] = timed(s, &delays[i], write(u, key(0, 1))) // rewrite same page: always a write hit
	}
	script(s, writes...)
	s.RunAll()
	st := u.Stats()
	if st.WriteHits != 2 || st.SyncDiskWrites != 0 {
		t.Fatalf("stats = %+v", st)
	}
	for i, d := range delays {
		if d > 100 {
			t.Fatalf("write %d delayed %v: write hit must stay at cache speed", i, d)
		}
	}
}

func TestNVCacheReadAllocationSkipsWhenAllDirty(t *testing.T) {
	// Policy test on internal state: read allocation must never evict a
	// dirty frame, and is skipped entirely when every frame is dirty.
	s := sim.New()
	cfg := regularCfg()
	cfg.Type = NVCache
	cfg.CacheSize = 2
	u, _ := NewDiskUnit(s, cfg, testStream())
	u.cache.Put(key(0, 1), cacheFrame{dirty: true})
	u.cache.Put(key(0, 2), cacheFrame{dirty: true})
	u.insertClean(key(0, 3))
	if u.CacheLen() != 2 {
		t.Fatalf("cache len = %d, want 2 (allocation must be skipped)", u.CacheLen())
	}
	if _, ok := u.cache.Peek(key(0, 3)); ok {
		t.Fatal("page allocated despite all frames dirty")
	}
	// With one clean frame, that frame (and only that frame) is the victim.
	u.cache.Update(key(0, 1), cacheFrame{dirty: false})
	u.insertClean(key(0, 3))
	if _, ok := u.cache.Peek(key(0, 1)); ok {
		t.Fatal("clean frame not chosen as victim")
	}
	if _, ok := u.cache.Peek(key(0, 2)); !ok {
		t.Fatal("dirty frame evicted for a read allocation")
	}
	if _, ok := u.cache.Peek(key(0, 3)); !ok {
		t.Fatal("page not allocated despite clean victim")
	}
}

func TestWriteBufferOnlyNoReadCaching(t *testing.T) {
	s := sim.New()
	cfg := regularCfg()
	cfg.Type = NVCache
	cfg.CacheSize = 100
	cfg.WriteBufferOnly = true
	u, _ := NewDiskUnit(s, cfg, testStream())
	script(s,
		write(u, key(9, 1)), // buffered
		read(u, key(9, 2)),
		read(u, key(9, 2)), // must miss: write-buffer mode has no read LRU
	)
	s.RunAll()
	st := u.Stats()
	if st.ReadHits != 0 {
		t.Fatalf("read hits = %d in write-buffer mode", st.ReadHits)
	}
	if st.CacheWrites != 1 {
		t.Fatalf("cache writes = %d", st.CacheWrites)
	}
}

func TestDiskQueueing(t *testing.T) {
	// Ten concurrent reads through one disk must serialize on the disk
	// server: total time ≈ 10 × DiskDelay.
	s := sim.New()
	cfg := regularCfg()
	u, _ := NewDiskUnit(s, cfg, testStream())
	done := 0
	for i := 0; i < 10; i++ {
		i := i
		s.Schedule(0, func() {
			u.Read(key(0, int64(i)), func() { done++ })
		})
	}
	end := s.RunAll()
	if done != 10 {
		t.Fatalf("done = %d", done)
	}
	if end < 100 {
		t.Fatalf("end = %v: ten 15ms-mean disk accesses can't finish that fast on one disk", end)
	}
	if u.DiskUtilization() < 0.5 {
		t.Fatalf("disk utilization = %v, expected high", u.DiskUtilization())
	}
}

func TestMultipleDisksParallel(t *testing.T) {
	s := sim.New()
	cfg := regularCfg()
	cfg.NumDisks = 10
	cfg.NumControllers = 10
	u, _ := NewDiskUnit(s, cfg, testStream())
	for i := 0; i < 10; i++ {
		i := i
		s.Schedule(0, func() { u.Read(key(0, int64(i)), func() {}) })
	}
	end := s.RunAll()
	if end > 120 {
		t.Fatalf("end = %v: ten disks should run these in parallel", end)
	}
}

func TestNVEM(t *testing.T) {
	s := sim.New()
	n, err := NewNVEM(s, 1, 0.05)
	if err != nil {
		t.Fatal(err)
	}
	var elapsed sim.Time
	s.Schedule(0, func() {
		start := s.Now()
		n.Access(func() {
			n.Access(func() { elapsed = s.Now() - start })
		})
	})
	s.RunAll()
	if math.Abs(elapsed-0.1) > 1e-9 {
		t.Fatalf("elapsed = %v, want 0.1 (two 50µs transfers)", elapsed)
	}
}

func TestNVEMValidation(t *testing.T) {
	s := sim.New()
	if _, err := NewNVEM(s, 0, 0.05); err == nil {
		t.Fatal("zero servers must error")
	}
	if _, err := NewNVEM(s, 1, -1); err == nil {
		t.Fatal("negative delay must error")
	}
}

func TestNVEMQueueing(t *testing.T) {
	// One NVEM port: two simultaneous accesses serialize.
	s := sim.New()
	n, _ := NewNVEM(s, 1, 1)
	var last sim.Time
	for i := 0; i < 2; i++ {
		s.Schedule(0, func() {
			n.Access(func() { last = s.Now() })
		})
	}
	s.RunAll()
	if last != 2 {
		t.Fatalf("last = %v, want 2 (serialized)", last)
	}
}

// TestCrashVolatile: a system crash empties a volatile controller cache
// but leaves non-volatile cache content in place.
func TestCrashVolatile(t *testing.T) {
	s := sim.New()
	vol := regularCfg()
	vol.Type = VolatileCache
	vol.CacheSize = 10
	vu, _ := NewDiskUnit(s, vol, testStream())
	nv := regularCfg()
	nv.Type = NVCache
	nv.CacheSize = 10
	nu, _ := NewDiskUnit(s, nv, testStream())
	script(s, read(vu, key(0, 1)), read(nu, key(0, 1)))
	s.RunAll()
	if vu.CacheLen() != 1 || nu.CacheLen() != 1 {
		t.Fatalf("setup: vol=%d nv=%d cached", vu.CacheLen(), nu.CacheLen())
	}
	vu.CrashVolatile()
	nu.CrashVolatile()
	if vu.CacheLen() != 0 {
		t.Fatalf("volatile cache survived the crash: %d frames", vu.CacheLen())
	}
	if nu.CacheLen() != 1 {
		t.Fatalf("non-volatile cache lost its frame: %d", nu.CacheLen())
	}
}
