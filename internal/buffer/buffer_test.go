package buffer

import (
	"testing"

	"repro/internal/rng"
	"repro/internal/sim"
	"repro/internal/storage"
)

// testHost implements Host with zero-cost CPU bursts and real NVEM/device
// delays, counting calls.
type testHost struct {
	s         *sim.Sim
	nvem      *storage.NVEM
	ioCalls   int
	syncCalls int
	nvemCalls int
}

func (h *testHost) IOOverhead(k func()) {
	h.ioCalls++
	k()
}

func (h *testHost) SyncDeviceIO(unit *storage.DiskUnit, key storage.PageKey, write bool, k func()) {
	h.syncCalls++
	if write {
		unit.Write(key, k)
	} else {
		unit.Read(key, k)
	}
}

func (h *testHost) NVEMTransfer(k func()) {
	h.nvemCalls++
	if h.nvem != nil {
		h.nvem.Access(k)
		return
	}
	k()
}

func (h *testHost) Sim() *sim.Sim { return h.s }

// rig bundles a simulation, devices and a buffer manager for tests.
type rig struct {
	s    *sim.Sim
	host *testHost
	m    *Manager
	unit *storage.DiskUnit
}

func key(part int, page int64) storage.PageKey {
	return storage.PageKey{Partition: part, Page: page}
}

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

// do runs fn between two operations; hold waits dt of simulated time.
func do(fn func()) step                 { return func(next func()) { fn(); next() } }
func hold(s *sim.Sim, dt sim.Time) step { return func(next func()) { s.Schedule(dt, next) } }

// fix, force and writeLog are steps that call the manager's Fix,
// ForcePages and WriteLog.
func fix(m *Manager, k storage.PageKey, write bool) step {
	return func(next func()) { m.Fix(k, write, next) }
}

func force(m *Manager, keys ...storage.PageKey) step {
	return func(next func()) { m.ForcePages(keys, next) }
}

func writeLog(m *Manager) step { return func(next func()) { m.WriteLog(next) } }

// newRig builds a one-partition, one-disk-unit setup with the given buffer
// configuration applied to partition 0 and the log on the same unit.
func newRig(t testing.TB, cfg Config) *rig {
	t.Helper()
	return newRigOn(t, cfg, storage.DiskUnitConfig{
		Name: "u0", Type: storage.Regular,
		NumControllers: 4, ContrDelay: 1, TransDelay: 0.4,
		NumDisks: 4, DiskDelay: 15,
	})
}

// newRigOn is newRig on a disk unit built from unitCfg.
func newRigOn(t testing.TB, cfg Config, unitCfg storage.DiskUnitConfig) *rig {
	t.Helper()
	s := sim.New()
	unit, err := storage.NewDiskUnit(s, unitCfg, rng.NewStream(1, "unit"))
	if err != nil {
		t.Fatal(err)
	}
	var nvem *storage.NVEM
	if cfg.UsesNVEM() {
		nvem, err = storage.NewNVEM(s, 1, 0.05)
		if err != nil {
			t.Fatal(err)
		}
	}
	host := &testHost{s: s, nvem: nvem}
	names := make([]string, len(cfg.Partitions))
	for i := range names {
		names[i] = "p"
	}
	m, err := NewShared(cfg, names, []*storage.DiskUnit{unit}, nvem, host, nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	return &rig{s: s, host: host, m: m, unit: unit}
}

// drive runs steps as a script and completes all events.
func (r *rig) drive(steps ...step) {
	script(r.s, steps...)
	r.s.RunAll()
}

func baseCfg() Config {
	return Config{
		BufferSize: 3,
		Logging:    true,
		Partitions: []PartitionAlloc{{DiskUnit: 0}},
		Log:        LogAlloc{DiskUnit: 0},
	}
}

func TestMMHitMiss(t *testing.T) {
	r := newRig(t, baseCfg())
	r.drive(
		fix(r.m, key(0, 1), false), // miss
		fix(r.m, key(0, 1), false), // hit
		fix(r.m, key(0, 2), false), // miss
	)
	st := r.m.Stats()
	if st.Fixes != 3 || st.MMHits != 1 || st.DeviceReads != 2 {
		t.Fatalf("stats = %+v", st)
	}
	r.m.ResetStats()
	if st, ps := r.m.Stats(), r.m.PartitionStats(); st != (Stats{}) || ps[0] != (PartitionStats{}) {
		t.Fatalf("after reset: stats %+v, partition %+v; want zero", st, ps[0])
	}
}

func TestLRUReplacementCleanVictim(t *testing.T) {
	r := newRig(t, baseCfg())
	var fixes []step
	for page := int64(1); page <= 4; page++ { // buffer holds 3
		fixes = append(fixes, fix(r.m, key(0, page), false))
	}
	r.drive(append(fixes, fix(r.m, key(0, 1), false))...) // page 1 was evicted: miss again
	st := r.m.Stats()
	if st.DeviceReads != 5 {
		t.Fatalf("device reads = %d, want 5", st.DeviceReads)
	}
	if st.VictimWrites != 0 || st.CleanDrops != 2 {
		t.Fatalf("clean victims mishandled: %+v", st)
	}
}

func TestDirtyVictimSynchronousWriteBack(t *testing.T) {
	r := newRig(t, baseCfg())
	var dirtyMiss, cleanMiss sim.Time
	const rounds = 200
	var fixes []step
	// Dirty working set: every miss evicts a dirty page (sync write +
	// read, ~32.8 ms average).
	for i := int64(0); i < rounds; i++ {
		fixes = append(fixes, timed(r.s, &dirtyMiss, fix(r.m, key(0, i), true)))
	}
	// Drain to clean by switching to read-only misses on fresh pages
	// (every victim from here on was fixed read-only).
	for i := int64(rounds); i < rounds+3; i++ {
		fixes = append(fixes, fix(r.m, key(0, i), false))
	}
	for i := int64(rounds + 3); i < 2*rounds; i++ {
		fixes = append(fixes, timed(r.s, &cleanMiss, fix(r.m, key(0, i), false)))
	}
	r.drive(fixes...)
	st := r.m.Stats()
	if st.VictimWrites == 0 {
		t.Fatal("no synchronous victim writes recorded")
	}
	meanDirty := dirtyMiss / rounds
	meanClean := cleanMiss / (rounds - 3)
	// Dirty misses pay two device accesses, clean misses one.
	if meanDirty < meanClean*1.5 {
		t.Fatalf("dirty miss %.2f vs clean miss %.2f: victim write not synchronous",
			meanDirty, meanClean)
	}
}

func TestMMResidentAlwaysHits(t *testing.T) {
	cfg := baseCfg()
	cfg.Partitions[0] = PartitionAlloc{MMResident: true}
	r := newRig(t, cfg)
	var fixes []step
	for page := int64(0); page < 100; page++ {
		fixes = append(fixes, fix(r.m, key(0, page), true))
	}
	r.drive(fixes...)
	st := r.m.Stats()
	if st.MMHits != 100 || st.DeviceReads != 0 || st.ResidentFixes != 100 {
		t.Fatalf("stats = %+v", st)
	}
	if r.m.MMLen() != 0 {
		t.Fatal("MM-resident pages must not occupy buffer frames")
	}
}

func TestNVEMResidentPartition(t *testing.T) {
	cfg := baseCfg()
	cfg.Partitions[0] = PartitionAlloc{NVEMResident: true}
	r := newRig(t, cfg)
	var elapsed sim.Time
	r.drive(timed(r.s, &elapsed,
		fix(r.m, key(0, 1), true),  // NVEM read, 0.05ms
		fix(r.m, key(0, 2), true),  // NVEM read
		fix(r.m, key(0, 3), true),  // NVEM read
		fix(r.m, key(0, 4), false), // evicts dirty 1: NVEM write + NVEM read
	))
	st := r.m.Stats()
	if st.NVEMReads != 4 || st.DeviceReads != 0 {
		t.Fatalf("stats = %+v", st)
	}
	if r.host.nvemCalls != 5 { // 4 reads + 1 dirty victim write
		t.Fatalf("nvem calls = %d, want 5", r.host.nvemCalls)
	}
	if elapsed > 1 {
		t.Fatalf("elapsed = %v: NVEM accesses must be fast", elapsed)
	}
	if r.unit.Stats().Reads+r.unit.Stats().Writes != 0 {
		t.Fatal("NVEM-resident partition touched the disk unit")
	}
}

func nvemCacheCfg(mmSize, nvemSize int) Config {
	return Config{
		BufferSize:    mmSize,
		Logging:       false,
		NVEMCacheSize: nvemSize,
		Partitions: []PartitionAlloc{
			{DiskUnit: 0, NVEMCache: true, NVEMCacheMode: MigrateAll},
		},
		Log: LogAlloc{DiskUnit: 0},
	}
}

func TestNVEMCacheMigrationAndHit(t *testing.T) {
	r := newRig(t, nvemCacheCfg(2, 2))
	r.drive(
		fix(r.m, key(0, 1), true),
		fix(r.m, key(0, 2), false),
		fix(r.m, key(0, 3), false), // evicts 1 (dirty) → NVEM + async write
		fix(r.m, key(0, 1), false), // NVEM hit
	)
	st := r.m.Stats()
	// Two victims migrate under MigrateAll: dirty page 1 (when 3 is fixed)
	// and clean page 2 (when 1 is promoted back).
	if st.VictimToNVEM != 2 {
		t.Fatalf("victims to NVEM = %d, want 2", st.VictimToNVEM)
	}
	if st.NVEMCacheHits != 1 {
		t.Fatalf("NVEM hits = %d", st.NVEMCacheHits)
	}
	if st.AsyncDiskWrites != 1 {
		t.Fatalf("async writes = %d (dirty page must destage)", st.AsyncDiskWrites)
	}
	if st.VictimWrites != 0 {
		t.Fatal("NVEM-cached partition must not write victims synchronously")
	}
}

func TestNOFORCESingleCopyInvariant(t *testing.T) {
	r := newRig(t, nvemCacheCfg(2, 4))
	r.drive(
		fix(r.m, key(0, 1), false),
		fix(r.m, key(0, 2), false),
		fix(r.m, key(0, 3), false), // 1 → NVEM
		do(func() {
			if r.m.NVEMCacheLen() != 1 {
				t.Errorf("NVEM len = %d, want 1", r.m.NVEMCacheLen())
			}
		}),
		fix(r.m, key(0, 1), false), // NVEM hit: copy must leave NVEM
		do(func() {
			if r.m.NVEMCacheLen() != 1 { // page 2 migrated down, page 1 left
				t.Errorf("NVEM len = %d after promotion, want 1 (page 2)", r.m.NVEMCacheLen())
			}
		}),
	)
	if r.m.Stats().NVEMCacheHits != 1 {
		t.Fatalf("stats = %+v", r.m.Stats())
	}
}

// TestAggregateLRUEquivalence verifies the paper's key NOFORCE result: main
// memory plus NVEM cache achieves exactly the combined hit ratio of a single
// main-memory buffer of the aggregate size (section 4.5).
func TestAggregateLRUEquivalence(t *testing.T) {
	refString := func() []int64 {
		s := rng.NewStream(99, "refs")
		var out []int64
		for i := 0; i < 4000; i++ {
			// 80/20 skew over 600 pages: plenty of capacity misses for
			// buffers of aggregate size 100.
			if s.Bool(0.8) {
				out = append(out, s.Int63n(120))
			} else {
				out = append(out, 120+s.Int63n(480))
			}
		}
		return out
	}()

	run := func(mm, nvem int) (combined int64) {
		var cfg Config
		if nvem > 0 {
			cfg = nvemCacheCfg(mm, nvem)
		} else {
			cfg = Config{
				BufferSize: mm,
				Partitions: []PartitionAlloc{{DiskUnit: 0}},
				Log:        LogAlloc{DiskUnit: 0},
			}
		}
		r := newRig(t, cfg)
		fixes := make([]step, len(refString))
		for i, page := range refString {
			fixes[i] = fix(r.m, key(0, page), false)
		}
		r.drive(fixes...)
		st := r.m.Stats()
		return st.MMHits + st.NVEMCacheHits
	}

	single := run(100, 0)
	for _, split := range [][2]int{{50, 50}, {20, 80}, {80, 20}} {
		got := run(split[0], split[1])
		if got != single {
			t.Errorf("split %v combined hits = %d, want %d (aggregate LRU equivalence)",
				split, got, single)
		}
	}
}

func TestMigrateModeModifiedOnly(t *testing.T) {
	cfg := nvemCacheCfg(1, 4)
	cfg.Partitions[0].NVEMCacheMode = MigrateModified
	r := newRig(t, cfg)
	r.drive(
		fix(r.m, key(0, 1), true),  // dirty
		fix(r.m, key(0, 2), false), // evicts 1 → migrates (modified)
		fix(r.m, key(0, 3), false), // evicts 2 (clean) → dropped
	)
	st := r.m.Stats()
	if st.VictimToNVEM != 1 || st.CleanDrops != 1 {
		t.Fatalf("stats = %+v", st)
	}
}

func TestMigrateModeUnmodifiedOnly(t *testing.T) {
	cfg := nvemCacheCfg(1, 4)
	cfg.Partitions[0].NVEMCacheMode = MigrateUnmodified
	r := newRig(t, cfg)
	r.drive(
		fix(r.m, key(0, 1), true),  // dirty
		fix(r.m, key(0, 2), false), // evicts dirty 1 → sync device write
		fix(r.m, key(0, 3), false), // evicts clean 2 → migrates
	)
	st := r.m.Stats()
	if st.VictimToNVEM != 1 || st.VictimWrites != 1 {
		t.Fatalf("stats = %+v", st)
	}
}

func wbCfg(wbSize int) Config {
	return Config{
		BufferSize:          2,
		Logging:             false,
		NVEMWriteBufferSize: wbSize,
		Partitions: []PartitionAlloc{
			{DiskUnit: 0, NVEMWriteBuffer: true},
		},
		Log: LogAlloc{DiskUnit: 0},
	}
}

func TestWriteBufferAbsorbsVictimWrites(t *testing.T) {
	r := newRig(t, wbCfg(10))
	var missDelay sim.Time
	r.drive(
		fix(r.m, key(0, 1), true),
		fix(r.m, key(0, 2), true),
		timed(r.s, &missDelay, fix(r.m, key(0, 3), false)), // dirty victim → write buffer
	)
	st := r.m.Stats()
	if st.VictimToWB != 1 || st.VictimWrites != 0 {
		t.Fatalf("stats = %+v", st)
	}
	// Only the read is synchronous: ~16.4ms average, not ~33.
	if missDelay > 60 {
		t.Fatalf("miss delay = %v: write must have been absorbed", missDelay)
	}
	if st.AsyncDiskWrites != 1 {
		t.Fatalf("async writes = %d", st.AsyncDiskWrites)
	}
	if r.m.wbInUse != 0 {
		t.Fatal("write buffer frame not freed after destage")
	}
}

func TestWriteBufferFullFallsBackSync(t *testing.T) {
	cfg := wbCfg(1)
	// Block the destage by making the disk very slow.
	slow := storage.DiskUnitConfig{
		Name: "slow", Type: storage.Regular,
		NumControllers: 1, ContrDelay: 0.1, TransDelay: 0,
		NumDisks: 1, DiskDelay: 100000,
	}
	s := sim.New()
	unit, err := storage.NewDiskUnit(s, slow, rng.NewStream(2, "slow"))
	if err != nil {
		t.Fatal(err)
	}
	nvem, _ := storage.NewNVEM(s, 1, 0.05)
	host := &testHost{s: s, nvem: nvem}
	m, err := NewShared(cfg, []string{"p"}, []*storage.DiskUnit{unit}, nvem, host, nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	script(s,
		fix(m, key(0, 1), true),
		fix(m, key(0, 2), true),
		fix(m, key(0, 3), true), // victim 1 → WB (now full, destage stuck)
		fix(m, key(0, 4), true), // victim → WB full → sync write
	)
	s.Run(1_000_000)
	st := m.Stats()
	if st.VictimToWB != 1 || st.WBFullSync != 1 {
		t.Fatalf("stats = %+v", st)
	}
	s.RunAll()
}

func TestLogWriteNVEMResident(t *testing.T) {
	cfg := baseCfg()
	cfg.Log = LogAlloc{NVEMResident: true}
	r := newRig(t, cfg)
	var logDelay sim.Time
	r.drive(timed(r.s, &logDelay, writeLog(r.m)))
	if r.m.Stats().LogWrites != 1 {
		t.Fatal("log write not counted")
	}
	if logDelay != 0.05 {
		t.Fatalf("log delay = %v, want 0.05 (one NVEM transfer)", logDelay)
	}
	if r.unit.Stats().Writes != 0 {
		t.Fatal("NVEM-resident log touched the disk")
	}
}

func TestLogWriteThroughWriteBuffer(t *testing.T) {
	cfg := baseCfg()
	cfg.Log = LogAlloc{DiskUnit: 0, NVEMWriteBuffer: true}
	cfg.NVEMWriteBufferSize = 5
	r := newRig(t, cfg)
	var logDelay sim.Time
	r.drive(timed(r.s, &logDelay, writeLog(r.m)))
	if logDelay > 1 {
		t.Fatalf("log delay = %v: WB log write must be at NVEM speed", logDelay)
	}
	if r.unit.Stats().Writes != 1 {
		t.Fatal("log destage missing")
	}
}

func TestLogWriteToDisk(t *testing.T) {
	r := newRig(t, baseCfg())
	var logDelay sim.Time
	r.drive(timed(r.s, &logDelay, writeLog(r.m)))
	if logDelay < 1 {
		t.Fatalf("log delay = %v: disk log write must be synchronous", logDelay)
	}
	if r.m.Stats().LogWrites != 1 || r.unit.Stats().Writes != 1 {
		t.Fatal("log write not issued")
	}
}

func TestLoggingDisabled(t *testing.T) {
	cfg := baseCfg()
	cfg.Logging = false
	r := newRig(t, cfg)
	r.drive(writeLog(r.m))
	if r.m.Stats().LogWrites != 0 {
		t.Fatal("log write issued despite Logging=false")
	}
}

func TestForcePagesWritesAndCleans(t *testing.T) {
	cfg := baseCfg()
	cfg.Force = true
	cfg.BufferSize = 10
	r := newRig(t, cfg)
	r.drive(
		fix(r.m, key(0, 1), true),
		fix(r.m, key(0, 2), true),
		force(r.m, key(0, 1), key(0, 2)),
		// Pages stay buffered and clean: next fix is a hit and a later
		// eviction needs no write.
		fix(r.m, key(0, 1), false),
	)
	st := r.m.Stats()
	if st.ForceWrites != 2 {
		t.Fatalf("force writes = %d", st.ForceWrites)
	}
	if r.unit.Stats().Writes != 2 {
		t.Fatalf("unit writes = %d", r.unit.Stats().Writes)
	}
	if st.MMHits != 1 {
		t.Fatalf("hits = %d: forced page must stay buffered", st.MMHits)
	}
}

func TestForceNoforceConfigIgnoresForcePages(t *testing.T) {
	r := newRig(t, baseCfg()) // NOFORCE
	r.drive(
		fix(r.m, key(0, 1), true),
		force(r.m, key(0, 1)),
	)
	if r.m.Stats().ForceWrites != 0 {
		t.Fatal("NOFORCE must not force pages")
	}
}

func TestForceWithNVEMCacheReplicates(t *testing.T) {
	cfg := nvemCacheCfg(4, 4)
	cfg.Force = true
	r := newRig(t, cfg)
	r.drive(
		fix(r.m, key(0, 1), true),
		force(r.m, key(0, 1)),
	)
	// Page must now be in BOTH main memory and NVEM (replication).
	if r.m.NVEMCacheLen() != 1 {
		t.Fatalf("NVEM len = %d, want 1", r.m.NVEMCacheLen())
	}
	r.drive(fix(r.m, key(0, 1), false))
	if r.m.Stats().MMHits != 1 {
		t.Fatal("forced page must remain in main memory")
	}
	if r.m.Stats().AsyncDiskWrites != 1 {
		t.Fatalf("async writes = %d", r.m.Stats().AsyncDiskWrites)
	}
}

func TestForcePrefersCleanVictims(t *testing.T) {
	cfg := baseCfg()
	cfg.Force = true
	cfg.BufferSize = 3
	r := newRig(t, cfg)
	r.drive(
		fix(r.m, key(0, 1), false), // clean, oldest
		fix(r.m, key(0, 2), true),  // dirty (uncommitted)
		fix(r.m, key(0, 3), true),  // dirty
		fix(r.m, key(0, 4), false), // victim should be clean page 1
	)
	st := r.m.Stats()
	if st.VictimWrites != 0 {
		t.Fatalf("victim writes = %d: FORCE should have found a clean victim", st.VictimWrites)
	}
}

func TestForceSkipsAlreadyCleanAndEvicted(t *testing.T) {
	cfg := baseCfg()
	cfg.Force = true
	cfg.BufferSize = 10
	r := newRig(t, cfg)
	r.drive(
		fix(r.m, key(0, 1), true),
		force(r.m, key(0, 1)),
		// Second force of the same (now clean) page must be a no-op, as is
		// forcing a page that was never buffered.
		force(r.m, key(0, 1), key(0, 99)),
	)
	if got := r.m.Stats().ForceWrites; got != 1 {
		t.Fatalf("force writes = %d, want 1", got)
	}
}

func TestConfigValidation(t *testing.T) {
	mk := func(mutate func(*Config)) error {
		cfg := baseCfg()
		mutate(&cfg)
		names := []string{"p0"} // one real partition
		s := sim.New()
		unit, _ := storage.NewDiskUnit(s, storage.DiskUnitConfig{
			Name: "u", Type: storage.Regular, NumControllers: 1, ContrDelay: 1,
			TransDelay: 0.4, NumDisks: 1, DiskDelay: 15,
		}, rng.NewStream(1, "u"))
		_, err := NewShared(cfg, names, []*storage.DiskUnit{unit}, nil, &testHost{s: s}, nil, nil)
		return err
	}
	cases := map[string]func(*Config){
		"zero buffer":    func(c *Config) { c.BufferSize = 0 },
		"both resident":  func(c *Config) { c.Partitions[0] = PartitionAlloc{MMResident: true, NVEMResident: true} },
		"resident+cache": func(c *Config) { c.Partitions[0] = PartitionAlloc{MMResident: true, NVEMCache: true} },
		"bad unit":       func(c *Config) { c.Partitions[0].DiskUnit = 5 },
		"cache+wb":       func(c *Config) { c.Partitions[0] = PartitionAlloc{NVEMCache: true, NVEMWriteBuffer: true} },
		"log unit":       func(c *Config) { c.Log.DiskUnit = 9 },
		"log res+wb":     func(c *Config) { c.Log = LogAlloc{NVEMResident: true, NVEMWriteBuffer: true} },
		"cache no size":  func(c *Config) { c.Partitions[0] = PartitionAlloc{NVEMCache: true}; c.NVEMCacheSize = 0 },
		"wb no size":     func(c *Config) { c.Partitions[0] = PartitionAlloc{NVEMWriteBuffer: true} },
		"nvem wo store":  func(c *Config) { c.Log = LogAlloc{NVEMResident: true} },
		"wrong nparts":   func(c *Config) { c.Partitions = append(c.Partitions, PartitionAlloc{}) },
	}
	for name, mutate := range cases {
		if err := mk(mutate); err == nil {
			t.Errorf("%s: expected error", name)
		}
	}
}

// TestLogRowIsPrivate: each manager keeps the log as the last row of its
// own allocation table, never in the spare capacity of a Partitions slice
// that cluster nodes share.
func TestLogRowIsPrivate(t *testing.T) {
	parts := make([]PartitionAlloc, 1, 2)
	a := newRig(t, Config{BufferSize: 1, Partitions: parts, Log: LogAlloc{NVEMResident: true}}).m
	b := newRig(t, Config{BufferSize: 1, Partitions: parts}).m
	if !a.alloc(a.logPartition).NVEMResident || b.alloc(b.logPartition).NVEMResident {
		t.Fatal("a manager's log row reads another manager's log allocation")
	}
	if parts[:2][1] != (PartitionAlloc{}) {
		t.Fatalf("the shared Partitions slice's spare capacity holds %+v", parts[:2][1])
	}
}
