package buffer

import (
	"testing"

	"repro/internal/sim"
	"repro/internal/storage"
)

// routeUnit is an SSD whose every access takes exactly 1 ms (no controller
// time), so the instant a write completes tells which route it took.
var routeUnit = storage.DiskUnitConfig{
	Name: "ssd", Type: storage.SSD, NumControllers: 4, TransDelay: 1,
}

// routeHomes are the homes a write can have: NVEM, the NVEM write buffer
// with a free frame or with every frame awaiting its destage (its fallback
// device write accessed either way), and the disk unit accessed
// synchronously (CPU held) or not. The log allocation has no access mode,
// so the sync-access homes keep the log as they would without it.
var routeHomes = []struct {
	name   string
	part   PartitionAlloc
	log    LogAlloc
	wbFull bool
}{
	{"nvem-resident", PartitionAlloc{NVEMResident: true}, LogAlloc{NVEMResident: true}, false},
	{"write-buffer", PartitionAlloc{NVEMWriteBuffer: true}, LogAlloc{NVEMWriteBuffer: true}, false},
	{"write-buffer-full", PartitionAlloc{NVEMWriteBuffer: true}, LogAlloc{NVEMWriteBuffer: true}, true},
	{"sync-access", PartitionAlloc{SyncAccess: true}, LogAlloc{}, false},
	{"disk", PartitionAlloc{}, LogAlloc{}, false},
	{"write-buffer-full-sync-access", PartitionAlloc{NVEMWriteBuffer: true, SyncAccess: true},
		LogAlloc{NVEMWriteBuffer: true}, true},
}

// routeCost is what one write costs, measured from its issue: the instant
// the writer continues and the instant the simulation drains (background
// destages included), in ms, the host's I/O-overhead, sync-I/O and
// NVEM-transfer calls, and the unit's reads and writes.
type routeCost struct {
	done, drained  sim.Time
	io, sync, nvem int
	reads, writes  int64
}

// routeWriters are the buffer manager's writers. Each dirties page 1 of
// partition 0 in setup, then write issues its write and continues in k.
// The checkpoint writer keeps the log on the plain disk: its record is one
// more I/O overhead and device write after the flush. want lists the cost
// on each of routeHomes, in order.
var routeWriters = []struct {
	name    string
	cfg     func() Config
	diskLog bool
	write   func(m *Manager, k func())
	want    []routeCost
}{
	{
		// One frame: fixing page 2 evicts dirty page 1 and writes it home
		// before page 2 is read.
		name: "victim",
		cfg: func() Config {
			return Config{BufferSize: 1}
		},
		write: func(m *Manager, k func()) { m.Fix(key(0, 2), false, k) },
		want: []routeCost{
			{done: 0.1, drained: 0.1, nvem: 2},
			{done: 1.05, drained: 1.05, io: 2, nvem: 1, reads: 1, writes: 1},
			{done: 2, drained: 2, io: 2, reads: 1, writes: 1},
			{done: 2, drained: 2, sync: 2, reads: 1, writes: 1},
			{done: 2, drained: 2, io: 2, reads: 1, writes: 1},
			{done: 2, drained: 2, sync: 2, reads: 1, writes: 1},
		},
	},
	{
		name: "force",
		cfg: func() Config {
			return Config{BufferSize: 4, Force: true}
		},
		write: func(m *Manager, k func()) { m.ForcePages([]storage.PageKey{key(0, 1)}, k) },
		want: []routeCost{
			{done: 0.05, drained: 0.05, nvem: 1},
			{done: 0.05, drained: 1.05, io: 1, nvem: 1, writes: 1},
			{done: 1, drained: 1, io: 1, writes: 1},
			{done: 1, drained: 1, sync: 1, writes: 1},
			{done: 1, drained: 1, io: 1, writes: 1},
			{done: 1, drained: 1, sync: 1, writes: 1},
		},
	},
	{
		name: "checkpoint",
		cfg: func() Config {
			return Config{BufferSize: 4, Logging: true}
		},
		diskLog: true,
		write:   func(m *Manager, k func()) { m.fuzzyCheckpoint(m.ckptGen, k) },
		want: []routeCost{
			{done: 1.05, drained: 1.05, io: 1, nvem: 1, writes: 1},
			{done: 1.05, drained: 1.05, io: 2, nvem: 1, writes: 2},
			{done: 2, drained: 2, io: 2, writes: 2},
			{done: 2, drained: 2, io: 1, sync: 1, writes: 2},
			{done: 2, drained: 2, io: 2, writes: 2},
			{done: 2, drained: 2, io: 1, sync: 1, writes: 2},
		},
	},
	{
		name: "log",
		cfg: func() Config {
			return Config{BufferSize: 4, Logging: true}
		},
		write: func(m *Manager, k func()) { m.WriteLog(k) },
		want: []routeCost{
			{done: 0.05, drained: 0.05, nvem: 1},
			{done: 0.05, drained: 1.05, io: 1, nvem: 1, writes: 1},
			{done: 1, drained: 1, io: 1, writes: 1},
			{done: 1, drained: 1, io: 1, writes: 1},
			{done: 1, drained: 1, io: 1, writes: 1},
			{done: 1, drained: 1, io: 1, writes: 1},
		},
	},
}

// freeOps counts the ops on m's freelist.
func freeOps(m *Manager) int {
	n := 0
	for op := m.freeOps; op != nil; op = op.next {
		n++
	}
	return n
}

// TestWriteRoutes drives every writer through every home and pins what
// the write costs. The ops run poisoned from a freelist filled beforehand,
// so a stage that reads a field its issue path did not set misroutes or
// panics, and the freelist must be as full after the write as before: an
// op that never returns shows as one missing.
func TestWriteRoutes(t *testing.T) {
	poolPoison = true
	defer func() { poolPoison = false }()
	for _, w := range routeWriters {
		for h, home := range routeHomes {
			t.Run(w.name+"/"+home.name, func(t *testing.T) {
				cfg := w.cfg()
				cfg.Partitions = []PartitionAlloc{home.part}
				cfg.Log = home.log
				if w.diskLog {
					cfg.Log = LogAlloc{}
				}
				cfg.NVEMWriteBufferSize = 1
				r := newRigOn(t, cfg, routeUnit)
				r.m.Fix(key(0, 1), true, func() {})
				r.s.RunAll()

				ops := make([]*bufOp, 8)
				for i := range ops {
					ops[i] = r.m.getOp()
				}
				for _, op := range ops {
					r.m.putOp(op)
				}
				if home.wbFull {
					r.m.wbInUse = cfg.NVEMWriteBufferSize
				}
				pool := freeOps(r.m)
				host, unit, start := *r.host, r.unit.Stats(), r.s.Now()
				done := sim.Time(-1)
				w.write(r.m, func() { done = r.s.Now() - start })
				r.s.RunAll()

				got := routeCost{
					done:    done,
					drained: r.s.Now() - start,
					io:      r.host.ioCalls - host.ioCalls,
					sync:    r.host.syncCalls - host.syncCalls,
					nvem:    r.host.nvemCalls - host.nvemCalls,
					reads:   r.unit.Stats().Reads - unit.Reads,
					writes:  r.unit.Stats().Writes - unit.Writes,
				}
				if want := w.want[h]; !closeCost(got, want) {
					t.Errorf("cost %+v, want %+v", got, want)
				}
				if n := freeOps(r.m); n != pool {
					t.Errorf("%d ops on the freelist after the write, want %d", n, pool)
				}
			})
		}
	}
}

// closeCost compares two costs, their instants to within rounding.
func closeCost(a, b routeCost) bool {
	near := func(x, y sim.Time) bool { return x-y < 1e-9 && y-x < 1e-9 }
	return near(a.done, b.done) && near(a.drained, b.drained) &&
		a.io == b.io && a.sync == b.sync && a.nvem == b.nvem &&
		a.reads == b.reads && a.writes == b.writes
}

// TestWriteBufferCountsVictimsOnly: FORCE and log writes through the NVEM
// write buffer are not victims. Two forced pages (the second finds the
// one-frame buffer full and falls back to the device) and one log write
// leave the victim counters at zero, and the fallback is still counted.
func TestWriteBufferCountsVictimsOnly(t *testing.T) {
	cfg := Config{
		BufferSize:          10,
		Force:               true,
		Logging:             true,
		NVEMWriteBufferSize: 1,
		Partitions:          []PartitionAlloc{{NVEMWriteBuffer: true}},
		Log:                 LogAlloc{NVEMWriteBuffer: true},
	}
	r := newRigOn(t, cfg, routeUnit)
	noop := func() {}
	r.m.Fix(key(0, 1), true, noop)
	r.m.Fix(key(0, 2), true, noop)
	r.s.RunAll()
	r.m.ForcePages([]storage.PageKey{key(0, 1), key(0, 2)}, noop)
	r.s.RunAll()
	r.m.WriteLog(noop)
	r.s.RunAll()
	st := r.m.Stats()
	if st.ForceWrites != 2 || st.LogWrites != 1 {
		t.Fatalf("setup: %d force and %d log writes, want 2 and 1", st.ForceWrites, st.LogWrites)
	}
	if st.VictimToWB != 0 || st.VictimWrites != 0 || st.WBFullSync != 1 {
		t.Fatalf("VictimToWB=%d VictimWrites=%d WBFullSync=%d, want 0, 0, 1",
			st.VictimToWB, st.VictimWrites, st.WBFullSync)
	}
}

// TestForceSkipsMMResident: a page of a memory-resident partition in a
// force set is not written (NOFORCE propagation for resident partitions).
func TestForceSkipsMMResident(t *testing.T) {
	cfg := Config{
		BufferSize: 4,
		Force:      true,
		Partitions: []PartitionAlloc{{MMResident: true}, {}},
	}
	r := newRigOn(t, cfg, routeUnit)
	r.m.Fix(key(0, 1), true, func() {})
	r.m.Fix(key(1, 1), true, func() {})
	r.s.RunAll()
	forced := false
	r.m.ForcePages([]storage.PageKey{key(0, 1), key(1, 1)}, func() { forced = true })
	r.s.RunAll()
	if !forced || r.m.Stats().ForceWrites != 1 || r.unit.Stats().Writes != 1 {
		t.Fatalf("forced %v, %d force writes, %d unit writes; want true, 1, 1",
			forced, r.m.Stats().ForceWrites, r.unit.Stats().Writes)
	}
}

// delayBus is loopbackBus with the probe verdict arriving delay ms later,
// as it does across a cluster interconnect.
type delayBus struct {
	m     *Manager
	delay sim.Time
}

func (b *delayBus) Probe(key storage.PageKey, k func(hit, dirty bool)) {
	b.m.sim.Schedule(b.delay, func() { k(b.m.ApplySharedProbe(key)) })
}

func (b *delayBus) Put(key storage.PageKey, dirty bool) { b.m.ApplySharedPut(key, dirty) }

// TestRemoteProbePromotesDirtyAfterReplacement: a probe hit that promotes
// a deferred-destage modification into a frame another fix replaced while
// the probe was in flight writes the modification to disk itself.
func TestRemoteProbePromotesDirtyAfterReplacement(t *testing.T) {
	cfg := Config{
		BufferSize:          1,
		NVEMCacheSize:       4,
		NVEMDeferredDestage: true,
		Partitions:          []PartitionAlloc{{NVEMCache: true, NVEMCacheMode: MigrateModified}},
	}
	r := newRigOn(t, cfg, routeUnit)
	shared, err := NewSharedNVEMCache(4)
	if err != nil {
		t.Fatal(err)
	}
	bus := &delayBus{delay: 0.01}
	m, err := NewShared(cfg, []string{"p"}, []*storage.DiskUnit{r.unit}, r.host.nvem, r.host, shared, bus)
	if err != nil {
		t.Fatal(err)
	}
	bus.m = m
	noop := func() {}
	m.Fix(key(0, 1), true, noop)
	r.s.RunAll()
	m.Fix(key(0, 2), false, noop) // dirty page 1 migrates into the shared cache
	r.s.RunAll()
	writes := r.unit.Stats().Writes
	// Page 1's probe is in flight when the fix of page 3 replaces its
	// frame; the probe then promotes page 1's modification.
	m.Fix(key(0, 1), false, noop)
	m.Fix(key(0, 3), false, noop)
	r.s.RunAll()
	st := m.Stats()
	if st.NVEMCacheHits != 1 || st.AsyncDiskWrites != 1 || r.unit.Stats().Writes != writes+1 {
		t.Fatalf("%d cache hits, %d async writes, %d unit writes; want 1, 1, 1",
			st.NVEMCacheHits, st.AsyncDiskWrites, r.unit.Stats().Writes-writes)
	}
	if _, ok := m.mm.Peek(key(0, 1)); ok {
		t.Fatal("page 1's frame survived its replacement")
	}
}

// TestInvalidateDirtyNVEMResident: invalidating a dirty page of an
// NVEM-resident partition writes it back to its NVEM home in the
// background, on a pooled op.
func TestInvalidateDirtyNVEMResident(t *testing.T) {
	r := newRigOn(t, Config{BufferSize: 2, Partitions: []PartitionAlloc{{NVEMResident: true}}}, routeUnit)
	r.m.Fix(key(0, 1), true, func() {})
	r.s.RunAll()
	nvem := r.host.nvemCalls
	if had, dirty := r.m.Invalidate(key(0, 1)); !had || !dirty {
		t.Fatalf("Invalidate = (%v, %v), want (true, true)", had, dirty)
	}
	r.s.RunAll()
	if r.host.nvemCalls != nvem+1 || r.m.MMLen() != 0 || freeOps(r.m) != 1 {
		t.Fatalf("%d NVEM transfers, %d frames, %d free ops; want 1, 0, 1",
			r.host.nvemCalls-nvem, r.m.MMLen(), freeOps(r.m))
	}
}
