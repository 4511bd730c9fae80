package buffer

import (
	"testing"

	"repro/internal/rng"
	"repro/internal/sim"
	"repro/internal/storage"
)

// loopbackBus resolves shared-cache operations against the same manager's
// coordinator entry points with zero delay — the unit-test stand-in for
// the PDES interconnect, which only adds latency between the same calls.
type loopbackBus struct{ m *Manager }

func (b *loopbackBus) Probe(key storage.PageKey, k func(hit, dirty bool)) {
	k(b.m.ApplySharedProbe(key))
}

func (b *loopbackBus) Put(key storage.PageKey, dirty bool) {
	b.m.ApplySharedPut(key, dirty)
}

// newRemoteRig mirrors newRig but wires the manager in remote mode: the
// shared NVEM cache sits behind a loopback bus.
func newRemoteRig(t *testing.T, cfg Config, frames int) *rig {
	t.Helper()
	s := sim.New()
	unitCfg := storage.DiskUnitConfig{
		Name: "u0", Type: storage.Regular,
		NumControllers: 4, ContrDelay: 1, TransDelay: 0.4,
		NumDisks: 4, DiskDelay: 15,
	}
	unit, err := storage.NewDiskUnit(s, unitCfg, rng.NewStream(1, "unit"))
	if err != nil {
		t.Fatal(err)
	}
	nvem, err := storage.NewNVEM(s, 1, 0.05)
	if err != nil {
		t.Fatal(err)
	}
	host := &testHost{s: s, nvem: nvem}
	names := make([]string, len(cfg.Partitions))
	for i := range names {
		names[i] = "p"
	}
	shared, err := NewSharedNVEMCache(frames)
	if err != nil {
		t.Fatal(err)
	}
	bus := &loopbackBus{}
	m, err := NewShared(cfg, names, []*storage.DiskUnit{unit}, nvem, host, shared, bus)
	if err != nil {
		t.Fatal(err)
	}
	bus.m = m
	return &rig{s: s, host: host, m: m, unit: unit}
}

// TestFixRemoteSharedCache drives the remote fix path end to end under
// NOFORCE with deferred destage: victims migrate into the shared cache
// over the bus, a later probe hit promotes the deferred-dirty copy back
// up (single-copy management), and misses fall through to device reads.
func TestFixRemoteSharedCache(t *testing.T) {
	cfg := Config{
		BufferSize:          2,
		NVEMCacheSize:       4,
		NVEMDeferredDestage: true,
		Partitions: []PartitionAlloc{
			{DiskUnit: 0, NVEMCache: true, NVEMCacheMode: MigrateAll},
		},
	}
	r := newRemoteRig(t, cfg, 4)
	r.drive(
		fix(r.m, key(0, 1), true),  // miss, probe miss, device read
		fix(r.m, key(0, 2), false), // miss, probe miss, device read
		fix(r.m, key(0, 3), false), // victim 1 (dirty) migrates; miss
		fix(r.m, key(0, 1), false), // victim 2 (clean) migrates; probe hit
	)
	st := r.m.Stats()
	if st.DeviceReads != 3 || st.NVEMCacheHits != 1 || st.VictimToNVEM != 2 {
		t.Fatalf("remote fix stats: %+v", st)
	}
	// Page 1's probe hit removed it from the shared cache; only page 2
	// (the clean migrant) remains.
	if r.m.NVEMCacheLen() != 1 {
		t.Fatalf("shared cache occupancy = %d, want 1", r.m.NVEMCacheLen())
	}
	// The deferred-dirty copy promoted: page 1's frame carries the
	// modification written before it was replaced.
	if f, ok := r.m.mm.Peek(key(0, 1)); !ok || !f.dirty {
		t.Fatalf("promoted copy not dirty in MM: ok=%v frame=%+v", ok, f)
	}
}

// TestFixRemoteVictimFromPlainPartition pins the remote path's victim
// disposal when the replaced frame belongs to a partition without NVEM
// caching: a dirty victim pays a synchronous device write, a clean one is
// dropped.
func TestFixRemoteVictimFromPlainPartition(t *testing.T) {
	cfg := Config{
		BufferSize:    2,
		NVEMCacheSize: 4,
		Partitions: []PartitionAlloc{
			{DiskUnit: 0},
			{DiskUnit: 0, NVEMCache: true, NVEMCacheMode: MigrateAll},
		},
	}
	r := newRemoteRig(t, cfg, 4)
	r.drive(
		fix(r.m, key(0, 1), true),  // plain partition, fills MM
		fix(r.m, key(0, 2), false), // plain partition, fills MM
		fix(r.m, key(1, 1), false), // remote fix; dirty plain victim
		fix(r.m, key(1, 2), false), // remote fix; clean plain victim
	)
	st := r.m.Stats()
	if st.VictimWrites != 1 || st.CleanDrops != 1 || st.DeviceReads != 4 {
		t.Fatalf("plain-victim disposal stats: %+v", st)
	}
}
