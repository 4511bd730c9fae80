package core

import (
	"testing"

	"repro/internal/buffer"
	"repro/internal/cc"
	"repro/internal/rng"
	"repro/internal/storage"
	"repro/internal/workload"
)

// scriptGen replays a fixed list of transactions, then produces empty ones
// (which the engine never admits). It lets a test saturate the warm-up
// phase and leave the measurement window idle under a constant arrival
// rate.
type scriptGen struct {
	rate float64
	txs  []workload.Tx
	i    int
}

func (g *scriptGen) NumTypes() int                  { return 1 }
func (g *scriptGen) TypeInfo(int) (string, float64) { return "script", g.rate }
func (g *scriptGen) Next(_ int, _ *rng.Stream) workload.Tx {
	if g.i < len(g.txs) {
		g.i++
		return g.txs[g.i-1]
	}
	return workload.Tx{}
}

// scriptConfig is a minimal one-partition, one-disk configuration around a
// scripted generator.
func scriptConfig(gen *scriptGen) Config {
	cfg := Defaults()
	cfg.Partitions = []workload.Partition{{Name: "db", NumObjects: 100_000, BlockFactor: 1}}
	cfg.CCModes = []cc.Granularity{cc.PageLevel}
	cfg.Generator = gen
	cfg.DiskUnits = []storage.DiskUnitConfig{
		{Name: "db", Type: storage.Regular, NumControllers: 2,
			ContrDelay: DefaultContrDelay, TransDelay: DefaultTransDelay,
			NumDisks: 4, DiskDelay: DefaultDBDiskDelay},
	}
	cfg.Buffer = buffer.Config{
		BufferSize: 50,
		Logging:    false,
		Partitions: []buffer.PartitionAlloc{{DiskUnit: 0}},
		Log:        buffer.LogAlloc{DiskUnit: 0},
	}
	return cfg
}

// access builds one read or write access to a distinct page (the
// partition holds one object per page).
func access(page int64, write bool) workload.Access {
	return workload.Access{Partition: 0, Object: page, Write: write}
}

// TestWarmupDropsExcluded saturates the input queue during warm-up only:
// a burst of slow transactions overwhelms MPL=1 and the tiny queue cap,
// then the load stops well before the snapshot. Drops (and the Saturated
// flag derived from them) must not leak into the measured window.
func TestWarmupDropsExcluded(t *testing.T) {
	gen := &scriptGen{rate: 200} // 5ms interarrivals
	for i := 0; i < 40; i++ {
		var tx workload.Tx
		for j := 0; j < 3; j++ {
			tx.Accesses = append(tx.Accesses, access(int64(i*10+j), false))
		}
		gen.txs = append(gen.txs, tx)
	}
	cfg := scriptConfig(gen)
	cfg.MPL = 1
	cfg.NumCPU = 1
	cfg.MaxQueue = 3
	cfg.WarmupMS = 5000
	cfg.MeasureMS = 3000
	res, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	// The burst arrives and saturates within the first ~200ms of warm-up:
	// only 1 running + 3 queued survive, everything else is dropped there.
	// The queue drains long before the snapshot, so the measured window
	// sees no arrivals, no drops and no saturation.
	if res.Dropped != 0 {
		t.Fatalf("Dropped = %d, want 0: warm-up drops leaked into the window", res.Dropped)
	}
	if res.Saturated {
		t.Fatal("Saturated set although the measured window was idle")
	}
	if res.Commits != 0 {
		t.Fatalf("Commits = %d, want 0 (all survivors commit during warm-up)", res.Commits)
	}
}

// TestBoundaryStraddlingLockWaitClamped: a lock wait that begins before
// the warm-up snapshot and ends inside the window must only be credited
// its in-window part. The holder grabs a write lock at t≈5ms and keeps
// running for ~1.7 simulated seconds past the 1s warm-up boundary; the
// waiter's full wait (~1.7s) would exceed the clamped wait (~0.7s) by far.
func TestBoundaryStraddlingLockWaitClamped(t *testing.T) {
	var holder workload.Tx
	holder.Accesses = append(holder.Accesses, access(0, true))
	for j := int64(1); j <= 100; j++ {
		holder.Accesses = append(holder.Accesses, access(j, false))
	}
	waiter := workload.Tx{Accesses: []workload.Access{access(0, true)}}
	gen := &scriptGen{rate: 400, txs: []workload.Tx{holder, waiter}}
	cfg := scriptConfig(gen)
	cfg.WarmupMS = 1000
	cfg.MeasureMS = 4000
	res, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if res.Commits != 2 {
		t.Fatalf("Commits = %d, want 2 (holder and waiter inside the window)", res.Commits)
	}
	waitSum := res.LockWaitMean * float64(res.Commits)
	if waitSum <= 0 {
		t.Fatal("no lock wait recorded for the straddling conflict")
	}
	// Unclamped accounting would record the whole ~1.7s wait; the clamp
	// caps the credited part at (grant time - warm start) < 1.3s even
	// with generous variance on the holder's disk reads.
	if waitSum >= 1300 {
		t.Fatalf("lock wait sum = %.1f ms: straddling wait not clamped to the window", waitSum)
	}
	if res.IOWaitMean > res.RespMean {
		t.Fatalf("io wait %v > response %v", res.IOWaitMean, res.RespMean)
	}
}

// TestTinyMaxQueueIdleNotSaturated pins the saturation threshold's
// rounding: with MaxQueue = 1, plain integer division made the threshold
// ⌊1/2⌋ = 0, so peakQueue >= 0 held vacuously and an entirely idle run
// reported Saturated. The half-queue threshold must round up, keeping an
// idle run with a tiny queue cap unsaturated.
func TestTinyMaxQueueIdleNotSaturated(t *testing.T) {
	gen := &scriptGen{rate: 100} // no scripted txs: the run stays idle
	cfg := scriptConfig(gen)
	cfg.MPL = 1
	cfg.NumCPU = 1
	cfg.MaxQueue = 1
	cfg.WarmupMS = 1000
	cfg.MeasureMS = 2000
	res, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if res.Dropped != 0 || res.Commits != 0 {
		t.Fatalf("idle run: Dropped=%d Commits=%d, want 0/0", res.Dropped, res.Commits)
	}
	if res.Saturated {
		t.Fatal("Saturated set for an idle run with MaxQueue = 1")
	}
}

// TestPeakQueueSaturation: sustained overload mid-window must flag
// Saturated even when the queue happens to be drained at collection time.
// A burst that saturates inside the window (but drains before its end)
// leaves drops and a peak queue behind.
func TestPeakQueueSaturation(t *testing.T) {
	gen := &scriptGen{rate: 200}
	// Empty warm-up; the burst lands inside the measured window.
	for i := 0; i < 40; i++ {
		var tx workload.Tx
		for j := 0; j < 3; j++ {
			tx.Accesses = append(tx.Accesses, access(int64(i*10+j), false))
		}
		gen.txs = append(gen.txs, tx)
	}
	cfg := scriptConfig(gen)
	cfg.MPL = 1
	cfg.NumCPU = 1
	cfg.MaxQueue = 3
	cfg.WarmupMS = 0
	cfg.MeasureMS = 8000
	res, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if res.Dropped == 0 {
		t.Fatal("expected in-window drops from the burst")
	}
	if !res.Saturated {
		t.Fatal("Saturated not set despite in-window overload")
	}
}
