package core

import (
	"math"
	"testing"

	"repro/internal/buffer"
	"repro/internal/cc"
	"repro/internal/storage"
	"repro/internal/workload"
)

// dcConfig builds a small Debit-Credit run: partitions on one regular DB
// unit, log on a log-disk unit, NOFORCE.
func dcConfig(t testing.TB, rate float64) Config {
	t.Helper()
	return dcConfigSeed(t, rate, 1)
}

func dcConfigSeed(t testing.TB, rate float64, seed int64) Config {
	t.Helper()
	gen, err := workload.NewDebitCredit(workload.DefaultDebitCreditConfig(rate))
	if err != nil {
		t.Fatal(err)
	}
	cfg := Defaults()
	cfg.Seed = seed
	// The 2000-frame buffer fills at roughly one new page per transaction;
	// warm long enough to reach cache steady state at the test rates.
	cfg.WarmupMS = 12_000
	cfg.MeasureMS = 20_000
	cfg.Partitions = gen.Partitions()
	cfg.Generator = gen
	cfg.CCModes = []cc.Granularity{cc.PageLevel, cc.PageLevel, cc.NoCC}
	cfg.DiskUnits = []storage.DiskUnitConfig{
		{Name: "db", Type: storage.Regular, NumControllers: 8, ContrDelay: DefaultContrDelay,
			TransDelay: DefaultTransDelay, NumDisks: 48, DiskDelay: DefaultDBDiskDelay},
		{Name: "log", Type: storage.Regular, NumControllers: 2, ContrDelay: DefaultContrDelay,
			TransDelay: DefaultTransDelay, NumDisks: 8, DiskDelay: DefaultLogDiskDelay},
	}
	cfg.Buffer = buffer.Config{
		BufferSize: 2000,
		Logging:    true,
		Partitions: []buffer.PartitionAlloc{
			{DiskUnit: 0}, {DiskUnit: 0}, {DiskUnit: 0},
		},
		Log: buffer.LogAlloc{DiskUnit: 1},
	}
	return cfg
}

func TestRunValidatesConfig(t *testing.T) {
	cfg := dcConfig(t, 250)
	cfg.MPL = 0
	if _, err := Run(cfg); err == nil {
		t.Fatal("expected validation error")
	}
	cfg = dcConfig(t, 250)
	cfg.CCModes = cfg.CCModes[:1]
	if _, err := Run(cfg); err == nil {
		t.Fatal("expected CC modes mismatch error")
	}
}

func TestDebitCreditDiskBasedRun(t *testing.T) {
	res, err := Run(dcConfig(t, 250))
	if err != nil {
		t.Fatal(err)
	}
	// Throughput must track the arrival rate (open system, no saturation).
	if math.Abs(res.Throughput-250) > 15 {
		t.Fatalf("throughput = %v, want ~250", res.Throughput)
	}
	if res.Saturated {
		t.Fatal("250 TPS must not saturate this configuration")
	}
	// Disk-based Debit-Credit: ~2 DB I/Os + 1 log I/O ≈ 40 ms + CPU.
	if res.RespMean < 25 || res.RespMean > 70 {
		t.Fatalf("response = %v ms, want ~40", res.RespMean)
	}
	// Main-memory hit ratio ≈ 72.5% with a 2000-page buffer (section 4.3).
	if math.Abs(res.MMHitPct-72.5) > 3 {
		t.Fatalf("MM hit ratio = %v%%, want ~72.5%%", res.MMHitPct)
	}
	if res.Commits < 500 {
		t.Fatalf("commits = %d, too few for the window", res.Commits)
	}
	if res.Buffer.LogWrites == 0 {
		t.Fatal("no log writes recorded")
	}
}

// TestFootnote6HitRatios checks the per-partition hit pattern the paper
// reports: ~0% ACCOUNT, ~95% HISTORY (block factor 20), ~95% BRANCH page
// fetched by the BRANCH access, 100% TELLER (clustered, same page).
func TestFootnote6HitRatios(t *testing.T) {
	res, err := Run(dcConfig(t, 250))
	if err != nil {
		t.Fatal(err)
	}
	byName := map[string]PartitionReport{}
	for _, p := range res.Partitions {
		byName[p.Name] = p
	}
	if acc := byName["ACCOUNT"]; acc.MMHitPct > 2 {
		t.Errorf("ACCOUNT hit ratio = %v%%, want ~0%%", acc.MMHitPct)
	}
	if hist := byName["HISTORY"]; math.Abs(hist.MMHitPct-95) > 2 {
		t.Errorf("HISTORY hit ratio = %v%%, want ~95%%", hist.MMHitPct)
	}
	// BRANCH/TELLER combined: (95+100)/2 ≈ 97.5%.
	if bt := byName["BRANCH/TELLER"]; math.Abs(bt.MMHitPct-97.5) > 2 {
		t.Errorf("BRANCH/TELLER hit ratio = %v%%, want ~97.5%%", bt.MMHitPct)
	}
}

func TestNVEMResidentFastResponse(t *testing.T) {
	cfg := dcConfig(t, 250)
	cfg.Buffer.Partitions = []buffer.PartitionAlloc{
		{NVEMResident: true}, {NVEMResident: true}, {NVEMResident: true},
	}
	cfg.Buffer.Log = buffer.LogAlloc{NVEMResident: true}
	cfg.DiskUnits = nil
	cfg.Buffer.Partitions[0].DiskUnit = 0
	res, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	// NVEM-resident: response time almost exclusively CPU (≈5 ms service).
	if res.RespMean > 12 {
		t.Fatalf("NVEM-resident response = %v ms, want < 12", res.RespMean)
	}
	if res.Buffer.DeviceReads != 0 {
		t.Fatal("NVEM-resident run touched disk units")
	}
}

func TestResponseTimeOrderingAcrossAllocations(t *testing.T) {
	disk, err := Run(dcConfig(t, 250))
	if err != nil {
		t.Fatal(err)
	}

	// Write buffer in NVEM for all DB partitions + log.
	wb := dcConfig(t, 250)
	for i := range wb.Buffer.Partitions {
		wb.Buffer.Partitions[i].NVEMWriteBuffer = true
	}
	wb.Buffer.Log = buffer.LogAlloc{DiskUnit: 1, NVEMWriteBuffer: true}
	wb.Buffer.NVEMWriteBufferSize = 2000
	wbRes, err := Run(wb)
	if err != nil {
		t.Fatal(err)
	}

	nv := dcConfig(t, 250)
	nv.Buffer.Partitions = []buffer.PartitionAlloc{
		{NVEMResident: true}, {NVEMResident: true}, {NVEMResident: true},
	}
	nv.Buffer.Log = buffer.LogAlloc{NVEMResident: true}
	nvRes, err := Run(nv)
	if err != nil {
		t.Fatal(err)
	}

	// Paper ordering (Fig 4.2): NVEM-resident < write buffer < disk.
	if !(nvRes.RespMean < wbRes.RespMean && wbRes.RespMean < disk.RespMean) {
		t.Fatalf("ordering violated: nvem=%.2f wb=%.2f disk=%.2f",
			nvRes.RespMean, wbRes.RespMean, disk.RespMean)
	}
	// The write buffer should roughly halve disk-based response times
	// (section 4.3: "response times could be cut by a factor 2").
	if wbRes.RespMean > 0.75*disk.RespMean {
		t.Fatalf("write buffer saved too little: wb=%.2f disk=%.2f",
			wbRes.RespMean, disk.RespMean)
	}
}

func TestSingleLogDiskSaturates(t *testing.T) {
	cfg := dcConfig(t, 400)
	cfg.DiskUnits[1].NumDisks = 1
	cfg.DiskUnits[1].NumControllers = 1
	cfg.WarmupMS = 1000
	cfg.MeasureMS = 6000
	res, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	// One 5ms log disk sustains ≈200 log writes/s; offered 400 TPS must
	// saturate (section 4.2).
	if !res.Saturated && res.Throughput > 260 {
		t.Fatalf("expected saturation: %+v", res)
	}
	if res.Throughput > 260 {
		t.Fatalf("throughput = %v, single log disk must cap near 200", res.Throughput)
	}
}

func TestDeterministicRuns(t *testing.T) {
	a, err := Run(dcConfigSeed(t, 80, 7))
	if err != nil {
		t.Fatal(err)
	}
	b, err := Run(dcConfigSeed(t, 80, 7))
	if err != nil {
		t.Fatal(err)
	}
	if a.Commits != b.Commits || a.RespMean != b.RespMean || a.MMHitPct != b.MMHitPct {
		t.Fatalf("same seed diverged:\n%v\n%v", a, b)
	}
	c, err := Run(dcConfigSeed(t, 80, 8))
	if err != nil {
		t.Fatal(err)
	}
	if a.Commits == c.Commits && a.RespMean == c.RespMean {
		t.Fatal("different seeds produced identical results (suspicious)")
	}
}

func TestForceMoreWrites(t *testing.T) {
	noforce, err := Run(dcConfig(t, 250))
	if err != nil {
		t.Fatal(err)
	}
	fcfg := dcConfig(t, 250)
	fcfg.Buffer.Force = true
	force, err := Run(fcfg)
	if err != nil {
		t.Fatal(err)
	}
	if force.Buffer.ForceWrites == 0 {
		t.Fatal("FORCE run recorded no force writes")
	}
	// FORCE writes 3 pages per transaction at commit; response time must be
	// clearly higher than NOFORCE on a disk-based configuration (Fig 4.3).
	if force.RespMean <= noforce.RespMean*1.3 {
		t.Fatalf("FORCE resp %.2f vs NOFORCE %.2f: expected much higher",
			force.RespMean, noforce.RespMean)
	}
}

func TestMMResidentOnlyLogIO(t *testing.T) {
	cfg := dcConfig(t, 250)
	cfg.Buffer.Partitions = []buffer.PartitionAlloc{
		{MMResident: true}, {MMResident: true}, {MMResident: true},
	}
	res, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if res.Buffer.DeviceReads != 0 || res.Buffer.VictimWrites != 0 {
		t.Fatalf("MM-resident run did DB I/O: %+v", res.Buffer)
	}
	if res.Buffer.LogWrites == 0 {
		t.Fatal("logging must still happen")
	}
	if res.MMHitPct < 99.9 {
		t.Fatalf("hit ratio = %v%%", res.MMHitPct)
	}
}

func TestLockConflictsAccounted(t *testing.T) {
	// High rate on the small BRANCH/TELLER partition with page locks must
	// produce some lock conflicts.
	cfg := dcConfig(t, 300)
	cfg.WarmupMS = 1000
	cfg.MeasureMS = 5000
	res, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if res.Locks.Requests == 0 {
		t.Fatal("no lock requests recorded")
	}
	// Debit-Credit orders record types consistently: deadlock-free.
	if res.Locks.Deadlocks != 0 {
		t.Fatalf("deadlocks = %d, Debit-Credit must be deadlock-free", res.Locks.Deadlocks)
	}
}

func TestThroughputScalesWithRate(t *testing.T) {
	lo, err := Run(dcConfig(t, 50))
	if err != nil {
		t.Fatal(err)
	}
	hi, err := Run(dcConfig(t, 200))
	if err != nil {
		t.Fatal(err)
	}
	if hi.Throughput < lo.Throughput*3 {
		t.Fatalf("throughput did not scale: %v → %v", lo.Throughput, hi.Throughput)
	}
}
