package experiments

import (
	"testing"

	"repro/internal/core"
)

// TestGroupCommitRescuesSingleLogDisk: with group commit, one log disk
// carries the log traffic of many transactions per I/O, so 500 TPS works;
// without it, the disk saturates near 200 TPS (section 4.2's discussion).
func TestGroupCommitRescuesSingleLogDisk(t *testing.T) {
	if testing.Short() {
		t.Skip("simulation test")
	}
	base := DCSetup{Rate: 500, DB: DBSpec{Kind: DBRegular}, Log: LogSpec{Kind: LogDisk, Disks: 1}}

	plain, err := base.Run(quick)
	if err != nil {
		t.Fatal(err)
	}
	cfg, err := base.Build(quick)
	if err != nil {
		t.Fatal(err)
	}
	cfg.Buffer.GroupCommit = true
	cfg.Buffer.GroupCommitWaitMS = 5
	grouped, err := core.Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if plain.Throughput > 260 {
		t.Errorf("plain single log disk sustained %.0f TPS", plain.Throughput)
	}
	if grouped.Throughput < 450 {
		t.Errorf("group commit sustained only %.0f TPS", grouped.Throughput)
	}
	if grouped.Buffer.GroupCommits == 0 {
		t.Error("no groups flushed")
	}
	// Far fewer physical log writes than commits.
	if grouped.Buffer.LogWrites*2 > grouped.Commits {
		t.Errorf("log writes %d vs commits %d: batching ineffective",
			grouped.Buffer.LogWrites, grouped.Commits)
	}
}

// TestAsyncReplacementNarrowsGap: software async replacement removes the
// synchronous victim write, landing between plain disk and the NV write
// buffer (section 4.3's footnote discussion).
func TestAsyncReplacementNarrowsGap(t *testing.T) {
	if testing.Short() {
		t.Skip("simulation test")
	}
	base := DCSetup{Rate: 200, DB: DBSpec{Kind: DBRegular}, Log: LogSpec{Kind: LogDisk}}
	sync, err := base.Run(quick)
	if err != nil {
		t.Fatal(err)
	}
	cfg, err := base.Build(quick)
	if err != nil {
		t.Fatal(err)
	}
	cfg.Buffer.AsyncReplacement = true
	async, err := core.Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	wb, err := DCSetup{Rate: 200, DB: DBSpec{Kind: DBDiskCacheWB, Size: 500},
		Log: LogSpec{Kind: LogDiskWB, Size: 500}}.Run(quick)
	if err != nil {
		t.Fatal(err)
	}
	if !(wb.RespMean < async.RespMean && async.RespMean < sync.RespMean) {
		t.Errorf("expected wb (%.2f) < async (%.2f) < sync (%.2f)",
			wb.RespMean, async.RespMean, sync.RespMean)
	}
	if async.Buffer.VictimWrites != 0 || async.Buffer.VictimAsync == 0 {
		t.Errorf("async replacement accounting wrong: %+v", async.Buffer)
	}
}

// TestMigrationModeAllBest reproduces the section 4.6 finding that the best
// NVEM hit ratios result when all pages migrate from main memory to NVEM.
func TestMigrationModeAllBest(t *testing.T) {
	if testing.Short() {
		t.Skip("simulation test")
	}
	fig, err := AblationMigrationModes(quick)
	if err != nil {
		t.Fatal(err)
	}
	hits := fig.Series[0].Points // all, modified, unmodified
	// For a 98.4%-read trace, "all" and "unmodified" are nearly the same
	// policy; allow sampling noise there, but "modified"-only must be far
	// worse (almost nothing migrates).
	const eps = 0.5
	if hits[0]+eps < hits[1] || hits[0]+eps < hits[2] {
		t.Errorf("migrate-all hits %.2f%% must be >= modified %.2f%% and unmodified %.2f%%",
			hits[0], hits[1], hits[2])
	}
	if hits[1] > hits[0]/2 {
		t.Errorf("modified-only hits %.2f%% suspiciously close to all-pages %.2f%%", hits[1], hits[0])
	}
}

// TestDeferredDestageReducesForceWrites checks the section 3.2 trade-off.
func TestDeferredDestageReducesForceWrites(t *testing.T) {
	if testing.Short() {
		t.Skip("simulation test")
	}
	mk := func(deferred bool) int64 {
		cfg, err := DCSetup{Rate: 500, Force: true, MMBuffer: 2000,
			DB: DBSpec{Kind: DBNVEMCache, Size: 1000}, Log: LogSpec{Kind: LogNVEM}}.Build(quick)
		if err != nil {
			t.Fatal(err)
		}
		cfg.Buffer.NVEMDeferredDestage = deferred
		res, err := core.Run(cfg)
		if err != nil {
			t.Fatal(err)
		}
		return res.Units[0].Stats.Writes
	}
	immediate := mk(false)
	deferred := mk(true)
	if deferred >= immediate {
		t.Errorf("deferred destage wrote %d pages, immediate %d: no saving", deferred, immediate)
	}
}
