package experiments

import (
	"math"
	"reflect"
	"strings"
	"sync"
	"testing"

	"repro/internal/cc"
	"repro/internal/workload"
)

var quick = Options{Quick: true}

func TestRegistry(t *testing.T) {
	all := All()
	if len(all) != 31 {
		t.Fatalf("registry has %d experiments, want 31", len(all))
	}
	seen := map[string]bool{}
	for _, e := range all {
		if e.Name == "" || e.Title == "" || e.Run == nil {
			t.Fatalf("incomplete experiment %+v", e)
		}
		if seen[e.Name] {
			t.Fatalf("duplicate experiment %q", e.Name)
		}
		seen[e.Name] = true
	}
	for _, want := range []string{"fig4.1", "fig4.2", "fig4.3", "fig4.4", "fig4.5",
		"fig4.6", "fig4.7", "fig4.8", "table4.2a", "table4.2b", "table2.1",
		"cluster.scaleout", "cluster.scaleout64", "cluster.scaleout256",
		"cluster.allocation", "cluster.locking",
		"recovery.restart", "recovery.checkpoint", "recovery.availability",
		"workload.burstiness", "workload.spike-crash", "workload.diurnal"} {
		if !seen[want] {
			t.Errorf("missing experiment %q", want)
		}
	}
	if es, err := Match(`fig4\.1`); err != nil || len(es) != 1 || es[0].Name != "fig4.1" {
		t.Fatalf("Match(fig4\\.1) found %d experiments (%v); want fig4.1 alone", len(es), err)
	}
	if _, err := Match("nope"); err == nil {
		t.Fatal("unknown name must error")
	}
}

func TestDCSetupBuildValidates(t *testing.T) {
	if _, err := (DCSetup{Rate: 100, DB: DBSpec{Kind: DBKind(99)}}).Build(quick); err == nil {
		t.Fatal("bad DB kind must error")
	}
	if _, err := (DCSetup{Rate: 100, Log: LogSpec{Kind: LogKind(99)}}).Build(quick); err == nil {
		t.Fatal("bad log kind must error")
	}
	cfg, err := DCSetup{Rate: 100, DB: DBSpec{Kind: DBNVEMCache}, Log: LogSpec{Kind: LogNVEM}}.Build(quick)
	if err != nil {
		t.Fatal(err)
	}
	if err := cfg.Validate(); err != nil {
		t.Fatal(err)
	}
}

// TestFig41Saturation reproduces Fig 4.1's headline: a single log disk
// saturates near 200 TPS while SSD- and NVEM-resident logs sustain the load,
// with NVEM having the lowest response time.
func TestFig41Saturation(t *testing.T) {
	if testing.Short() {
		t.Skip("simulation test")
	}
	single, err := DCSetup{Rate: 500, DB: DBSpec{Kind: DBRegular},
		Log: LogSpec{Kind: LogDisk, Disks: 1}}.Run(quick)
	if err != nil {
		t.Fatal(err)
	}
	if single.Throughput > 260 {
		t.Errorf("single log disk sustained %.0f TPS, must cap near 200", single.Throughput)
	}
	ssd, err := DCSetup{Rate: 500, DB: DBSpec{Kind: DBRegular}, Log: LogSpec{Kind: LogSSD}}.Run(quick)
	if err != nil {
		t.Fatal(err)
	}
	nvem, err := DCSetup{Rate: 500, DB: DBSpec{Kind: DBRegular}, Log: LogSpec{Kind: LogNVEM}}.Run(quick)
	if err != nil {
		t.Fatal(err)
	}
	if ssd.Saturated || nvem.Saturated {
		t.Error("SSD/NVEM logs must sustain 500 TPS")
	}
	if nvem.RespMean >= ssd.RespMean {
		t.Errorf("NVEM log (%.2f) must beat SSD log (%.2f)", nvem.RespMean, ssd.RespMean)
	}
}

// TestAggregateBufferEquivalence verifies the section 4.5 result at engine
// level: under NOFORCE, MM(500) + NVEM cache(500) achieves the same combined
// hit ratio as MM(1000) alone (the paper quotes 66.7%).
func TestAggregateBufferEquivalence(t *testing.T) {
	if testing.Short() {
		t.Skip("simulation test")
	}
	split, err := DCSetup{Rate: 500, MMBuffer: 500,
		DB: DBSpec{Kind: DBNVEMCache, Size: 500}, Log: LogSpec{Kind: LogNVEM}}.Run(quick)
	if err != nil {
		t.Fatal(err)
	}
	mono, err := DCSetup{Rate: 500, MMBuffer: 1000,
		DB: DBSpec{Kind: DBRegular}, Log: LogSpec{Kind: LogNVEM}}.Run(quick)
	if err != nil {
		t.Fatal(err)
	}
	combined := split.MMHitPct + split.NVEMAddHitPct
	if math.Abs(combined-mono.MMHitPct) > 1.5 {
		t.Errorf("combined hit %.1f%% vs monolithic %.1f%%: aggregate equivalence violated",
			combined, mono.MMHitPct)
	}
	if math.Abs(mono.MMHitPct-66.7) > 3 {
		t.Errorf("MM(1000) hit ratio %.1f%%, paper reports 66.7%%", mono.MMHitPct)
	}
}

// TestVolatileCacheUselessWhenMMLarger reproduces the double-caching result:
// once the main-memory buffer reaches the volatile disk cache's size, the
// cache yields no read hits at all (section 4.5).
func TestVolatileCacheUselessWhenMMLarger(t *testing.T) {
	if testing.Short() {
		t.Skip("simulation test")
	}
	res, err := DCSetup{Rate: 500, MMBuffer: 2000,
		DB: DBSpec{Kind: DBVolCache, Size: 1000}, Log: LogSpec{Kind: LogDisk}}.Run(quick)
	if err != nil {
		t.Fatal(err)
	}
	fixes := res.Buffer.Fixes
	hits := res.Units[0].Stats.ReadHits
	if pct := 100 * float64(hits) / float64(fixes); pct > 0.5 {
		t.Errorf("volatile cache still hit %.2f%% with MM 2000 >= cache 1000", pct)
	}
}

// TestForceWriteBufferBeatsNoforceDisk checks the section 4.4 claim that
// "FORCE using a write buffer supports even better response times than
// NOFORCE without using non-volatile semiconductor memory".
func TestForceWriteBufferBeatsNoforceDisk(t *testing.T) {
	if testing.Short() {
		t.Skip("simulation test")
	}
	forceWB, err := DCSetup{Rate: 200, Force: true,
		DB: DBSpec{Kind: DBDiskCacheWB, Size: 500}, Log: LogSpec{Kind: LogDiskWB, Size: 500}}.Run(quick)
	if err != nil {
		t.Fatal(err)
	}
	noforceDisk, err := DCSetup{Rate: 200,
		DB: DBSpec{Kind: DBRegular}, Log: LogSpec{Kind: LogDisk}}.Run(quick)
	if err != nil {
		t.Fatal(err)
	}
	if forceWB.RespMean >= noforceDisk.RespMean {
		t.Errorf("FORCE+WB %.2f ms must beat NOFORCE disk %.2f ms",
			forceWB.RespMean, noforceDisk.RespMean)
	}

	// And FORCE gains more from NV memory than NOFORCE: the FORCE/NOFORCE
	// gap with a write buffer must be far smaller than on plain disks.
	forceDisk, err := DCSetup{Rate: 200, Force: true,
		DB: DBSpec{Kind: DBRegular}, Log: LogSpec{Kind: LogDisk}}.Run(quick)
	if err != nil {
		t.Fatal(err)
	}
	noforceWB, err := DCSetup{Rate: 200,
		DB: DBSpec{Kind: DBDiskCacheWB, Size: 500}, Log: LogSpec{Kind: LogDiskWB, Size: 500}}.Run(quick)
	if err != nil {
		t.Fatal(err)
	}
	gapDisk := forceDisk.RespMean - noforceDisk.RespMean
	gapWB := forceWB.RespMean - noforceWB.RespMean
	if gapWB >= gapDisk {
		t.Errorf("FORCE penalty must shrink with NV memory: disk gap %.2f, WB gap %.2f",
			gapDisk, gapWB)
	}
}

// TestContentionThrashing reproduces Fig 4.8's qualitative result: at 300
// TPS page locking thrashes for the disk-based allocation, object locking
// removes the bottleneck, and the NVEM-resident allocation needs only page
// locking.
func TestContentionThrashing(t *testing.T) {
	if testing.Short() {
		t.Skip("simulation test")
	}
	pageDisk, err := ContentionSetup{Rate: 300, Alloc: ContDisk, Granularity: cc.PageLevel}.Run(quick)
	if err != nil {
		t.Fatal(err)
	}
	objDisk, err := ContentionSetup{Rate: 300, Alloc: ContDisk, Granularity: cc.ObjectLevel}.Run(quick)
	if err != nil {
		t.Fatal(err)
	}
	nvemPage, err := ContentionSetup{Rate: 300, Alloc: ContNVEM, Granularity: cc.PageLevel}.Run(quick)
	if err != nil {
		t.Fatal(err)
	}
	if pageDisk.Throughput > 250 {
		t.Errorf("disk+page-locks sustained %.0f TPS at offered 300, expected lock thrashing", pageDisk.Throughput)
	}
	if objDisk.Throughput < 250 {
		t.Errorf("disk+object-locks reached only %.0f TPS, locking bottleneck not removed", objDisk.Throughput)
	}
	if nvemPage.Throughput < 250 || nvemPage.RespMean > 30 {
		t.Errorf("nvem+page-locks: %.0f TPS / %.2f ms, expected no contention problem",
			nvemPage.Throughput, nvemPage.RespMean)
	}
	if objDisk.Locks.Deadlocks == 0 && pageDisk.Locks.Deadlocks == 0 {
		t.Log("note: no deadlocks observed (possible but unusual)")
	}
}

// TestTraceVolNvSimilar reproduces the section 4.6 observation that for the
// read-dominated trace, volatile disk caches achieve about the same hit
// ratios as non-volatile ones.
func TestTraceVolNvSimilar(t *testing.T) {
	if testing.Short() {
		t.Skip("simulation test")
	}
	vol, err := TraceSetup{MMBuffer: 1000, DB: DBSpec{Kind: DBVolCache, Size: 2000},
		Log: LogSpec{Kind: LogDisk}}.Run(quick)
	if err != nil {
		t.Fatal(err)
	}
	nv, err := TraceSetup{MMBuffer: 1000, DB: DBSpec{Kind: DBNVCache, Size: 2000},
		Log: LogSpec{Kind: LogDiskWB, Size: 500}}.Run(quick)
	if err != nil {
		t.Fatal(err)
	}
	volHit := 100 * float64(vol.Units[0].Stats.ReadHits) / float64(vol.Buffer.Fixes)
	nvHit := 100 * float64(nv.Units[0].Stats.ReadHits) / float64(nv.Buffer.Fixes)
	if math.Abs(volHit-nvHit) > 2.5 {
		t.Errorf("volatile %.1f%% vs non-volatile %.1f%% read hits: should be close for 1.6%% writes",
			volHit, nvHit)
	}
}

// TestTraceNVEMCacheBest: NVEM caching is the most effective second-level
// cache for the trace workload (better hit ratios, no double caching).
func TestTraceNVEMCacheBest(t *testing.T) {
	if testing.Short() {
		t.Skip("simulation test")
	}
	mmOnly, err := TraceSetup{MMBuffer: 1000, DB: DBSpec{Kind: DBRegular},
		Log: LogSpec{Kind: LogDisk}}.Run(quick)
	if err != nil {
		t.Fatal(err)
	}
	nvem, err := TraceSetup{MMBuffer: 1000, DB: DBSpec{Kind: DBNVEMCache, Size: 2000},
		Log: LogSpec{Kind: LogNVEM}}.Run(quick)
	if err != nil {
		t.Fatal(err)
	}
	if nvem.RespMean >= mmOnly.RespMean {
		t.Errorf("NVEM cache %.1f ms must beat mm-only %.1f ms", nvem.RespMean, mmOnly.RespMean)
	}
	if nvem.NVEMAddHitPct <= 0 {
		t.Error("NVEM cache produced no additional hits")
	}
}

func TestTable21Renders(t *testing.T) {
	if testing.Short() {
		t.Skip("simulation test")
	}
	out, err := Table21(quick)
	if err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{"Table 2.1", "extended memory", "solid-state disk",
		"nvem-resident", "measured response time"} {
		if !strings.Contains(out, want) {
			t.Errorf("table 2.1 output missing %q", want)
		}
	}
}

func TestContentionSetupValidates(t *testing.T) {
	if _, err := (ContentionSetup{Rate: 10, Alloc: ContentionAlloc(9)}).Build(quick); err == nil {
		t.Fatal("bad allocation must error")
	}
	cfg, err := ContentionSetup{Rate: 10, Alloc: ContMixed, Granularity: cc.ObjectLevel}.Build(quick)
	if err != nil {
		t.Fatal(err)
	}
	if err := cfg.Validate(); err != nil {
		t.Fatal(err)
	}
	if cfg.InstrOR != 16_000 {
		t.Fatalf("InstrOR = %v, want 16000 (250k pathlength)", cfg.InstrOR)
	}
}

func TestTraceSetupValidates(t *testing.T) {
	if _, err := (TraceSetup{MMBuffer: 100, DB: DBSpec{Kind: DBMMResident}}).Build(quick); err == nil {
		t.Fatal("unsupported trace DB kind must error")
	}
	cfg, err := TraceSetup{MMBuffer: 100, DB: DBSpec{Kind: DBRegular}, Log: LogSpec{Kind: LogDisk}}.Build(quick)
	if err != nil {
		t.Fatal(err)
	}
	if err := cfg.Validate(); err != nil {
		t.Fatal(err)
	}
	if len(cfg.Partitions) != 13 {
		t.Fatalf("trace config has %d partitions, want 13 files", len(cfg.Partitions))
	}
}

// TestTraceSetupBuildsIndependentSources: concurrent Builds share one
// validated trace, but each replays it from the start at its own position.
func TestTraceSetupBuildsIndependentSources(t *testing.T) {
	const draws = 50
	setup := TraceSetup{MMBuffer: 100, DB: DBSpec{Kind: DBRegular}, Log: LogSpec{Kind: LogDisk}}
	var wg sync.WaitGroup
	seqs := make([][]workload.Tx, 2)
	errs := make([]error, len(seqs))
	for i := range seqs {
		wg.Add(1)
		go func() {
			defer wg.Done()
			cfg, err := setup.Build(quick)
			if err != nil {
				errs[i] = err
				return
			}
			for range draws {
				seqs[i] = append(seqs[i], cfg.Generator.Next(0, nil))
			}
		}()
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			t.Fatal(err)
		}
	}
	if !reflect.DeepEqual(seqs[0], seqs[1]) {
		t.Fatal("concurrent Builds replayed different transaction sequences")
	}
	txs := realLifeTrace().Txs
	for k, tx := range seqs[0] {
		if tx.Type != txs[k].Type || len(tx.Accesses) != len(txs[k].Accesses) ||
			&tx.Accesses[0] != &txs[k].Accesses[0] {
			t.Fatalf("draw %d does not replay trace transaction %d", k, k)
		}
	}
}
