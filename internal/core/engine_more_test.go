package core

import (
	"cmp"
	"math"
	"slices"
	"testing"

	"repro/internal/buffer"
	"repro/internal/cc"
	"repro/internal/storage"
	"repro/internal/trace"
	"repro/internal/workload"
)

func TestMaxQueueDropsArrivals(t *testing.T) {
	cfg := dcConfig(t, 600)
	cfg.MPL = 4
	cfg.MaxQueue = 10
	cfg.WarmupMS = 500
	cfg.MeasureMS = 3000
	// Single slow CPU so the system cannot keep up.
	cfg.NumCPU = 1
	cfg.MIPS = 10
	res, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if res.Dropped == 0 {
		t.Fatal("expected dropped arrivals at the queue cap")
	}
	if !res.Saturated {
		t.Fatal("saturation flag not set")
	}
}

func TestObjectLevelLockingRuns(t *testing.T) {
	cfg := dcConfig(t, 150)
	cfg.CCModes = []cc.Granularity{cc.ObjectLevel, cc.ObjectLevel, cc.NoCC}
	cfg.WarmupMS = 1000
	cfg.MeasureMS = 5000
	res, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if res.Commits == 0 || res.Locks.Requests == 0 {
		t.Fatalf("object-locking run empty: %+v", res)
	}
}

func TestNoCCDisablesLocking(t *testing.T) {
	cfg := dcConfig(t, 150)
	cfg.CCModes = []cc.Granularity{cc.NoCC, cc.NoCC, cc.NoCC}
	cfg.WarmupMS = 1000
	cfg.MeasureMS = 5000
	res, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if res.Locks.Requests != 0 {
		t.Fatalf("lock requests = %d with CC off", res.Locks.Requests)
	}
}

func TestTraceSourceDrivesEngine(t *testing.T) {
	tr := &trace.Trace{
		FilePages: []int64{500, 100},
		TypeNames: []string{"q", "u"},
	}
	// Deterministic mini-trace: alternating small read and update txs.
	for i := 0; i < 400; i++ {
		if i%2 == 0 {
			tr.Txs = append(tr.Txs, workload.Tx{Type: 0, Accesses: []workload.Access{
				{Partition: 0, Object: int64(i % 500)}, {Partition: 1, Object: int64(i % 100)},
			}})
		} else {
			tr.Txs = append(tr.Txs, workload.Tx{Type: 1, Accesses: []workload.Access{
				{Partition: 0, Object: int64(i % 500), Write: true},
			}})
		}
	}
	src, err := trace.NewSource(tr, 100)
	if err != nil {
		t.Fatal(err)
	}
	cfg := Defaults()
	cfg.WarmupMS = 1000
	cfg.MeasureMS = 5000
	cfg.Partitions = src.Partitions()
	cfg.Generator = src
	cfg.CCModes = []cc.Granularity{cc.PageLevel, cc.PageLevel}
	cfg.DiskUnits = []storage.DiskUnitConfig{
		{Name: "db", Type: storage.Regular, NumControllers: 4, ContrDelay: 1,
			TransDelay: 0.4, NumDisks: 16, DiskDelay: 15},
	}
	cfg.Buffer = buffer.Config{
		BufferSize: 300,
		Logging:    true,
		Partitions: []buffer.PartitionAlloc{{DiskUnit: 0}, {DiskUnit: 0}},
		Log:        buffer.LogAlloc{DiskUnit: 0},
	}
	res, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if res.Commits == 0 {
		t.Fatal("no trace transactions committed")
	}
	// Only update transactions write the log: about half the commits.
	if res.Buffer.LogWrites == 0 || res.Buffer.LogWrites >= res.Commits {
		t.Fatalf("log writes = %d for %d commits, want ~half", res.Buffer.LogWrites, res.Commits)
	}
}

func TestMultiTypeSyntheticWorkload(t *testing.T) {
	model := &workload.Model{
		Partitions: []workload.Partition{
			{Name: "a", NumObjects: 10_000, BlockFactor: 10},
			{Name: "b", NumObjects: 10_000, BlockFactor: 10},
		},
		TxTypes: []workload.TxType{
			{Name: "short", ArrivalRate: 100, TxSize: 2, WriteProb: 0, RefRow: []float64{1, 0}},
			{Name: "long", ArrivalRate: 20, TxSize: 8, WriteProb: 0.5, VarSize: true, RefRow: []float64{0.5, 0.5}},
		},
	}
	gen, err := workload.NewSynthetic(model)
	if err != nil {
		t.Fatal(err)
	}
	cfg := Defaults()
	cfg.WarmupMS = 1000
	cfg.MeasureMS = 8000
	cfg.Partitions = model.Partitions
	cfg.Generator = gen
	cfg.CCModes = []cc.Granularity{cc.PageLevel, cc.PageLevel}
	cfg.DiskUnits = []storage.DiskUnitConfig{
		{Name: "db", Type: storage.Regular, NumControllers: 4, ContrDelay: 1,
			TransDelay: 0.4, NumDisks: 32, DiskDelay: 15},
	}
	cfg.Buffer = buffer.Config{
		BufferSize: 500,
		Logging:    true,
		Partitions: []buffer.PartitionAlloc{{DiskUnit: 0}, {DiskUnit: 0}},
		Log:        buffer.LogAlloc{DiskUnit: 0},
	}
	res, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	// Both arrival streams contribute: aggregate ≈ 120 TPS.
	if math.Abs(res.Throughput-120) > 15 {
		t.Fatalf("throughput = %v, want ~120", res.Throughput)
	}
}

func TestResultReportRenders(t *testing.T) {
	cfg := dcConfig(t, 100)
	cfg.WarmupMS = 500
	cfg.MeasureMS = 2000
	res, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	rep := res.Report()
	for _, want := range []string{"throughput", "response time", "CPU utilization",
		"ACCOUNT", "unit db", "unit log"} {
		if !contains(rep, want) {
			t.Errorf("report missing %q:\n%s", want, rep)
		}
	}
	if res.String() == "" {
		t.Error("String() empty")
	}
}

func contains(s, sub string) bool {
	return len(s) >= len(sub) && (s == sub || len(s) > 0 && indexOf(s, sub) >= 0)
}

func indexOf(s, sub string) int {
	for i := 0; i+len(sub) <= len(s); i++ {
		if s[i:i+len(sub)] == sub {
			return i
		}
	}
	return -1
}

func TestResponseCompositionConsistency(t *testing.T) {
	res, err := Run(dcConfig(t, 250))
	if err != nil {
		t.Fatal(err)
	}
	// Mean fix (I/O) time per transaction cannot exceed the mean response.
	if res.IOWaitMean > res.RespMean {
		t.Fatalf("io wait %v > response %v", res.IOWaitMean, res.RespMean)
	}
	if res.LockWaitMean > res.RespMean {
		t.Fatalf("lock wait %v > response %v", res.LockWaitMean, res.RespMean)
	}
	if res.RespP95 < res.RespMean*0.5 {
		t.Fatalf("p95 %v implausibly below mean %v", res.RespP95, res.RespMean)
	}
	// Utilizations are fractions.
	if res.CPUUtil < 0 || res.CPUUtil > 1 || res.NVEMUtil < 0 || res.NVEMUtil > 1 {
		t.Fatalf("bad utilizations: cpu=%v nvem=%v", res.CPUUtil, res.NVEMUtil)
	}
}

func TestNVEMWriteBufferEnginePath(t *testing.T) {
	cfg := dcConfig(t, 250)
	for i := range cfg.Buffer.Partitions {
		cfg.Buffer.Partitions[i].NVEMWriteBuffer = true
	}
	cfg.Buffer.NVEMWriteBufferSize = 2000
	cfg.Buffer.Log = buffer.LogAlloc{DiskUnit: 1, NVEMWriteBuffer: true}
	res, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if res.Buffer.VictimToWB == 0 {
		t.Fatal("write buffer never used")
	}
	if res.NVEMUtil <= 0 {
		t.Fatal("NVEM utilization not recorded")
	}
	if res.Buffer.AsyncDiskWrites == 0 {
		t.Fatal("no asynchronous destages from the write buffer")
	}
}

func TestGroupCommitEngineIntegration(t *testing.T) {
	cfg := dcConfig(t, 300)
	cfg.DiskUnits[1].NumDisks = 1
	cfg.DiskUnits[1].NumControllers = 1
	cfg.Buffer.GroupCommit = true
	cfg.Buffer.GroupCommitWaitMS = 5
	cfg.WarmupMS = 2000
	cfg.MeasureMS = 8000
	res, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	// One log disk at 300 TPS only works because of batching.
	if res.Saturated {
		t.Fatalf("group commit failed to sustain 300 TPS on one log disk: %+v", res)
	}
	if res.Buffer.GroupCommits == 0 || res.Buffer.LogWrites >= res.Commits {
		t.Fatalf("batching ineffective: %+v", res.Buffer)
	}
}

// TestAccessPagesMappedAtFix: the engine maps each access's object to its
// page with its partition's PageOf. On a partition of 10 objects per page,
// objects 0 and 9 share page 0, object 15 is page 1 and object 999 page 99;
// on a Sequential partition of three pages whose append cursor has passed
// its last object, objects 30 and 47 wrap to pages 0 and 1. The buffer
// holds every page the run fixes, and each written page stays dirty in
// it, so its dirty keys are exactly the written pages the fixes named.
// FORCE's modified-page list maps the same writes.
func TestAccessPagesMappedAtFix(t *testing.T) {
	tx := workload.Tx{Accesses: []workload.Access{
		{Partition: 0, Object: 0, Write: true},
		{Partition: 0, Object: 9, Write: true},
		{Partition: 0, Object: 15},
		{Partition: 0, Object: 999, Write: true},
		{Partition: 1, Object: 30, Write: true},
		{Partition: 1, Object: 47, Write: true},
	}}
	cfg := scriptConfig(&scriptGen{rate: 100, txs: []workload.Tx{tx}})
	cfg.Partitions = []workload.Partition{
		{Name: "blocked", NumObjects: 1000, BlockFactor: 10},
		{Name: "append", NumObjects: 30, BlockFactor: 10, Sequential: true},
	}
	cfg.CCModes = []cc.Granularity{cc.PageLevel, cc.PageLevel}
	cfg.Buffer.Partitions = []buffer.PartitionAlloc{{DiskUnit: 0}, {DiskUnit: 0}}
	cfg.WarmupMS, cfg.MeasureMS = 0, 1000
	c, err := newCluster(oneNode(cfg))
	if err != nil {
		t.Fatal(err)
	}
	c.runPhases()
	e := c.nodes[0]
	if win := e.collect(); win.commits != 1 {
		t.Fatalf("commits = %d, want the one scripted transaction", win.commits)
	}
	written := []storage.PageKey{{Partition: 0, Page: 0}, {Partition: 0, Page: 99},
		{Partition: 1, Page: 0}, {Partition: 1, Page: 1}}
	dirty := e.bm.DirtyKeys()
	slices.SortFunc(dirty, func(a, b storage.PageKey) int {
		return cmp.Or(cmp.Compare(a.Partition, b.Partition), cmp.Compare(a.Page, b.Page))
	})
	if !slices.Equal(dirty, written) {
		t.Errorf("dirty pages after the run = %v, want %v", dirty, written)
	}
	if read := (storage.PageKey{Partition: 0, Page: 1}); !e.bm.Holds(read) {
		t.Errorf("object 15's page %v not fixed", read)
	}
	if got := (&txRun{e: e, tx: tx}).modifiedPages(); !slices.Equal(got, written) {
		t.Errorf("modifiedPages = %v, want %v", got, written)
	}
	c.finish()
}
