// Package experiments builds and runs the storage configurations of the
// paper's evaluation (section 4) and renders each figure and table as a
// text series. Every experiment id from DESIGN.md's per-experiment index
// (fig4.1 ... fig4.8, table4.2a/b, table2.1) has a runner here, shared by
// cmd/experiments and the benchmark harness in bench_test.go.
package experiments

import (
	"cmp"
	"fmt"

	"repro/internal/buffer"
	"repro/internal/cc"
	"repro/internal/core"
	"repro/internal/storage"
	"repro/internal/workload"
)

// Options tunes run length and sweep density. The zero value means full
// paper-scale runs; Quick shrinks windows and sweep points for benchmarks
// and smoke tests.
type Options struct {
	Seed  int64
	Quick bool

	// Replications is the number of independent runs per simulation point.
	// Replication r runs with seed rng.Derive(Seed, r), and figures and
	// tables report the replication mean ± its 95% confidence interval.
	// 0 or 1 means a single run with unchanged output.
	Replications int

	// Parallelism caps the number of simulation runs executing concurrently
	// inside one experiment. 0 means GOMAXPROCS. Rendered output is
	// byte-identical for every value, including 1.
	Parallelism int

	// concurrent marks the Options a grid job runs with while the grid runs
	// several jobs at once. The jobs then own the cores, so a PDES run left
	// at the default worker count runs its windows on one (ClusterSetup).
	concurrent bool
}

func (o Options) seed() int64 {
	if o.Seed == 0 {
		return 1
	}
	return o.Seed
}

// warm/measure windows (simulated milliseconds).
func (o Options) windows() (warm, measure float64) {
	if o.Quick {
		return 6_000, 10_000
	}
	return 12_000, 25_000
}

// rates returns the arrival-rate sweep (TPS) of the Debit-Credit figures.
func (o Options) rates() []float64 {
	if o.Quick {
		return []float64{50, 200, 500}
	}
	return []float64{10, 100, 200, 300, 500, 700}
}

// DBKind enumerates the database allocation schemes of sections 4.2-4.5.
type DBKind int

// Database allocation schemes.
const (
	DBRegular      DBKind = iota // partitions on regular disks
	DBDiskCacheWB                // disks, non-volatile controller cache as pure write buffer
	DBVolCache                   // disks with a volatile controller cache (LRU)
	DBNVCache                    // disks with a non-volatile controller cache (LRU)
	DBSSD                        // partitions on solid-state disks
	DBNVEMResident               // partitions resident in NVEM
	DBMMResident                 // partitions resident in main memory
	DBNVEMWB                     // disks + NVEM write buffer
	DBNVEMCache                  // disks + NVEM second-level database cache
)

// DBSpec is a database allocation with its cache/buffer size where relevant.
type DBSpec struct {
	Kind DBKind
	Size int // frames: disk cache, NVEM cache, or NVEM write buffer size
}

// LogKind enumerates the log allocation schemes of section 4.2.
type LogKind int

// Log allocation schemes.
const (
	LogDisk   LogKind = iota // log disks without write buffer
	LogDiskWB                // log disk(s) with a non-volatile cache write buffer
	LogSSD                   // log on solid-state disk
	LogNVEM                  // log resident in NVEM
	LogNVEMWB                // log disk(s) behind the NVEM write buffer
)

// LogSpec is a log allocation with its disk count and write-buffer size.
type LogSpec struct {
	Kind  LogKind
	Disks int // log disk servers (1 reproduces the Fig 4.1 bottleneck)
	Size  int // write-buffer frames for LogDiskWB
}

// DCSetup fully describes one Debit-Credit simulation point.
type DCSetup struct {
	Rate     float64
	Force    bool
	MMBuffer int
	DB       DBSpec
	Log      LogSpec
	// Arrival selects the arrival process driving the load (the zero
	// value is the paper's Poisson process).
	Arrival workload.ArrivalSpec
	// Skew is the within-branch account access distribution (the zero
	// value is the benchmark's uniform draw).
	Skew workload.AccessSpec
	// MeasureScale scales the measurement window by the given factor
	// (the diurnal experiment needs several modulation periods inside the
	// window); 0 keeps the standard o.windows() length.
	MeasureScale float64
}

// baseConfig returns the engine defaults of Table 4.1 with o's seed and
// measurement windows.
func (o Options) baseConfig() core.Config {
	cfg := core.Defaults()
	cfg.Seed = o.seed()
	cfg.WarmupMS, cfg.MeasureMS = o.windows()
	return cfg
}

// diskUnits returns the regular-disk farm of Table 4.1: unit 0 holds the
// database, unit 1 the log, each with the given controller and disk counts.
func diskUnits(dbCtrl, dbDisks, logCtrl, logDisks int) []storage.DiskUnitConfig {
	return []storage.DiskUnitConfig{
		{Name: "db", Type: storage.Regular, NumControllers: dbCtrl,
			ContrDelay: core.DefaultContrDelay, TransDelay: core.DefaultTransDelay,
			NumDisks: dbDisks, DiskDelay: core.DefaultDBDiskDelay},
		{Name: "log", Type: storage.Regular, NumControllers: logCtrl,
			ContrDelay: core.DefaultContrDelay, TransDelay: core.DefaultTransDelay,
			NumDisks: logDisks, DiskDelay: core.DefaultLogDiskDelay},
	}
}

// place lays db and log out on cfg's diskUnits farm: it sets the units'
// types and cache sizes, one allocation per partition and the log's.
// Unsized caches and NVEM write buffers get 1000 frames, write-buffer-only
// disk caches 500; a log behind the NVEM write buffer shares the database's.
func place(cfg *core.Config, db DBSpec, log LogSpec) error {
	dbUnit, logUnit := &cfg.DiskUnits[0], &cfg.DiskUnits[1]
	part := buffer.PartitionAlloc{DiskUnit: 0}
	switch db.Kind {
	case DBRegular:
	case DBDiskCacheWB:
		dbUnit.Type = storage.NVCache
		dbUnit.CacheSize = cmp.Or(db.Size, 500)
		dbUnit.WriteBufferOnly = true
	case DBVolCache:
		dbUnit.Type = storage.VolatileCache
		dbUnit.CacheSize = cmp.Or(db.Size, 1000)
	case DBNVCache:
		dbUnit.Type = storage.NVCache
		dbUnit.CacheSize = cmp.Or(db.Size, 1000)
	case DBSSD:
		dbUnit.Type = storage.SSD
		dbUnit.NumDisks = 0
		dbUnit.DiskDelay = 0
	case DBNVEMResident:
		part = buffer.PartitionAlloc{NVEMResident: true}
	case DBMMResident:
		part = buffer.PartitionAlloc{MMResident: true}
	case DBNVEMWB:
		part.NVEMWriteBuffer = true
		cfg.Buffer.NVEMWriteBufferSize = cmp.Or(db.Size, 1000)
	case DBNVEMCache:
		part.NVEMCache = true
		part.NVEMCacheMode = buffer.MigrateAll
		cfg.Buffer.NVEMCacheSize = cmp.Or(db.Size, 1000)
	default:
		return fmt.Errorf("experiments: unknown DB kind %d", db.Kind)
	}
	cfg.Buffer.Partitions = make([]buffer.PartitionAlloc, len(cfg.Partitions))
	for i := range cfg.Buffer.Partitions {
		cfg.Buffer.Partitions[i] = part
	}

	cfg.Buffer.Log = buffer.LogAlloc{DiskUnit: 1}
	switch log.Kind {
	case LogDisk:
	case LogDiskWB:
		logUnit.Type = storage.NVCache
		logUnit.CacheSize = cmp.Or(log.Size, 500)
		logUnit.WriteBufferOnly = true
	case LogSSD:
		logUnit.Type = storage.SSD
		logUnit.NumDisks = 0
		logUnit.DiskDelay = 0
	case LogNVEM:
		cfg.Buffer.Log = buffer.LogAlloc{NVEMResident: true}
	case LogNVEMWB:
		cfg.Buffer.Log.NVEMWriteBuffer = true
		cfg.Buffer.NVEMWriteBufferSize = cmp.Or(cfg.Buffer.NVEMWriteBufferSize, 1000)
	default:
		return fmt.Errorf("experiments: unknown log kind %d", log.Kind)
	}
	return nil
}

// runBuilt executes a configuration a single-node setup's Build returned.
func runBuilt(cfg core.Config, err error) (*core.Result, error) {
	if err != nil {
		return nil, err
	}
	return core.Run(cfg)
}

// Build assembles the engine configuration for the setup.
func (s DCSetup) Build(o Options) (core.Config, error) {
	dcCfg := workload.DefaultDebitCreditConfig(s.Rate)
	dcCfg.AccountSkew = s.Skew
	gen, err := workload.NewDebitCredit(dcCfg)
	if err != nil {
		return core.Config{}, err
	}
	cfg := o.baseConfig()
	if s.MeasureScale > 0 {
		cfg.MeasureMS *= s.MeasureScale
	}
	cfg.Arrival = s.Arrival
	cfg.Partitions = gen.Partitions()
	cfg.Generator = gen
	cfg.CCModes = []cc.Granularity{cc.PageLevel, cc.PageLevel, cc.NoCC}

	if s.MMBuffer == 0 {
		s.MMBuffer = 2000 // Table 4.1 default
	}
	if s.Log.Disks == 0 {
		s.Log.Disks = 8 // "sufficient to avoid bottlenecks"
	}

	cfg.DiskUnits = diskUnits(12, 96, 2, s.Log.Disks)
	cfg.Buffer = buffer.Config{
		BufferSize: s.MMBuffer,
		Force:      s.Force,
		Logging:    true,
	}
	if err := place(&cfg, s.DB, s.Log); err != nil {
		return core.Config{}, err
	}
	return cfg, nil
}

// Run builds and executes the setup.
func (s DCSetup) Run(o Options) (*core.Result, error) { return runBuilt(s.Build(o)) }
