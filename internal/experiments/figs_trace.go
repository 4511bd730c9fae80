package experiments

import (
	"cmp"
	"fmt"
	"sync"

	"repro/internal/buffer"
	"repro/internal/cc"
	"repro/internal/core"
	"repro/internal/stats"
	"repro/internal/trace"
)

// The real-life trace is deterministic per seed and read-only once built;
// share it across runs. Its replay source is built and validated with it,
// once per process; each run replays a rewound copy.
var (
	traceOnce   sync.Once
	sharedTrace *trace.Trace
	traceSource *trace.Source
	traceErr    error
)

func loadRealLife() {
	traceOnce.Do(func() {
		sharedTrace = trace.GenerateRealLife(42)
		traceSource, traceErr = trace.NewSource(sharedTrace, traceRate)
	})
}

func realLifeTrace() *trace.Trace {
	loadRealLife()
	return sharedTrace
}

// realLifeSource returns a fresh replay of the real-life trace at traceRate.
func realLifeSource() (*trace.Source, error) {
	loadRealLife()
	if traceErr != nil {
		return nil, traceErr
	}
	return traceSource.Rewound(), nil
}

// traceRate is the replay arrival rate for the trace experiments. The paper
// used "a fixed arrival rate" without naming it; 20 TPS keeps the CPUs
// lightly loaded and lock contention subcritical, so the response time is
// I/O dominated as in Figs 4.6/4.7 (long queries make higher rates unstable
// under strict 2PL — see EXPERIMENTS.md).
const traceRate = 20

// TraceSetup describes one trace-driven simulation point (sections 4.6).
type TraceSetup struct {
	MMBuffer int
	DB       DBSpec // Regular, VolCache, NVCache, SSD, NVEMResident, NVEMCache
	Log      LogSpec
}

// Build assembles the engine configuration for a trace replay.
func (s TraceSetup) Build(o Options) (core.Config, error) {
	src, err := realLifeSource()
	if err != nil {
		return core.Config{}, err
	}
	cfg := o.baseConfig()
	cfg.Partitions = src.Partitions()
	cfg.Generator = src
	cfg.CCModes = make([]cc.Granularity, len(cfg.Partitions))
	for i := range cfg.CCModes {
		cfg.CCModes[i] = cc.PageLevel
	}

	// Section 4.6 replays the trace on the placements of Figs 4.6 and 4.7
	// only: no write-buffer-only disk cache, MM residence or NVEM write
	// buffer for the database, and no SSD or NVEM write buffer for the log.
	switch {
	case s.DB.Kind == DBDiskCacheWB || s.DB.Kind == DBMMResident || s.DB.Kind == DBNVEMWB:
		return core.Config{}, fmt.Errorf("experiments: trace DB kind %d unsupported", s.DB.Kind)
	case s.Log.Kind == LogSSD || s.Log.Kind == LogNVEMWB:
		return core.Config{}, fmt.Errorf("experiments: trace log kind %d unsupported", s.Log.Kind)
	}
	// Figs 4.6 and 4.7 size an unsized second level at 2000 frames.
	s.DB.Size = cmp.Or(s.DB.Size, 2000)
	if s.Log.Disks == 0 {
		s.Log.Disks = 4
	}
	cfg.DiskUnits = diskUnits(12, 96, 2, s.Log.Disks)
	cfg.Buffer = buffer.Config{
		BufferSize: s.MMBuffer,
		Logging:    true,
	}
	if err := place(&cfg, s.DB, s.Log); err != nil {
		return core.Config{}, err
	}
	return cfg, nil
}

// Run builds and executes the setup.
func (s TraceSetup) Run(o Options) (*core.Result, error) { return runBuilt(s.Build(o)) }

func (o Options) traceMMSizes() []float64 {
	if o.Quick {
		return []float64{500, 2000}
	}
	return []float64{100, 200, 500, 1000, 2000}
}

// Fig46 reproduces Fig 4.6: impact of the main-memory buffer size for the
// real-life workload, with fixed 2000-page second-level caches, plus the
// complete SSD and NVEM allocations.
func Fig46(o Options) (*stats.Figure, error) {
	fig := &stats.Figure{
		Title:  "Fig 4.6: Main memory buffer size, real-life trace (NOFORCE, 2nd-level 2000 pages)",
		XLabel: "MM buffer [pages]",
		YLabel: "mean response time [ms]",
		X:      o.traceMMSizes(),
	}
	schemes := []dcScheme{
		{"mm-only", DBSpec{Kind: DBRegular}, LogSpec{Kind: LogDisk}},
		{"vol-disk-cache-2000", DBSpec{Kind: DBVolCache, Size: 2000}, LogSpec{Kind: LogDisk}},
		{"nv-disk-cache-2000", DBSpec{Kind: DBNVCache, Size: 2000}, LogSpec{Kind: LogDiskWB, Size: 500}},
		{"nvem-cache-2000", DBSpec{Kind: DBNVEMCache, Size: 2000}, LogSpec{Kind: LogNVEM}},
		{"ssd", DBSpec{Kind: DBSSD}, LogSpec{Kind: LogDiskWB, Size: 500}},
		{"nvem-resident", DBSpec{Kind: DBNVEMResident}, LogSpec{Kind: LogNVEM}},
	}
	cells, err := sweep(o, len(schemes), len(fig.X), func(si, xi int, o Options) (*core.Result, error) {
		sc, mm := schemes[si], int(fig.X[xi])
		res, err := TraceSetup{MMBuffer: mm, DB: sc.db, Log: sc.log}.Run(o)
		if err != nil {
			return nil, fmt.Errorf("fig4.6 %s mm=%d: %w", sc.label, mm, err)
		}
		return res, nil
	})
	if err != nil {
		return nil, err
	}
	if err := plot(fig, dcLabels(schemes), cells, respMean); err != nil {
		return nil, err
	}
	return fig, nil
}

func (o Options) traceSecondSizes() []float64 {
	if o.Quick {
		return []float64{0, 2000}
	}
	return []float64{0, 500, 1000, 2000, 5000}
}

// Fig47 reproduces Fig 4.7: impact of the 2nd-level buffer size for the
// real-life workload (1000-page main-memory buffer). Size 0 is main-memory
// caching only.
func Fig47(o Options) (*stats.Figure, error) {
	fig := &stats.Figure{
		Title:  "Fig 4.7: 2nd-level buffer size, real-life trace (NOFORCE, MM=1000)",
		XLabel: "2nd-level size [pages]",
		YLabel: "mean response time [ms]",
		X:      o.traceSecondSizes(),
	}
	schemes := []struct {
		label string
		kind  DBKind
		log   LogSpec
	}{
		{"vol-disk-cache", DBVolCache, LogSpec{Kind: LogDisk}},
		{"nv-disk-cache", DBNVCache, LogSpec{Kind: LogDiskWB, Size: 500}},
		{"nvem-cache", DBNVEMCache, LogSpec{Kind: LogNVEM}},
	}
	cells, err := sweep(o, len(schemes), len(fig.X), func(si, xi int, o Options) (*core.Result, error) {
		sc, size := schemes[si], int(fig.X[xi])
		setup := TraceSetup{MMBuffer: 1000, Log: sc.log}
		if size == 0 {
			setup.DB = DBSpec{Kind: DBRegular}
			setup.Log = LogSpec{Kind: LogDisk}
		} else {
			setup.DB = DBSpec{Kind: sc.kind, Size: size}
		}
		res, err := setup.Run(o)
		if err != nil {
			return nil, fmt.Errorf("fig4.7 %s size=%d: %w", sc.label, size, err)
		}
		return res, nil
	})
	if err != nil {
		return nil, err
	}
	labels := labelsOf(len(schemes), func(i int) string { return schemes[i].label })
	if err := plot(fig, labels, cells, respMean); err != nil {
		return nil, err
	}
	return fig, nil
}
