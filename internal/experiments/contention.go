package experiments

import (
	"fmt"

	"repro/internal/buffer"
	"repro/internal/cc"
	"repro/internal/core"
	"repro/internal/stats"
	"repro/internal/workload"
)

// ContentionAlloc enumerates the storage allocations of section 4.7.
type ContentionAlloc int

// Allocations of Fig 4.8.
const (
	// ContDisk stores both partitions and the log on disks.
	ContDisk ContentionAlloc = iota
	// ContMixed keeps the small high-contention partition and the log in
	// NVEM, the large partition on disk.
	ContMixed
	// ContNVEM keeps everything NVEM-resident.
	ContNVEM
)

func (a ContentionAlloc) String() string {
	switch a {
	case ContDisk:
		return "disk-based"
	case ContMixed:
		return "mixed"
	case ContNVEM:
		return "nvem-resident"
	default:
		return fmt.Sprintf("ContentionAlloc(%d)", int(a))
	}
}

// ContentionSetup is one point of the lock-contention experiment: a single
// variable-size transaction type (10 object accesses on average, 100%
// updates), 80% of accesses to a 10,000-object partition and 20% to a
// 100,000-object partition, blocking factor 10 (section 4.7).
type ContentionSetup struct {
	Rate        float64
	Alloc       ContentionAlloc
	Granularity cc.Granularity
}

// contentionModel is the section 4.7 workload at the given arrival rate:
// one variable-size update type averaging ten object references, 80% of
// accesses on a small hot partition. Shared by Fig 4.8 and the
// cluster.locking experiment so both provably run the same workload.
func contentionModel(rate float64) *workload.Model {
	return &workload.Model{
		Partitions: []workload.Partition{
			{Name: "hot", NumObjects: 10_000, BlockFactor: 10},
			{Name: "cold", NumObjects: 100_000, BlockFactor: 10},
		},
		TxTypes: []workload.TxType{
			{
				Name:        "update",
				ArrivalRate: rate,
				TxSize:      10,
				WriteProb:   1.0,
				VarSize:     true,
				RefRow:      []float64{0.8, 0.2},
			},
		},
	}
}

// applyContentionPathlength sets the per-object CPU cost so the total
// pathlength stays at 250k instructions: "Like for Debit-Credit, an
// average pathlength of 250.000 instructions per transaction has been
// chosen" (section 4.7) — with ten object references the per-object cost
// shrinks to keep the total constant.
func applyContentionPathlength(cfg *core.Config) {
	cfg.InstrOR = (250_000 - cfg.InstrBOT - cfg.InstrEOT) / 10
}

// Build assembles the engine configuration.
func (s ContentionSetup) Build(o Options) (core.Config, error) {
	model := contentionModel(s.Rate)
	gen, err := workload.NewSynthetic(model)
	if err != nil {
		return core.Config{}, err
	}
	cfg := o.baseConfig()
	cfg.Partitions = model.Partitions
	cfg.Generator = gen
	cfg.CCModes = []cc.Granularity{s.Granularity, s.Granularity}
	applyContentionPathlength(&cfg)

	cfg.DiskUnits = diskUnits(12, 96, 2, 8)
	cfg.Buffer = buffer.Config{
		BufferSize: 2000,
		Logging:    true,
	}
	db := DBSpec{Kind: DBRegular}
	log := LogSpec{Kind: LogNVEM}
	switch s.Alloc {
	case ContDisk:
		log.Kind = LogDisk
	case ContMixed:
	case ContNVEM:
		db.Kind = DBNVEMResident
	default:
		return core.Config{}, fmt.Errorf("experiments: unknown contention allocation %d", s.Alloc)
	}
	if err := place(&cfg, db, log); err != nil {
		return core.Config{}, err
	}
	if s.Alloc == ContMixed {
		// The small high-contention partition alone is NVEM-resident.
		cfg.Buffer.Partitions[0].NVEMResident = true
	}
	return cfg, nil
}

// Run builds and executes the setup.
func (s ContentionSetup) Run(o Options) (*core.Result, error) { return runBuilt(s.Build(o)) }

// Fig48 reproduces Fig 4.8: page- vs. object-level locking for the three
// allocation strategies. Under page locking the disk-based and mixed
// configurations thrash on locks well below the CPU limit; the NVEM-resident
// allocation keeps lock holding times so short that page locking suffices.
func Fig48(o Options) (*stats.Figure, error) {
	fig := &stats.Figure{
		Title:  "Fig 4.8: Page- vs. object-locking for different allocation strategies",
		XLabel: "TPS",
		YLabel: "mean response time [ms]",
		X:      o.rates(),
	}
	type scheme struct {
		label string
		alloc ContentionAlloc
		gran  cc.Granularity
	}
	schemes := []scheme{
		{"disk:page-locks", ContDisk, cc.PageLevel},
		{"mixed:page-locks", ContMixed, cc.PageLevel},
		{"disk:object-locks", ContDisk, cc.ObjectLevel},
		{"mixed:object-locks", ContMixed, cc.ObjectLevel},
		{"nvem:page-locks", ContNVEM, cc.PageLevel},
	}
	cells, err := sweep(o, len(schemes), len(fig.X), func(si, xi int, o Options) (*core.Result, error) {
		sc, rate := schemes[si], fig.X[xi]
		res, err := ContentionSetup{Rate: rate, Alloc: sc.alloc, Granularity: sc.gran}.Run(o)
		if err != nil {
			return nil, fmt.Errorf("fig4.8 %s @%v: %w", sc.label, rate, err)
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
