package main

import (
	"cmp"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"os"
	"slices"

	tpsim "repro"
	"repro/internal/trace"
)

// fileConfig is the JSON schema cmd/tpsim accepts. It maps 1:1 onto the
// engine configuration plus a workload selector.
type fileConfig struct {
	Seed      int64   `json:"seed"`
	MPL       int     `json:"mpl"`
	NumCPU    int     `json:"numCPU"`
	MIPS      float64 `json:"mips"`
	InstrBOT  float64 `json:"instrBOT"`
	InstrOR   float64 `json:"instrOR"`
	InstrEOT  float64 `json:"instrEOT"`
	InstrIO   float64 `json:"instrIO"`
	InstrNVEM float64 `json:"instrNVEM"`

	WarmupMS  float64 `json:"warmupMS"`
	MeasureMS float64 `json:"measureMS"`

	Workload workloadConfig `json:"workload"`

	// CCModes: "none", "page" or "object" per partition. Empty defaults to
	// page-level locking everywhere.
	CCModes []string `json:"ccModes"`

	NVEMServers int     `json:"nvemServers"`
	NVEMDelayMS float64 `json:"nvemDelayMS"`

	DiskUnits []diskUnitConfig `json:"diskUnits"`
	Buffer    bufferConfig     `json:"buffer"`

	// Cluster switches the run to a multi-node data-sharing simulation:
	// numNodes transaction systems share the disk units and one global
	// NVEM, and every workload rate becomes an aggregate rate split evenly
	// over the nodes. Absent (or numNodes <= 1 with no other cluster
	// settings): a classic single-node run.
	Cluster *clusterConfig `json:"cluster"`
}

type clusterConfig struct {
	NumNodes        int  `json:"numNodes"`
	SharedNVEMCache bool `json:"sharedNVEMCache"`
	// NVEMAccessDelayMS is the shared-NVEM-cache interconnect latency;
	// required positive to combine sharedNVEMCache with pdes (coherence
	// needs lookahead), ignored by coupled runs.
	NVEMAccessDelayMS float64          `json:"nvemAccessDelayMS"`
	GlobalLocks       bool             `json:"globalLocks"`
	InstrLockMsg      float64          `json:"instrLockMsg"`
	LockMsgDelayMS    float64          `json:"lockMsgDelayMS"`
	TimelineBucketMS  float64          `json:"timelineBucketMS"`
	Failure           *failureConfig   `json:"failure"`
	Admission         *admissionConfig `json:"admission"`
	PDES              *pdesConfig      `json:"pdes"`
}

// pdesConfig switches the cluster run to the conservative parallel engine
// (per-node kernels and storage, lookahead barriers). workers caps the
// kernel-executing goroutines (0 → all cores); results are identical for
// every value.
type pdesConfig struct {
	Workers int `json:"workers"`
}

// admissionConfig enables the recovery-aware admission controller: while a
// node is down, rerouted arrivals are shed once the surviving target's
// input queue exceeds queueFactor × MPL (0 → the engine default of 1.0).
type admissionConfig struct {
	QueueFactor float64 `json:"queueFactor"`
}

// failureConfig injects one node crash (offset into the measurement
// window) with redo recovery after rebootMS.
type failureConfig struct {
	Node      int     `json:"node"`
	CrashAtMS float64 `json:"crashAtMS"`
	RebootMS  float64 `json:"rebootMS"`
}

type workloadConfig struct {
	Kind string  `json:"kind"` // "debitcredit", "trace", "synthetic" or "classes"
	Rate float64 `json:"rate"`

	// Arrival selects the arrival process of every transaction-type
	// stream. Absent: Poisson (the paper's evaluation).
	Arrival *arrivalConfig `json:"arrival"`

	// Access skews the object draws: the within-branch account selection
	// for debitcredit, the CUSTOMER selection for classes. Absent: uniform
	// (the paper's evaluation).
	Access *accessConfig `json:"access"`

	// Classes is the multi-class mix of workload kind "classes": the
	// standard two-partition database with one transaction class per entry,
	// reported separately in the result's per-class lines.
	Classes []classConfig `json:"classes"`

	// Debit-Credit overrides (zero = Table 4.1 defaults).
	Branches  int64 `json:"branches"`
	Accounts  int64 `json:"accounts"`
	Uncluster bool  `json:"uncluster"`

	// Trace replay. PerTypeRates switches to one arrival stream per
	// transaction type instead of a single ordered replay at Rate.
	TraceFile    string    `json:"traceFile"`
	PerTypeRates []float64 `json:"perTypeRates"`

	// General synthetic model.
	Synthetic *tpsim.Model `json:"synthetic"`
}

// accessConfig is the JSON form of tpsim.AccessSpec. Kind selects the
// family; only that family's parameters apply.
type accessConfig struct {
	Kind string `json:"kind"` // uniform (default), zipf, hotspot

	// zipf: rank-frequency exponent, 0 < theta < 1.
	Theta float64 `json:"theta"`

	// hotspot: hotAccessFrac of the draws land on the first hotDataFrac of
	// the objects (e.g. 0.9 / 0.01 — "90% of accesses to 1% of the data").
	HotAccessFrac float64 `json:"hotAccessFrac"`
	HotDataFrac   float64 `json:"hotDataFrac"`
}

// assemble maps the JSON form onto the engine spec.
func (a *accessConfig) assemble() (tpsim.AccessSpec, error) {
	spec := tpsim.AccessSpec{
		Theta:         a.Theta,
		HotAccessFrac: a.HotAccessFrac,
		HotDataFrac:   a.HotDataFrac,
	}
	kind, err := named("access kind", cmp.Or(a.Kind, "uniform"),
		tpsim.AccessUniform, tpsim.AccessZipf, tpsim.AccessHotSpot)
	if err != nil {
		return spec, err
	}
	spec.Kind = kind
	return spec, spec.Validate()
}

// classConfig is the JSON form of one tpsim.ClassSpec.
type classConfig struct {
	Name       string  `json:"name"`
	Rate       float64 `json:"rate"`
	Size       float64 `json:"size"`
	WriteProb  float64 `json:"writeProb"`
	Sequential bool    `json:"sequential"`
	VarSize    bool    `json:"varSize"`
}

// arrivalConfig is the JSON form of tpsim.ArrivalSpec. Kind selects the
// family; only that family's parameters apply.
type arrivalConfig struct {
	Kind string `json:"kind"` // poisson (default), mmpp, diurnal, spike, closedloop, replay

	// mmpp: bursts at burstFactor × the mean rate covering burstFrac of
	// the time (mean burst sojourn burstMeanMS; 0 → 500 ms), base rate
	// derived so the long-run mean rate is workload.rate.
	BurstFactor float64 `json:"burstFactor"`
	BurstFrac   float64 `json:"burstFrac"`
	BurstMeanMS float64 `json:"burstMeanMS"`

	// diurnal: rate(t) = mean · (1 + amplitude · sin(2πt/periodMS + phaseRad)).
	Amplitude float64 `json:"amplitude"`
	PeriodMS  float64 `json:"periodMS"`
	PhaseRad  float64 `json:"phaseRad"`

	// spike: rate × spikeFactor over [spikeAtMS, spikeAtMS+spikeDurMS),
	// offsets into the measurement window (the clock failure.crashAtMS
	// uses, so a spike aligns with a crash by construction).
	SpikeFactor float64 `json:"spikeFactor"`
	SpikeAtMS   float64 `json:"spikeAtMS"`
	SpikeDurMS  float64 `json:"spikeDurMS"`

	// closedloop: terminals each cycle think(thinkMS) -> submit -> wait for
	// the response; workload.rate is ignored for closed-loop streams.
	Terminals int     `json:"terminals"`
	ThinkMS   float64 `json:"thinkMS"`

	// replay: piecewise-constant rate = workload.rate × the bucket's
	// multiplier, each bucket rateBucketMS long (e.g. a timeline recorded
	// from a trace); the schedule repeats past the last bucket.
	RateBucketMS    float64   `json:"rateBucketMS"`
	RateMultipliers []float64 `json:"rateMultipliers"`
}

// assemble maps the JSON form onto the engine spec.
func (a *arrivalConfig) assemble() (tpsim.ArrivalSpec, error) {
	spec := tpsim.ArrivalSpec{
		BurstFactor: a.BurstFactor,
		BurstFrac:   a.BurstFrac,
		BurstMeanMS: a.BurstMeanMS,
		Amplitude:   a.Amplitude,
		PeriodMS:    a.PeriodMS,
		PhaseRad:    a.PhaseRad,
		SpikeFactor: a.SpikeFactor,
		SpikeAtMS:   a.SpikeAtMS,
		SpikeDurMS:  a.SpikeDurMS,

		Terminals: a.Terminals,
		ThinkMS:   a.ThinkMS,

		RateBucketMS:    a.RateBucketMS,
		RateMultipliers: a.RateMultipliers,
	}
	kind, err := named("arrival kind", cmp.Or(a.Kind, "poisson"),
		tpsim.ArrivalPoisson, tpsim.ArrivalMMPP, tpsim.ArrivalDiurnal,
		tpsim.ArrivalSpike, tpsim.ArrivalClosedLoop, tpsim.ArrivalReplay)
	if err != nil {
		return spec, err
	}
	spec.Kind = kind
	return spec, spec.Validate()
}

type diskUnitConfig struct {
	Name            string  `json:"name"`
	Type            string  `json:"type"` // regular, volatile-cache, nv-cache, ssd
	NumControllers  int     `json:"numControllers"`
	ContrDelayMS    float64 `json:"contrDelayMS"`
	TransDelayMS    float64 `json:"transDelayMS"`
	NumDisks        int     `json:"numDisks"`
	DiskDelayMS     float64 `json:"diskDelayMS"`
	CacheSize       int     `json:"cacheSize"`
	WriteBufferOnly bool    `json:"writeBufferOnly"`
}

type bufferConfig struct {
	BufferSize           int               `json:"bufferSize"`
	Force                bool              `json:"force"`
	Logging              *bool             `json:"logging"` // default true
	CheckpointIntervalMS float64           `json:"checkpointIntervalMS"`
	NVEMCacheSize        int               `json:"nvemCacheSize"`
	NVEMWriteBufferSize  int               `json:"nvemWriteBufferSize"`
	Partitions           []partitionConfig `json:"partitions"`
	Log                  logConfig         `json:"log"`
}

type partitionConfig struct {
	MMResident      bool   `json:"mmResident"`
	NVEMResident    bool   `json:"nvemResident"`
	DiskUnit        int    `json:"diskUnit"`
	SyncAccess      bool   `json:"syncAccess"`
	NVEMCache       bool   `json:"nvemCache"`
	NVEMCacheMode   string `json:"nvemCacheMode"` // all, modified, unmodified
	NVEMWriteBuffer bool   `json:"nvemWriteBuffer"`
}

type logConfig struct {
	NVEMResident    bool `json:"nvemResident"`
	DiskUnit        int  `json:"diskUnit"`
	NVEMWriteBuffer bool `json:"nvemWriteBuffer"`
}

// load reads and assembles a run configuration: the single-node engine
// configuration, plus a cluster description when the file carries a
// cluster section (the returned Config is then the cluster's Base).
func load(r io.Reader) (tpsim.Config, *tpsim.ClusterConfig, error) {
	var fc fileConfig
	dec := json.NewDecoder(r)
	dec.DisallowUnknownFields()
	if err := dec.Decode(&fc); err != nil {
		return tpsim.Config{}, nil, fmt.Errorf("parse config: %w", err)
	}
	if fc.Cluster != nil {
		return fc.assembleCluster()
	}
	cfg, err := fc.assemble()
	return cfg, nil, err
}

// assembleCluster builds the multi-node configuration: the base engine
// configuration shared by every node plus one independent generator per
// node, each fed an even share of the configured aggregate rates.
func (fc *fileConfig) assembleCluster() (tpsim.Config, *tpsim.ClusterConfig, error) {
	cl := fc.Cluster
	if cl.NumNodes <= 0 {
		return tpsim.Config{}, nil, fmt.Errorf("cluster.numNodes = %d", cl.NumNodes)
	}
	n := cl.NumNodes
	per := *fc
	per.Workload = fc.Workload.split(n)

	base, err := per.assemble()
	if err != nil {
		return tpsim.Config{}, nil, err
	}
	// Generators are stateful: build a fresh instance per node (assemble
	// already produced node 0's). Trace replay reads its file once: the
	// other nodes replay rewound copies of node 0's source, whose rates
	// equal theirs.
	gens := make([]tpsim.Generator, n)
	gens[0] = base.Generator
	for i := 1; i < n; i++ {
		if src, ok := base.Generator.(*tpsim.TraceSource); ok {
			gens[i] = src.Rewound()
			continue
		}
		nodeCfg := base
		if err := per.workload(&nodeCfg); err != nil {
			return tpsim.Config{}, nil, err
		}
		gens[i] = nodeCfg.Generator
	}

	ccfg := &tpsim.ClusterConfig{
		Base:              base,
		NumNodes:          n,
		Generators:        gens,
		SharedNVEMCache:   cl.SharedNVEMCache,
		NVEMAccessDelayMS: cl.NVEMAccessDelayMS,
		GlobalLocks:       cl.GlobalLocks,
		InstrLockMsg:      cl.InstrLockMsg,
		LockMsgDelayMS:    cl.LockMsgDelayMS,
		TimelineBucketMS:  cl.TimelineBucketMS,
	}
	if cl.Failure != nil {
		ccfg.Failure = tpsim.FailureConfig{
			Enabled:   true,
			Node:      cl.Failure.Node,
			CrashAtMS: cl.Failure.CrashAtMS,
			RebootMS:  cl.Failure.RebootMS,
		}
	}
	if cl.Admission != nil {
		ccfg.Admission = tpsim.AdmissionConfig{
			Enabled:     true,
			QueueFactor: cl.Admission.QueueFactor,
		}
	}
	if cl.PDES != nil {
		ccfg.PDES = tpsim.PDESConfig{
			Enabled: true,
			Workers: cl.PDES.Workers,
		}
	}
	return base, ccfg, nil
}

func (fc *fileConfig) assemble() (tpsim.Config, error) {
	cfg := tpsim.Defaults()
	if fc.Seed != 0 {
		cfg.Seed = fc.Seed
	}
	if err := errors.Join(
		setIfPos(&cfg.MPL, "mpl", fc.MPL),
		setIfPos(&cfg.NumCPU, "numCPU", fc.NumCPU),
		setIfPos(&cfg.MIPS, "mips", fc.MIPS),
		setIfPos(&cfg.InstrBOT, "instrBOT", fc.InstrBOT),
		setIfPos(&cfg.InstrOR, "instrOR", fc.InstrOR),
		setIfPos(&cfg.InstrEOT, "instrEOT", fc.InstrEOT),
		setIfPos(&cfg.InstrIO, "instrIO", fc.InstrIO),
		setIfPos(&cfg.InstrNVEM, "instrNVEM", fc.InstrNVEM),
		setIfPos(&cfg.WarmupMS, "warmupMS", fc.WarmupMS),
		setIfPos(&cfg.MeasureMS, "measureMS", fc.MeasureMS),
		setIfPos(&cfg.NVEMServers, "nvemServers", fc.NVEMServers),
		setIfPos(&cfg.NVEMDelay, "nvemDelayMS", fc.NVEMDelayMS),
	); err != nil {
		return cfg, err
	}

	if err := fc.workload(&cfg); err != nil {
		return cfg, err
	}
	if fc.Workload.Arrival != nil {
		spec, err := fc.Workload.Arrival.assemble()
		if err != nil {
			return cfg, err
		}
		cfg.Arrival = spec
	}

	cfg.CCModes = make([]tpsim.Granularity, len(cfg.Partitions))
	for i := range cfg.CCModes {
		mode := "page"
		if i < len(fc.CCModes) {
			mode = fc.CCModes[i]
		}
		g, err := named("cc mode", mode, tpsim.NoCC, tpsim.PageLevel, tpsim.ObjectLevel)
		if err != nil {
			return cfg, err
		}
		cfg.CCModes[i] = g
	}

	for _, u := range fc.DiskUnits {
		typ, err := named("disk unit type", cmp.Or(u.Type, "regular"),
			tpsim.Regular, tpsim.VolatileCache, tpsim.NVCache, tpsim.SSD)
		if err != nil {
			return cfg, err
		}
		cfg.DiskUnits = append(cfg.DiskUnits, tpsim.DiskUnitConfig{
			Name:            u.Name,
			Type:            typ,
			NumControllers:  u.NumControllers,
			ContrDelay:      u.ContrDelayMS,
			TransDelay:      u.TransDelayMS,
			NumDisks:        u.NumDisks,
			DiskDelay:       u.DiskDelayMS,
			CacheSize:       u.CacheSize,
			WriteBufferOnly: u.WriteBufferOnly,
		})
	}

	logging := true
	if fc.Buffer.Logging != nil {
		logging = *fc.Buffer.Logging
	}
	cfg.Buffer = tpsim.BufferConfig{
		BufferSize:           fc.Buffer.BufferSize,
		Force:                fc.Buffer.Force,
		Logging:              logging,
		CheckpointIntervalMS: fc.Buffer.CheckpointIntervalMS,
		NVEMCacheSize:        fc.Buffer.NVEMCacheSize,
		NVEMWriteBufferSize:  fc.Buffer.NVEMWriteBufferSize,
		Log: tpsim.LogAlloc{
			NVEMResident:    fc.Buffer.Log.NVEMResident,
			DiskUnit:        fc.Buffer.Log.DiskUnit,
			NVEMWriteBuffer: fc.Buffer.Log.NVEMWriteBuffer,
		},
	}
	if len(fc.Buffer.Partitions) != len(cfg.Partitions) {
		return cfg, fmt.Errorf("buffer.partitions has %d entries for %d workload partitions",
			len(fc.Buffer.Partitions), len(cfg.Partitions))
	}
	for _, p := range fc.Buffer.Partitions {
		mode, err := named("nvemCacheMode", cmp.Or(p.NVEMCacheMode, "all"),
			tpsim.MigrateAll, tpsim.MigrateModified, tpsim.MigrateUnmodified)
		if err != nil {
			return cfg, err
		}
		cfg.Buffer.Partitions = append(cfg.Buffer.Partitions, tpsim.PartitionAlloc{
			MMResident:      p.MMResident,
			NVEMResident:    p.NVEMResident,
			DiskUnit:        p.DiskUnit,
			SyncAccess:      p.SyncAccess,
			NVEMCache:       p.NVEMCache,
			NVEMCacheMode:   mode,
			NVEMWriteBuffer: p.NVEMWriteBuffer,
		})
	}
	return cfg, nil
}

// split returns one of n nodes' share of w: every rate it sets, divided
// by n, in copies that leave w as it was.
func (w workloadConfig) split(n int) workloadConfig {
	d := float64(n)
	w.Rate /= d
	w.PerTypeRates = slices.Clone(w.PerTypeRates)
	for i := range w.PerTypeRates {
		w.PerTypeRates[i] /= d
	}
	w.Classes = slices.Clone(w.Classes)
	for i := range w.Classes {
		w.Classes[i].Rate /= d
	}
	if w.Synthetic != nil {
		m := *w.Synthetic
		m.TxTypes = slices.Clone(m.TxTypes)
		for i := range m.TxTypes {
			m.TxTypes[i].ArrivalRate /= d
		}
		w.Synthetic = &m
	}
	return w
}

func (fc *fileConfig) workload(cfg *tpsim.Config) error {
	w := fc.Workload
	var skew tpsim.AccessSpec
	if w.Access != nil {
		var err error
		skew, err = w.Access.assemble()
		if err != nil {
			return err
		}
		switch w.Kind {
		case "debitcredit", "", "classes":
		default:
			return fmt.Errorf("workload.access is not supported for kind %q", w.Kind)
		}
	}
	switch w.Kind {
	case "debitcredit", "":
		dcc := tpsim.DefaultDebitCreditConfig(w.Rate)
		if err := errors.Join(
			setIfPos(&dcc.NumBranches, "workload.branches", w.Branches),
			setIfPos(&dcc.NumAccounts, "workload.accounts", w.Accounts),
		); err != nil {
			return err
		}
		if w.Uncluster {
			dcc.ClusterBranchTeller = false
		}
		dcc.AccountSkew = skew
		gen, err := tpsim.NewDebitCredit(dcc)
		if err != nil {
			return err
		}
		cfg.Partitions = gen.Partitions()
		cfg.Generator = gen
	case "classes":
		if len(w.Classes) == 0 {
			return fmt.Errorf("workload.kind classes requires workload.classes")
		}
		classes := make([]tpsim.ClassSpec, len(w.Classes))
		for i, c := range w.Classes {
			classes[i] = tpsim.ClassSpec{
				Name:       c.Name,
				Rate:       c.Rate,
				Size:       c.Size,
				WriteProb:  c.WriteProb,
				Sequential: c.Sequential,
				VarSize:    c.VarSize,
			}
		}
		m, err := tpsim.ClassMixModel(classes, skew)
		if err != nil {
			return err
		}
		gen, err := tpsim.NewSynthetic(m)
		if err != nil {
			return err
		}
		cfg.Partitions = m.Partitions
		cfg.Generator = gen
	case "trace":
		f, err := os.Open(w.TraceFile)
		if err != nil {
			return err
		}
		tr, err := trace.Read(f)
		f.Close()
		if err != nil {
			return err
		}
		var src *tpsim.TraceSource
		if len(w.PerTypeRates) > 0 {
			src, err = tpsim.NewTraceSourceByType(tr, w.PerTypeRates)
		} else {
			src, err = tpsim.NewTraceSource(tr, w.Rate)
		}
		if err != nil {
			return err
		}
		cfg.Partitions = src.Partitions()
		cfg.Generator = src
	case "synthetic":
		if w.Synthetic == nil {
			return fmt.Errorf("workload.kind synthetic requires workload.synthetic")
		}
		// Each call builds its own model: a cluster's generators must not
		// share one.
		m := *w.Synthetic
		m.TxTypes = slices.Clone(m.TxTypes)
		for i := range m.TxTypes {
			if m.TxTypes[i].ArrivalRate == 0 {
				m.TxTypes[i].ArrivalRate = w.Rate
			}
		}
		gen, err := tpsim.NewSynthetic(&m)
		if err != nil {
			return err
		}
		cfg.Partitions = m.Partitions
		cfg.Generator = gen
	default:
		return fmt.Errorf("unknown workload kind %q", w.Kind)
	}
	return nil
}

// named returns the one of values whose String() is name, the JSON name
// of an enum value; any other name is an unknown what.
func named[E fmt.Stringer](what, name string, values ...E) (E, error) {
	for _, v := range values {
		if v.String() == name {
			return v, nil
		}
	}
	var zero E
	return zero, fmt.Errorf("unknown %s %q", what, name)
}

// setIfPos overrides the default *dst with the file's value v of field
// name: 0 keeps the default, and a negative value is an error.
func setIfPos[T int | int64 | float64](dst *T, name string, v T) error {
	if v < 0 {
		return fmt.Errorf("%s = %v: must not be negative (0 keeps the default)", name, v)
	}
	if v > 0 {
		*dst = v
	}
	return nil
}
