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

// fileConfig is the JSON schema cmd/tpsim accepts: the engine
// configuration, whose json tags name its keys, plus a workload selector
// and an optional cluster section.
type fileConfig struct {
	tpsim.Config
	Workload workloadConfig `json:"workload"`

	// Cluster switches the run to a multi-node data-sharing simulation:
	// numNodes transaction systems share the disk units and one global
	// NVEM, and every workload rate becomes an aggregate rate split evenly
	// over the nodes. Absent (or numNodes <= 1 with no other cluster
	// settings): a classic single-node run.
	Cluster *clusterConfig `json:"cluster"`
}

// clusterConfig is the cluster section. A failure, admission or pdes
// section that is present switches its feature on: one node crash with
// redo recovery, the recovery-aware admission controller, and the
// conservative parallel engine.
type clusterConfig struct {
	tpsim.ClusterConfig
	Failure   *tpsim.FailureConfig   `json:"failure"`
	Admission *tpsim.AdmissionConfig `json:"admission"`
	PDES      *tpsim.PDESConfig      `json:"pdes"`
}

type workloadConfig struct {
	Kind string  `json:"kind"` // "debitcredit", "trace", "synthetic" or "classes"
	Rate float64 `json:"rate"`

	// Arrival selects the arrival process of every transaction-type
	// stream. Absent: Poisson (the paper's evaluation).
	Arrival *tpsim.ArrivalSpec `json:"arrival"`

	// Access skews the object draws: the within-branch account selection
	// for debitcredit, the CUSTOMER selection for classes. Absent: uniform
	// (the paper's evaluation).
	Access *tpsim.AccessSpec `json:"access"`

	// Classes is the multi-class mix of workload kind "classes": the
	// standard two-partition database with one transaction class per entry,
	// reported separately in the result's per-class lines.
	Classes []tpsim.ClassSpec `json:"classes"`

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

// load reads and assembles a run configuration: the single-node engine
// configuration, plus a cluster description when the file carries a
// cluster section (the returned Config is then the cluster's Base).
func load(r io.Reader) (tpsim.Config, *tpsim.ClusterConfig, error) {
	var fc fileConfig
	fc.Buffer.Logging = true // a file that leaves "logging" out logs commits
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
	if cl.NumNodes > tpsim.MaxNodes {
		return tpsim.Config{}, nil, fmt.Errorf("cluster.numNodes = %d exceeds the cap of %d nodes", cl.NumNodes, tpsim.MaxNodes)
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

	ccfg := cl.ClusterConfig
	ccfg.Base = base
	ccfg.Generators = gens
	if cl.Failure != nil {
		ccfg.Failure = *cl.Failure
		ccfg.Failure.Enabled = true
	}
	if cl.Admission != nil {
		ccfg.Admission = *cl.Admission
		ccfg.Admission.Enabled = true
	}
	if cl.PDES != nil {
		ccfg.PDES = *cl.PDES
		ccfg.PDES.Enabled = true
	}
	return base, &ccfg, nil
}

// assemble builds the single-node engine configuration from the decoded
// file: 0 keeps a default of Table 4.1, and every partition gets a cc mode.
func (fc *fileConfig) assemble() (tpsim.Config, error) {
	cfg, def := fc.Config, tpsim.Defaults()
	cfg.Seed = cmp.Or(cfg.Seed, def.Seed)
	cfg.MaxQueue = def.MaxQueue
	if err := errors.Join(
		orDefault(&cfg.MPL, "mpl", def.MPL),
		orDefault(&cfg.NumCPU, "numCPU", def.NumCPU),
		orDefault(&cfg.MIPS, "mips", def.MIPS),
		orDefault(&cfg.InstrBOT, "instrBOT", def.InstrBOT),
		orDefault(&cfg.InstrOR, "instrOR", def.InstrOR),
		orDefault(&cfg.InstrEOT, "instrEOT", def.InstrEOT),
		orDefault(&cfg.InstrIO, "instrIO", def.InstrIO),
		orDefault(&cfg.InstrNVEM, "instrNVEM", def.InstrNVEM),
		orDefault(&cfg.WarmupMS, "warmupMS", def.WarmupMS),
		orDefault(&cfg.MeasureMS, "measureMS", def.MeasureMS),
		orDefault(&cfg.NVEMServers, "nvemServers", def.NVEMServers),
		orDefault(&cfg.NVEMDelay, "nvemDelayMS", def.NVEMDelay),
	); err != nil {
		return cfg, err
	}

	if err := fc.workload(&cfg); err != nil {
		return cfg, err
	}
	if a := fc.Workload.Arrival; a != nil {
		if err := a.Validate(); err != nil {
			return cfg, err
		}
		cfg.Arrival = *a
	}

	// A partition the file gives no cc mode locks pages; modes past the
	// last partition are dropped.
	modes := make([]tpsim.Granularity, len(cfg.Partitions))
	for i := range modes {
		modes[i] = tpsim.PageLevel
	}
	copy(modes, cfg.CCModes)
	cfg.CCModes = modes

	if len(cfg.Buffer.Partitions) != len(cfg.Partitions) {
		return cfg, fmt.Errorf("buffer.partitions has %d entries for %d workload partitions",
			len(cfg.Buffer.Partitions), len(cfg.Partitions))
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
		skew = *w.Access
		if err := skew.Validate(); err != nil {
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
			orDefault(&w.Branches, "workload.branches", dcc.NumBranches),
			orDefault(&w.Accounts, "workload.accounts", dcc.NumAccounts),
		); err != nil {
			return err
		}
		dcc.NumBranches, dcc.NumAccounts = w.Branches, w.Accounts
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
		m, err := tpsim.ClassMixModel(w.Classes, skew)
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

// orDefault checks the file's value *v of field name: 0 takes the
// default def, and a negative value is an error.
func orDefault[T int | int64 | float64](v *T, name string, def T) error {
	if *v < 0 {
		return fmt.Errorf("%s = %v: must not be negative (0 keeps the default)", name, *v)
	}
	if *v == 0 {
		*v = def
	}
	return nil
}
