// Package tpsim is a from-scratch Go implementation of TPSIM, the
// transaction-processing simulation system of Erhard Rahm's "Performance
// Evaluation of Extended Storage Architectures for Transaction Processing"
// (TR 216/91, University of Kaiserslautern, 1991 / SIGMOD 1992).
//
// TPSIM simulates an OLTP system over an extended storage hierarchy — main
// memory, non-volatile extended memory (NVEM), disk caches, solid-state
// disks (SSD) and magnetic disks — with three workload paths (a general
// synthetic model, the Debit-Credit benchmark, and database traces), strict
// two-phase locking with deadlock detection, and a buffer manager supporting
// FORCE/NOFORCE propagation, an NVEM second-level database cache, and NVEM /
// disk-cache write buffers.
//
// This package is the public facade: it re-exports the configuration and
// result types of the internal engine and the workload builders. A minimal
// run looks like:
//
//	gen, _ := tpsim.NewDebitCredit(tpsim.DefaultDebitCreditConfig(500))
//	cfg := tpsim.Defaults()
//	cfg.Partitions = gen.Partitions()
//	cfg.Generator = gen
//	cfg.CCModes = []tpsim.Granularity{tpsim.PageLevel, tpsim.PageLevel, tpsim.NoCC}
//	... configure cfg.DiskUnits and cfg.Buffer ...
//	res, err := tpsim.Run(cfg)
//	fmt.Println(res)
//
// See the examples/ directory for complete programs and internal/experiments
// for the configurations regenerating every figure and table of the paper.
package tpsim

import (
	"io"

	"repro/internal/buffer"
	"repro/internal/cc"
	"repro/internal/core"
	"repro/internal/storage"
	"repro/internal/trace"
	"repro/internal/workload"
)

// Engine configuration and results.
type (
	// Config describes one simulation run (CM, devices, buffer, workload).
	Config = core.Config
	// Result carries the run's metrics (response time, throughput, hit
	// ratios, utilizations, lock behaviour).
	Result = core.Result
	// PartitionReport is the per-partition hit breakdown of a Result.
	PartitionReport = core.PartitionReport
	// UnitReport is one disk-unit's activity in a Result.
	UnitReport = core.UnitReport
)

// Run executes one simulation and returns its metrics.
func Run(cfg Config) (*Result, error) { return core.Run(cfg) }

// Multi-node data sharing and crash recovery.
type (
	// ClusterConfig describes a multi-node data-sharing simulation.
	ClusterConfig = core.ClusterConfig
	// ClusterResult carries a cluster run's aggregate and per-node metrics.
	ClusterResult = core.ClusterResult
	// FailureConfig injects one node crash into a cluster run.
	FailureConfig = core.FailureConfig
	// RestartReport describes a simulated crash and redo recovery.
	RestartReport = core.RestartReport
	// AdmissionConfig is the recovery-aware admission controller shedding
	// rerouted arrivals above a survivor-capacity threshold.
	AdmissionConfig = core.AdmissionConfig
	// PDESConfig switches a cluster run to the conservative parallel
	// engine: one kernel and private storage per node, cross-node events
	// exchanged at message-latency lookahead barriers.
	PDESConfig = core.PDESConfig
)

// MaxNodes caps ClusterConfig.NumNodes.
const MaxNodes = core.MaxNodes

// RunCluster executes one multi-node data-sharing simulation.
func RunCluster(cfg ClusterConfig) (*ClusterResult, error) { return core.RunCluster(cfg) }

// MeasureRestart runs cfg like Run, then crashes the system after the
// measurement window and simulates redo recovery, filling Result.Restart.
func MeasureRestart(cfg Config, rebootMS float64) (*Result, error) {
	return core.MeasureRestart(cfg, rebootMS)
}

// Defaults returns the CM parameter settings of the paper's Table 4.1.
func Defaults() Config { return core.Defaults() }

// Standard device delays of Table 4.1 (milliseconds).
const (
	DefaultContrDelay   = core.DefaultContrDelay
	DefaultTransDelay   = core.DefaultTransDelay
	DefaultDBDiskDelay  = core.DefaultDBDiskDelay
	DefaultLogDiskDelay = core.DefaultLogDiskDelay
)

// Storage devices (Table 3.4).
type (
	// DiskUnitConfig parameterizes one disk-unit.
	DiskUnitConfig = storage.DiskUnitConfig
	// DiskUnitType selects regular disk, volatile/non-volatile cache or SSD.
	DiskUnitType = storage.DiskUnitType
	// PageKey identifies a database page (partition, page number).
	PageKey = storage.PageKey
)

// Disk-unit variants.
const (
	Regular       = storage.Regular
	VolatileCache = storage.VolatileCache
	NVCache       = storage.NVCache
	SSD           = storage.SSD
)

// Buffer management (Table 3.3, Fig 3.2).
type (
	// BufferConfig parameterizes the buffer manager.
	BufferConfig = buffer.Config
	// PartitionAlloc places one partition in the storage hierarchy.
	PartitionAlloc = buffer.PartitionAlloc
	// LogAlloc places the log file.
	LogAlloc = buffer.LogAlloc
	// MigrateMode selects which replaced pages enter the NVEM cache.
	MigrateMode = buffer.MigrateMode
)

// NVEM cache migration modes.
const (
	MigrateAll        = buffer.MigrateAll
	MigrateModified   = buffer.MigrateModified
	MigrateUnmodified = buffer.MigrateUnmodified
)

// Concurrency control.
type (
	// Granularity is the per-partition locking choice.
	Granularity = cc.Granularity
)

// Lock granularities.
const (
	NoCC        = cc.NoCC
	PageLevel   = cc.PageLevel
	ObjectLevel = cc.ObjectLevel
)

// Workload model (Table 3.1).
type (
	// Partition is a database partition (file, relation, index, ...).
	Partition = workload.Partition
	// Subpartition is one slice of the generalized b/c access rule.
	Subpartition = workload.Subpartition
	// TxType describes a synthetic transaction type.
	TxType = workload.TxType
	// Model is the synthetic database and load description.
	Model = workload.Model
	// Generator produces transactions for the engine.
	Generator = workload.Generator
	// DebitCreditConfig parameterizes the Debit-Credit generator.
	DebitCreditConfig = workload.DebitCreditConfig
)

// Access distributions (object-selection skew).
type (
	// AccessSpec describes an object access distribution; the zero value is
	// the uniform draw of the paper's evaluation.
	AccessSpec = workload.AccessSpec
	// AccessDist draws object numbers under an AccessSpec.
	AccessDist = workload.AccessDist
	// AccessKind selects the access-distribution family of an AccessSpec.
	AccessKind = workload.AccessKind
)

// Access-distribution families.
const (
	AccessUniform = workload.AccessUniform
	AccessZipf    = workload.AccessZipf
	AccessHotSpot = workload.AccessHotSpot
)

// Multi-class transaction mixes.
type (
	// ClassSpec describes one transaction class of the standard mix.
	ClassSpec = workload.ClassSpec
	// ClassReport is one class's share of a Result's accounting.
	ClassReport = core.ClassReport
)

// ClassMixModel builds the standard two-partition multi-class model from a
// class list; skew applies to the CUSTOMER draws of the random classes.
func ClassMixModel(classes []ClassSpec, skew AccessSpec) (*Model, error) {
	return workload.ClassMixModel(classes, skew)
}

// DefaultClassMix returns the conventional three-class TPC-C-style mix
// (short updates, long read-mostly queries, batch scans) at the given
// per-class arrival rates.
func DefaultClassMix(updateTPS, readTPS, scanTPS float64) []ClassSpec {
	return workload.DefaultClassMix(updateTPS, readTPS, scanTPS)
}

// Arrival processes (the pluggable interarrival layer).
type (
	// ArrivalProcess generates the interarrival gaps of one arrival stream.
	ArrivalProcess = workload.ArrivalProcess
	// ArrivalSpec describes an arrival process independently of the rate;
	// the zero value is the classic Poisson process.
	ArrivalSpec = workload.ArrivalSpec
	// ArrivalKind selects the arrival-process family of an ArrivalSpec.
	ArrivalKind = workload.ArrivalKind
)

// Arrival-process families.
const (
	ArrivalPoisson    = workload.ArrivalPoisson
	ArrivalMMPP       = workload.ArrivalMMPP
	ArrivalDiurnal    = workload.ArrivalDiurnal
	ArrivalSpike      = workload.ArrivalSpike
	ArrivalClosedLoop = workload.ArrivalClosedLoop
	ArrivalReplay     = workload.ArrivalReplay
)

// NewSynthetic builds the general synthetic workload generator.
func NewSynthetic(m *Model) (*workload.Synthetic, error) { return workload.NewSynthetic(m) }

// NewDebitCredit builds the Debit-Credit benchmark generator.
func NewDebitCredit(cfg DebitCreditConfig) (*workload.DebitCredit, error) {
	return workload.NewDebitCredit(cfg)
}

// DefaultDebitCreditConfig returns the Table 4.1 Debit-Credit settings at
// the given arrival rate (transactions per second).
func DefaultDebitCreditConfig(rate float64) DebitCreditConfig {
	return workload.DefaultDebitCreditConfig(rate)
}

// BCRule builds the classic two-subpartition b/c access rule (b fraction of
// accesses to c fraction of the objects).
func BCRule(b, c float64) []Subpartition { return workload.BCRule(b, c) }

// Traces (section 4.6).
type (
	// Trace is a recorded or synthesized page-reference workload. It must
	// not change once it has been validated or replayed; a caller that
	// edits one calls its Validate again.
	Trace = trace.Trace
	// TraceSource replays a trace as a workload generator.
	TraceSource = trace.Source
)

// GenerateRealLifeTrace synthesizes the stand-in for the paper's real-life
// trace (~17.6k transactions, 12 types, ~1M accesses, ~66k distinct pages in
// 13 files, 1.6% writes).
func GenerateRealLifeTrace(seed int64) *Trace { return trace.GenerateRealLife(seed) }

// NewTraceSource builds a replay generator submitting the trace at the given
// rate (transactions per second), preserving the original execution order.
// Only the first source over a trace validates it, so the points of a sweep
// over one trace walk its references once.
func NewTraceSource(tr *Trace, rate float64) (*TraceSource, error) {
	return trace.NewSource(tr, rate)
}

// NewTraceSourceByType builds a replay generator with a separate arrival
// rate per transaction type (section 3.1's alternative replay mode).
func NewTraceSourceByType(tr *Trace, rates []float64) (*TraceSource, error) {
	return trace.NewSourceByType(tr, rates)
}

// WriteTrace serializes a trace in the line-oriented TPSIM-TRACE format.
func WriteTrace(w io.Writer, tr *Trace) error { return trace.Write(w, tr) }

// ReadTrace parses and validates a trace in the TPSIM-TRACE format; replay
// sources over the result do not validate it again.
func ReadTrace(r io.Reader) (*Trace, error) { return trace.Read(r) }

// LoadTimeline folds a trace's reference volume into buckets normalized rate
// multipliers (mean 1), ready for an ArrivalReplay spec's RateMultipliers.
// Like NewTraceSource, it validates only a trace no Validate has passed.
func LoadTimeline(tr *Trace, buckets int) ([]float64, error) {
	return trace.LoadTimeline(tr, buckets)
}
