package trace

import (
	"fmt"

	"repro/internal/rng"
	"repro/internal/workload"
)

// Source adapts a Trace to the workload.Generator interface so the engine
// can replay it. As in the paper (section 3.1), either a common arrival
// rate preserves the original execution order of the whole trace, or a
// separate arrival rate is given per transaction type and each type replays
// its own transactions in original order. When a stream is exhausted the
// source wraps around (steady-state experiments need an unbounded stream).
type Source struct {
	tr     *Trace
	rate   float64 // common-rate mode
	next   int
	rates  []float64 // per-type mode
	byType [][]int   // per-type transaction indices in original order
	posTyp []int
}

// NewSource creates a replay source submitting the whole trace as one
// transaction stream at rate transactions per second, preserving the
// original execution order. It validates the trace unless its last
// Validate passed (see Trace).
func NewSource(tr *Trace, rate float64) (*Source, error) {
	if err := tr.validated(); err != nil {
		return nil, err
	}
	if rate <= 0 {
		return nil, fmt.Errorf("trace: arrival rate %v", rate)
	}
	if len(tr.Txs) == 0 {
		return nil, fmt.Errorf("trace: empty trace")
	}
	return &Source{tr: tr, rate: rate}, nil
}

// NewSourceByType creates a replay source with a separate arrival rate per
// transaction type (rates[i] is TPS for type i; a zero rate disables the
// type). The number of rates must cover every type id in the trace. Like
// NewSource, it validates the trace unless its last Validate passed.
func NewSourceByType(tr *Trace, rates []float64) (*Source, error) {
	if err := tr.validated(); err != nil {
		return nil, err
	}
	if len(tr.Txs) == 0 {
		return nil, fmt.Errorf("trace: empty trace")
	}
	byType := make([][]int, len(rates))
	for i := range tr.Txs {
		typ := tr.Txs[i].Type
		if typ >= len(rates) {
			return nil, fmt.Errorf("trace: tx type %d has no arrival rate (%d given)", typ, len(rates))
		}
		byType[typ] = append(byType[typ], i)
	}
	for i, r := range rates {
		if r < 0 {
			return nil, fmt.Errorf("trace: type %d arrival rate %v", i, r)
		}
		if r > 0 && len(byType[i]) == 0 {
			return nil, fmt.Errorf("trace: type %d has rate %v but no transactions", i, r)
		}
	}
	return &Source{tr: tr, rates: rates, byType: byType, posTyp: make([]int, len(rates))}, nil
}

// Rewound returns a source over the same trace and rates whose streams
// start again at their first transaction. Runs that replay one trace can
// each take a rewound copy of a single source: the copy checks nothing and
// shares the per-type index NewSourceByType built over every transaction.
// The copies share the read-only trace and advance independently.
func (s *Source) Rewound() *Source {
	r := *s
	r.next = 0
	if s.posTyp != nil {
		r.posTyp = make([]int, len(s.posTyp))
	}
	return &r
}

// Partitions derives the database partitions for the engine: one per trace
// file, page-granular (block factor 1, so object ids equal page ids).
func (s *Source) Partitions() []workload.Partition {
	parts := make([]workload.Partition, len(s.tr.FilePages))
	for f, pages := range s.tr.FilePages {
		parts[f] = workload.Partition{
			Name:        fmt.Sprintf("file-%d", f),
			NumObjects:  pages,
			BlockFactor: 1,
		}
	}
	return parts
}

// NumTypes implements workload.Generator: one stream in common-rate mode,
// one stream per transaction type in per-type mode.
func (s *Source) NumTypes() int {
	if s.byType != nil {
		return len(s.rates)
	}
	return 1
}

// TypeInfo implements workload.Generator.
func (s *Source) TypeInfo(i int) (string, float64) {
	if s.byType == nil {
		return "trace-replay", s.rate
	}
	name := fmt.Sprintf("type-%d", i)
	if i < len(s.tr.TypeNames) {
		name = s.tr.TypeNames[i]
	}
	return name, s.rates[i]
}

// Len returns the number of transactions in the underlying trace.
func (s *Source) Len() int { return len(s.tr.Txs) }

// Next implements workload.Generator: it returns the next traced
// transaction of the stream itself, accesses and all, with no copy. A
// trace's files are page-granular partitions (Partitions), so its accesses
// are already the engine's.
func (s *Source) Next(i int, _ *rng.Stream) workload.Tx {
	if s.byType != nil {
		list := s.byType[i]
		k := list[s.posTyp[i]%len(list)]
		s.posTyp[i]++
		return s.tr.Txs[k]
	}
	k := s.next % len(s.tr.Txs)
	s.next++
	return s.tr.Txs[k]
}
