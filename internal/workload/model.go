// Package workload implements TPSIM's SOURCE component: the database model
// (partitions of objects grouped into pages) and three workload generators —
// the general synthetic model with a relative reference matrix and a
// generalized b/c access rule, the Debit-Credit benchmark generator, and a
// trace-driven generator (see package trace for the trace format itself).
package workload

import (
	"fmt"
	"math"

	"repro/internal/rng"
)

// Access is a single object reference of a transaction. The engine maps
// the object to its page with the partition's PageOf, locks on either the
// page or the object depending on the partition's CC mode, and fixes the
// page in the buffer.
type Access struct {
	Partition int
	Object    int64
	Write     bool
}

// Tx is one generated transaction: its type and an ordered list of object
// accesses.
type Tx struct {
	Type     int
	Accesses []Access
}

// Update reports whether the transaction writes at least one object
// (such transactions write a log page at commit).
func (t *Tx) Update() bool {
	for i := range t.Accesses {
		if t.Accesses[i].Write {
			return true
		}
	}
	return false
}

// Subpartition describes one slice of a partition under the generalized
// b/c rule (section 3.1): SizeFrac of the objects receive AccessProb of the
// partition's accesses, uniformly within the slice.
type Subpartition struct {
	SizeFrac   float64 `json:"SizeFrac"`
	AccessProb float64 `json:"AccessProb"`
}

// Partition is a unit of the database: a file, relation, relation fragment
// or index. It defines the reference distribution, the device allocation
// unit, and the concurrency-control granule choice.
type Partition struct {
	Name        string `json:"Name"`
	NumObjects  int64  `json:"NumObjects"`
	BlockFactor int    `json:"BlockFactor"` // objects per page
	// Subpartitions implement the generalized b/c rule. Empty means uniform.
	Subpartitions []Subpartition `json:"Subpartitions"`
	// Access is the object-draw distribution inside the partition (the zero
	// value is uniform). Mutually exclusive with Subpartitions — the b/c
	// rule already defines the skew.
	Access AccessSpec `json:"Access"`
	// Sequential marks append-only partitions (e.g. Debit-Credit HISTORY):
	// every access goes to the current end of file.
	Sequential bool `json:"Sequential"`
}

// NumPages returns the partition size in pages.
func (p *Partition) NumPages() int64 {
	bf := int64(p.BlockFactor)
	if bf <= 0 {
		bf = 1
	}
	return (p.NumObjects + bf - 1) / bf
}

// PageOf maps an object number to its page number. Object numbers outside
// [0, NumObjects) wrap onto the valid page range: Sequential (append-only)
// partitions hand PageOf their raw append cursor, which exceeds NumObjects
// once the file has been filled and cycled — without the wrap that mapped
// to pages past NumPages()-1, i.e. pages no device allocation contains.
func (p *Partition) PageOf(object int64) int64 {
	bf := int64(p.BlockFactor)
	if bf <= 0 {
		bf = 1
	}
	page := object / bf
	if np := p.NumPages(); page >= np || page < 0 {
		page %= np
		if page < 0 {
			page += np
		}
	}
	return page
}

// Validate checks partition consistency: positive size and block factor,
// subpartition fractions and probabilities each summing to 1.
func (p *Partition) Validate() error {
	if p.NumObjects <= 0 {
		return fmt.Errorf("workload: partition %q: NumObjects = %d", p.Name, p.NumObjects)
	}
	if p.BlockFactor <= 0 {
		return fmt.Errorf("workload: partition %q: BlockFactor = %d", p.Name, p.BlockFactor)
	}
	if err := p.Access.Validate(); err != nil {
		return fmt.Errorf("workload: partition %q: %w", p.Name, err)
	}
	if len(p.Subpartitions) == 0 {
		return nil
	}
	if p.Access.Kind != AccessUniform {
		return fmt.Errorf("workload: partition %q: Access skew and Subpartitions are mutually exclusive", p.Name)
	}
	sizeSum, probSum := 0.0, 0.0
	for i, sp := range p.Subpartitions {
		if sp.SizeFrac <= 0 || sp.AccessProb < 0 {
			return fmt.Errorf("workload: partition %q subpartition %d: size=%v prob=%v",
				p.Name, i, sp.SizeFrac, sp.AccessProb)
		}
		sizeSum += sp.SizeFrac
		probSum += sp.AccessProb
	}
	if math.Abs(sizeSum-1) > 1e-6 {
		return fmt.Errorf("workload: partition %q: subpartition sizes sum to %v, want 1", p.Name, sizeSum)
	}
	if math.Abs(probSum-1) > 1e-6 {
		return fmt.Errorf("workload: partition %q: subpartition access probs sum to %v, want 1", p.Name, probSum)
	}
	return nil
}

// BCRule builds the two subpartitions of the classic b/c rule: b% of
// accesses to c% of the objects (e.g. BCRule(0.8, 0.2) is the 80/20 rule).
func BCRule(b, c float64) []Subpartition {
	return []Subpartition{
		{SizeFrac: c, AccessProb: b},
		{SizeFrac: 1 - c, AccessProb: 1 - b},
	}
}

// TxType describes one transaction type of the synthetic model (Table 3.1).
type TxType struct {
	Name        string  `json:"Name"`
	ArrivalRate float64 `json:"ArrivalRate"` // transactions per second
	TxSize      float64 `json:"TxSize"`      // mean number of object accesses
	WriteProb   float64 `json:"WriteProb"`   // probability each access is a write
	Sequential  bool    `json:"Sequential"`  // accesses restricted to one partition, consecutive objects
	VarSize     bool    `json:"VarSize"`     // exponential tx size over the mean, else fixed
	// RefRow is the transaction type's row of the relative reference matrix
	// (Table 3.2): the fraction of this type's accesses directed at each
	// partition. Must sum to 1 over the model's partitions.
	RefRow []float64 `json:"RefRow"`
}

// Model is the complete synthetic database and load description.
type Model struct {
	Partitions []Partition `json:"Partitions"`
	TxTypes    []TxType    `json:"TxTypes"`
}

// Validate checks the model: at least one partition and type, valid
// partitions, reference-matrix rows matching the partition count and
// summing to 1, non-negative rates and probabilities.
func (m *Model) Validate() error {
	if len(m.Partitions) == 0 {
		return fmt.Errorf("workload: no partitions")
	}
	if len(m.TxTypes) == 0 {
		return fmt.Errorf("workload: no transaction types")
	}
	for i := range m.Partitions {
		if err := m.Partitions[i].Validate(); err != nil {
			return err
		}
	}
	for i := range m.TxTypes {
		tt := &m.TxTypes[i]
		if tt.ArrivalRate < 0 {
			return fmt.Errorf("workload: type %q: arrival rate %v", tt.Name, tt.ArrivalRate)
		}
		if tt.TxSize < 1 {
			return fmt.Errorf("workload: type %q: TxSize %v < 1", tt.Name, tt.TxSize)
		}
		if tt.WriteProb < 0 || tt.WriteProb > 1 {
			return fmt.Errorf("workload: type %q: WriteProb %v", tt.Name, tt.WriteProb)
		}
		if len(tt.RefRow) != len(m.Partitions) {
			return fmt.Errorf("workload: type %q: RefRow has %d entries, want %d",
				tt.Name, len(tt.RefRow), len(m.Partitions))
		}
		sum := 0.0
		for j, f := range tt.RefRow {
			if f < 0 {
				return fmt.Errorf("workload: type %q: RefRow[%d] = %v", tt.Name, j, f)
			}
			sum += f
		}
		if math.Abs(sum-1) > 1e-6 {
			return fmt.Errorf("workload: type %q: RefRow sums to %v, want 1", tt.Name, sum)
		}
	}
	return nil
}

// Generator is TPSIM's SOURCE: it produces the transactions of each of its
// types. The engine runs one arrival process per type, drawing
// interarrival times from the type's rate and calling Next for each
// arrival; class names and rates come from TypeInfo alone.
//
// The engine only reads a transaction's accesses; it never writes into
// the slice. A generator may therefore hand out the same access slice
// more than once (trace replay returns the trace's own transactions), as
// long as it does not change the slice afterwards.
type Generator interface {
	// NumTypes returns how many transaction types the generator produces.
	NumTypes() int
	// TypeInfo returns the name and arrival rate of type i.
	TypeInfo(i int) (name string, rate float64)
	// Next generates the next transaction of type i.
	Next(i int, s *rng.Stream) Tx
}
