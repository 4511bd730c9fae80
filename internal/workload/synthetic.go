package workload

import (
	"fmt"

	"repro/internal/rng"
)

// Synthetic generates transactions from the general synthetic model of
// section 3.1: partition selection by the relative reference matrix, object
// selection by the partition's subpartition (generalized b/c) rule,
// sequential or random intra-transaction access, fixed or exponentially
// distributed size.
type Synthetic struct {
	model *Model

	refDist []*rng.Discrete // per tx type: partition choice
	// objDist is per partition the object draw: the subpartitions' b/c
	// rule, or else Partition.Access.
	objDist []AccessDist
	// seqTail tracks the append position of sequential partitions, shared by
	// all transaction types (like Debit-Credit's HISTORY end-of-file).
	seqTail []int64
}

// NewSynthetic validates the model and builds the sampling structures.
func NewSynthetic(m *Model) (*Synthetic, error) {
	if err := m.Validate(); err != nil {
		return nil, err
	}
	g := &Synthetic{
		model:   m,
		refDist: make([]*rng.Discrete, len(m.TxTypes)),
		objDist: make([]AccessDist, len(m.Partitions)),
		seqTail: make([]int64, len(m.Partitions)),
	}
	for p := range m.Partitions {
		part := &m.Partitions[p]
		if len(part.Subpartitions) == 0 {
			d, err := part.Access.New()
			if err != nil {
				return nil, err
			}
			g.objDist[p] = d
			continue
		}
		d, err := newSliced(part.Subpartitions)
		if err != nil {
			return nil, fmt.Errorf("workload: partition %q subpartitions: %w", part.Name, err)
		}
		if !d.layout(part.NumObjects) {
			return nil, fmt.Errorf("workload: partition %q too small for its subpartitions", part.Name)
		}
		g.objDist[p] = d
	}
	for i := range m.TxTypes {
		d, err := rng.NewDiscrete(m.TxTypes[i].RefRow)
		if err != nil {
			return nil, fmt.Errorf("workload: type %q reference row: %w", m.TxTypes[i].Name, err)
		}
		g.refDist[i] = d
	}
	return g, nil
}

// Model returns the underlying model.
func (g *Synthetic) Model() *Model { return g.model }

// NumTypes implements Generator.
func (g *Synthetic) NumTypes() int { return len(g.model.TxTypes) }

// TypeInfo implements Generator.
func (g *Synthetic) TypeInfo(i int) (string, float64) {
	tt := &g.model.TxTypes[i]
	return tt.Name, tt.ArrivalRate
}

// pickObject selects an object in partition p: the end of file of a
// sequential partition, otherwise a draw of its object distribution.
func (g *Synthetic) pickObject(p int, s *rng.Stream) int64 {
	part := &g.model.Partitions[p]
	if part.Sequential {
		obj := g.seqTail[p] % part.NumObjects
		g.seqTail[p]++
		return obj
	}
	return g.objDist[p].Draw(part.NumObjects, s)
}

// size draws the number of object accesses for one transaction of type tt.
func (g *Synthetic) size(tt *TxType, s *rng.Stream) int {
	if !tt.VarSize {
		return int(tt.TxSize + 0.5)
	}
	return s.ExpInt(tt.TxSize, 1)
}

// Next implements Generator: it builds one transaction of type i.
func (g *Synthetic) Next(i int, s *rng.Stream) Tx {
	tt := &g.model.TxTypes[i]
	n := g.size(tt, s)
	tx := Tx{Type: i, Accesses: make([]Access, 0, n)}

	if tt.Sequential {
		// Sequential types access one partition: the first object by the
		// partition rule, then the n-1 directly following objects.
		p := g.refDist[i].Sample(s)
		numObjects := g.model.Partitions[p].NumObjects
		first := g.pickObject(p, s)
		for k := 0; k < n; k++ {
			tx.Accesses = append(tx.Accesses, Access{
				Partition: p,
				Object:    (first + int64(k)) % numObjects,
				Write:     s.Bool(tt.WriteProb),
			})
		}
		return tx
	}

	for k := 0; k < n; k++ {
		p := g.refDist[i].Sample(s)
		obj := g.pickObject(p, s)
		tx.Accesses = append(tx.Accesses, Access{
			Partition: p,
			Object:    obj,
			Write:     s.Bool(tt.WriteProb),
		})
	}
	return tx
}
