package workload

import "fmt"

// This file builds the standard multi-class mix: several transaction
// classes — short updates, long read-mostly queries, batch scans — sharing
// one two-partition database, so they compete for the same buffer, devices
// and locks. It is a thin layer over the general synthetic model: the mix
// is just a Model with a conventional database and per-class TxTypes, used
// by the workload.multiclass experiment and the JSON config's
// workload.classes shorthand.

// Class-mix database dimensions. CUSTOMER is the randomly accessed
// relation, ORDERS the one batch scans walk sequentially.
const (
	ClassMixCustomerObjects = 1_000_000
	ClassMixCustomerBF      = 10
	ClassMixOrdersObjects   = 400_000
	ClassMixOrdersBF        = 20
)

// ClassSpec describes one transaction class of the standard mix.
type ClassSpec struct {
	Name      string  `json:"name"`
	Rate      float64 `json:"rate"` // arrivals per second
	Size      float64 `json:"size"` // mean object accesses per transaction
	WriteProb float64 `json:"writeProb"`
	// Sequential classes scan consecutive ORDERS objects (batch scans);
	// random classes draw 70% CUSTOMER / 30% ORDERS.
	Sequential bool `json:"sequential"`
	// VarSize draws the size exponentially around the mean.
	VarSize bool `json:"varSize"`
}

// ClassMixModel builds the standard two-partition multi-class model from
// the class list. Skew applies to the CUSTOMER object draw of the random
// classes (uniform zero value).
func ClassMixModel(classes []ClassSpec, skew AccessSpec) (*Model, error) {
	if len(classes) == 0 {
		return nil, fmt.Errorf("workload: class mix needs at least one class")
	}
	m := &Model{
		Partitions: []Partition{
			{Name: "CUSTOMER", NumObjects: ClassMixCustomerObjects, BlockFactor: ClassMixCustomerBF, Access: skew},
			{Name: "ORDERS", NumObjects: ClassMixOrdersObjects, BlockFactor: ClassMixOrdersBF},
		},
	}
	for _, c := range classes {
		row := []float64{0.7, 0.3}
		if c.Sequential {
			row = []float64{0, 1}
		}
		m.TxTypes = append(m.TxTypes, TxType{
			Name:        c.Name,
			ArrivalRate: c.Rate,
			TxSize:      c.Size,
			WriteProb:   c.WriteProb,
			Sequential:  c.Sequential,
			VarSize:     c.VarSize,
			RefRow:      row,
		})
	}
	if err := m.Validate(); err != nil {
		return nil, err
	}
	return m, nil
}

// DefaultClassMix returns the conventional three-class TPC-C-style mix:
// short updates, long read-mostly queries, and batch scans, at the given
// per-class arrival rates.
func DefaultClassMix(updateTPS, readTPS, scanTPS float64) []ClassSpec {
	return []ClassSpec{
		{Name: "short-update", Rate: updateTPS, Size: 6, WriteProb: 0.8},
		{Name: "read-mostly", Rate: readTPS, Size: 24, WriteProb: 0.02, VarSize: true},
		{Name: "batch-scan", Rate: scanTPS, Size: 400, Sequential: true},
	}
}
