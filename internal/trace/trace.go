// Package trace implements TPSIM's trace-driven workload path: a database
// trace format with reader and writer, aggregate statistics, a synthetic
// generator that reproduces the published characteristics of the paper's
// real-life trace (section 4.6), and an adapter that feeds a trace into the
// simulation engine as a workload source.
//
// The original trace (from a production IBM installation) is not available;
// see DESIGN.md section 2 for the substitution argument.
package trace

import (
	"fmt"
	"sync/atomic"

	"repro/internal/workload"
)

// Trace is a recorded (or synthesized) workload: a set of database files and
// a sequence of transactions referencing their pages. A trace is
// page-granular: each file is a partition with block factor 1, so an
// access's Partition is its file and its Object is the page.
//
// A trace must not change once it has been validated or replayed: replay
// sources hand out its own transactions, and they walk its references only
// while no Validate has passed (Read's closing one counts), so each trace
// is walked once however many sources replay it. A caller that edits a
// trace calls Validate again before replaying it.
type Trace struct {
	// FilePages gives the size in pages of each database file; an
	// access's Partition indexes into it.
	FilePages []int64
	// TypeNames optionally labels the transaction types.
	TypeNames []string
	Txs       []workload.Tx

	// valid records that the last Validate passed. Concurrent grid jobs
	// build sources over one shared trace, so it is atomic.
	valid atomic.Bool
}

// NumFiles returns the number of database files.
func (tr *Trace) NumFiles() int { return len(tr.FilePages) }

// Validate checks referential integrity: every access must name an
// existing file and a page within its bounds, and every transaction must
// have a known type and at least one access. It walks the whole trace on
// every call and records its verdict for the replay sources.
func (tr *Trace) Validate() error {
	err := tr.check()
	tr.valid.Store(err == nil)
	return err
}

// validated returns nil for a trace whose last Validate passed, and
// validates any other.
func (tr *Trace) validated() error {
	if tr.valid.Load() {
		return nil
	}
	return tr.Validate()
}

// check walks the trace for Validate.
func (tr *Trace) check() error {
	if len(tr.FilePages) == 0 {
		return fmt.Errorf("trace: no files")
	}
	for f, pages := range tr.FilePages {
		if pages <= 0 {
			return fmt.Errorf("trace: file %d has %d pages", f, pages)
		}
	}
	for i := range tr.Txs {
		tx := &tr.Txs[i]
		if tx.Type < 0 {
			return fmt.Errorf("trace: tx %d has negative type", i)
		}
		if len(tr.TypeNames) > 0 && tx.Type >= len(tr.TypeNames) {
			return fmt.Errorf("trace: tx %d type %d out of range", i, tx.Type)
		}
		if len(tx.Accesses) == 0 {
			return fmt.Errorf("trace: tx %d has no references", i)
		}
		for j, a := range tx.Accesses {
			if a.Partition < 0 || a.Partition >= len(tr.FilePages) {
				return fmt.Errorf("trace: tx %d ref %d: file %d out of range", i, j, a.Partition)
			}
			if a.Object < 0 || a.Object >= tr.FilePages[a.Partition] {
				return fmt.Errorf("trace: tx %d ref %d: page %d out of range for file %d",
					i, j, a.Object, a.Partition)
			}
		}
	}
	return nil
}

// Stats are the aggregate characteristics of a trace, matching the numbers
// the paper reports for its real-life workload.
type Stats struct {
	NumTxs        int
	NumTypes      int
	NumAccesses   int64
	NumWrites     int64
	UpdateTxs     int
	DistinctPages int
	MaxTxSize     int
	TotalPages    int64 // database size in pages
}

// WriteFrac returns the fraction of accesses that are writes.
func (s Stats) WriteFrac() float64 {
	if s.NumAccesses == 0 {
		return 0
	}
	return float64(s.NumWrites) / float64(s.NumAccesses)
}

// UpdateTxFrac returns the fraction of transactions performing updates.
func (s Stats) UpdateTxFrac() float64 {
	if s.NumTxs == 0 {
		return 0
	}
	return float64(s.UpdateTxs) / float64(s.NumTxs)
}

// ComputeStats scans the trace and returns its aggregate characteristics.
func (tr *Trace) ComputeStats() Stats {
	s := Stats{NumTxs: len(tr.Txs)}
	types := map[int]struct{}{}
	type pageKey struct {
		file int
		page int64
	}
	distinct := map[pageKey]struct{}{}
	for i := range tr.Txs {
		tx := &tr.Txs[i]
		types[tx.Type] = struct{}{}
		if len(tx.Accesses) > s.MaxTxSize {
			s.MaxTxSize = len(tx.Accesses)
		}
		update := false
		for _, a := range tx.Accesses {
			s.NumAccesses++
			if a.Write {
				s.NumWrites++
				update = true
			}
			distinct[pageKey{a.Partition, a.Object}] = struct{}{}
		}
		if update {
			s.UpdateTxs++
		}
	}
	s.NumTypes = len(types)
	s.DistinctPages = len(distinct)
	for _, p := range tr.FilePages {
		s.TotalPages += p
	}
	return s
}
