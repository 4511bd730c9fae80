package trace

import (
	"fmt"
	"hash/fnv"
	"testing"
)

// TestRealLifeMatchesPublishedCharacteristics checks the synthetic trace
// against the aggregate numbers the paper reports for its real-life
// workload (section 4.6). This is the substitution contract of DESIGN.md.
func TestRealLifeMatchesPublishedCharacteristics(t *testing.T) {
	if testing.Short() {
		t.Skip("full trace generation in -short mode")
	}
	tr := GenerateRealLife(42)
	if err := tr.Validate(); err != nil {
		t.Fatal(err)
	}
	s := tr.ComputeStats()

	// "more than 17.500 transactions"
	if s.NumTxs < 17_500 || s.NumTxs > 18_500 {
		t.Errorf("NumTxs = %d, want ~17,600", s.NumTxs)
	}
	// "twelve transaction types"
	if s.NumTypes != 12 {
		t.Errorf("NumTypes = %d, want 12", s.NumTypes)
	}
	// "1 million database accesses" (within 10%)
	if s.NumAccesses < 900_000 || s.NumAccesses > 1_100_000 {
		t.Errorf("NumAccesses = %d, want ~1M", s.NumAccesses)
	}
	// "the largest transaction (an ad-hoc query) performs more than
	// 11.000 accesses"
	if s.MaxTxSize < 11_000 {
		t.Errorf("MaxTxSize = %d, want > 11,000", s.MaxTxSize)
	}
	// "13 files", "database size is about 4 GB" (1M 4KB pages)
	if len(tr.FilePages) != 13 {
		t.Errorf("files = %d, want 13", len(tr.FilePages))
	}
	if s.TotalPages < 900_000 || s.TotalPages > 1_100_000 {
		t.Errorf("TotalPages = %d, want ~1M (4 GB)", s.TotalPages)
	}
	// "merely 66.000 different pages ... were referenced" (±20%)
	if s.DistinctPages < 52_000 || s.DistinctPages > 80_000 {
		t.Errorf("DistinctPages = %d, want ~66,000", s.DistinctPages)
	}
	// "about 20% of the transactions perform updates"
	if f := s.UpdateTxFrac(); f < 0.18 || f > 0.22 {
		t.Errorf("UpdateTxFrac = %v, want ~0.20", f)
	}
	// "only 1.6% of all database accesses are writes"
	if f := s.WriteFrac(); f < 0.012 || f > 0.020 {
		t.Errorf("WriteFrac = %v, want ~0.016", f)
	}
}

func TestRealLifeDeterministic(t *testing.T) {
	spec := DefaultRealLifeSpec()
	for i := range spec.Types {
		spec.Types[i].Count = (spec.Types[i].Count + 99) / 100
	}
	a := GenerateFromSpec(spec, 7)
	b := GenerateFromSpec(spec, 7)
	sa, sb := a.ComputeStats(), b.ComputeStats()
	if sa != sb {
		t.Fatalf("same seed produced different traces:\n%+v\n%+v", sa, sb)
	}
	c := GenerateFromSpec(spec, 8)
	if a.ComputeStats() == c.ComputeStats() {
		t.Fatal("different seeds produced identical traces (suspicious)")
	}
}

func TestRealLifeUpdateTxsAlwaysWrite(t *testing.T) {
	spec := DefaultRealLifeSpec()
	for i := range spec.Types {
		spec.Types[i].Count = (spec.Types[i].Count + 49) / 50
	}
	tr := GenerateFromSpec(spec, 3)
	for i := range tr.Txs {
		tx := &tr.Txs[i]
		name := tr.TypeNames[tx.Type]
		isUpdateType := false
		for _, tt := range spec.Types {
			if tt.Name == name {
				isUpdateType = tt.Update
			}
		}
		if isUpdateType && !tx.Update() {
			t.Fatalf("update-type tx %d has no writes", i)
		}
		if !isUpdateType && tx.Update() {
			t.Fatalf("read-only-type tx %d has writes", i)
		}
	}
}

func TestRealLifeTypeInterleaving(t *testing.T) {
	spec := DefaultRealLifeSpec()
	for i := range spec.Types {
		spec.Types[i].Count = (spec.Types[i].Count + 99) / 100
	}
	tr := GenerateFromSpec(spec, 5)
	// After shuffling, the first quarter of the trace must contain more
	// than one transaction type (no sorted blocks).
	quarter := tr.Txs[:len(tr.Txs)/4]
	types := map[int]struct{}{}
	for i := range quarter {
		types[quarter[i].Type] = struct{}{}
	}
	if len(types) < 2 {
		t.Fatalf("first quarter has only %d types — not interleaved", len(types))
	}
}

// TestRealLifeTraceBytes pins the serialized synthetic trace: the FNV-64a
// of Write(GenerateRealLife(seed)). The aggregate statistics above and the
// goldens only guard the synthesizer indirectly; this fails on any change
// to a drawn page, write flag, size or the shuffled arrival order.
func TestRealLifeTraceBytes(t *testing.T) {
	for _, c := range []struct {
		seed int64
		want string
	}{
		{42, "3df6ab4a409677fe"},
		{7, "b6214edf9279d7dc"},
	} {
		h := fnv.New64a()
		if err := Write(h, GenerateRealLife(c.seed)); err != nil {
			t.Fatal(err)
		}
		if got := fmt.Sprintf("%016x", h.Sum64()); got != c.want {
			t.Errorf("seed %d: trace FNV-64a = %s, want %s", c.seed, got, c.want)
		}
	}
}
