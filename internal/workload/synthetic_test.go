package workload

import (
	"math"
	"testing"

	"repro/internal/rng"
)

func TestSyntheticRejectsInvalidModel(t *testing.T) {
	m := validModel()
	m.TxTypes[0].RefRow = []float64{0.5, 0.4}
	if _, err := NewSynthetic(m); err == nil {
		t.Fatal("expected error")
	}
}

func TestSyntheticRefMatrixFrequencies(t *testing.T) {
	m := &Model{
		Partitions: []Partition{
			{Name: "p1", NumObjects: 1000, BlockFactor: 10},
			{Name: "p2", NumObjects: 1000, BlockFactor: 10},
			{Name: "p3", NumObjects: 1000, BlockFactor: 10},
		},
		TxTypes: []TxType{
			{Name: "t", ArrivalRate: 1, TxSize: 10, WriteProb: 0.5, RefRow: []float64{0.4, 0.1, 0.5}},
		},
	}
	g, err := NewSynthetic(m)
	if err != nil {
		t.Fatal(err)
	}
	s := rng.NewStream(1, "test")
	counts := make([]int, 3)
	total := 0
	for i := 0; i < 20000; i++ {
		tx := g.Next(0, s)
		for _, a := range tx.Accesses {
			counts[a.Partition]++
			total++
		}
	}
	want := []float64{0.4, 0.1, 0.5}
	for p, w := range want {
		got := float64(counts[p]) / float64(total)
		if math.Abs(got-w) > 0.02 {
			t.Fatalf("partition %d frequency %v, want %v", p, got, w)
		}
	}
}

func TestSyntheticBCRuleSkew(t *testing.T) {
	// 80/20 rule: hot 20% of objects should receive ~80% of accesses.
	m := &Model{
		Partitions: []Partition{
			{Name: "p", NumObjects: 10_000, BlockFactor: 10, Subpartitions: BCRule(0.8, 0.2)},
		},
		TxTypes: []TxType{
			{Name: "t", ArrivalRate: 1, TxSize: 5, WriteProb: 0, RefRow: []float64{1}},
		},
	}
	g, err := NewSynthetic(m)
	if err != nil {
		t.Fatal(err)
	}
	s := rng.NewStream(2, "test")
	hot, total := 0, 0
	for i := 0; i < 20000; i++ {
		tx := g.Next(0, s)
		for _, a := range tx.Accesses {
			if a.Object < 2000 { // hot 20%
				hot++
			}
			total++
		}
	}
	frac := float64(hot) / float64(total)
	if math.Abs(frac-0.8) > 0.02 {
		t.Fatalf("hot fraction = %v, want ~0.8", frac)
	}
}

func TestSyntheticTwoLevel9010(t *testing.T) {
	// Paper example: two-level 90/10 as three subpartitions 81/9/10% with
	// probabilities 1/9/90%. The hottest 10% of objects get 90% of accesses.
	m := &Model{
		Partitions: []Partition{
			{Name: "p", NumObjects: 100_000, BlockFactor: 10, Subpartitions: []Subpartition{
				{SizeFrac: 0.10, AccessProb: 0.90},
				{SizeFrac: 0.09, AccessProb: 0.09},
				{SizeFrac: 0.81, AccessProb: 0.01},
			}},
		},
		TxTypes: []TxType{
			{Name: "t", ArrivalRate: 1, TxSize: 4, WriteProb: 0, RefRow: []float64{1}},
		},
	}
	g, err := NewSynthetic(m)
	if err != nil {
		t.Fatal(err)
	}
	s := rng.NewStream(3, "test")
	buckets := make([]int, 3)
	total := 0
	for i := 0; i < 30000; i++ {
		tx := g.Next(0, s)
		for _, a := range tx.Accesses {
			switch {
			case a.Object < 10_000:
				buckets[0]++
			case a.Object < 19_000:
				buckets[1]++
			default:
				buckets[2]++
			}
			total++
		}
	}
	want := []float64{0.90, 0.09, 0.01}
	for i, w := range want {
		got := float64(buckets[i]) / float64(total)
		if math.Abs(got-w) > 0.015 {
			t.Fatalf("bucket %d frequency %v, want %v", i, got, w)
		}
	}
}

func TestSyntheticFixedAndVariableSize(t *testing.T) {
	m := validModel()
	m.TxTypes[0].VarSize = false
	m.TxTypes[0].TxSize = 10
	g, _ := NewSynthetic(m)
	s := rng.NewStream(4, "test")
	for i := 0; i < 100; i++ {
		if got := len(g.Next(0, s).Accesses); got != 10 {
			t.Fatalf("fixed size tx has %d accesses", got)
		}
	}

	m2 := validModel()
	m2.TxTypes[0].VarSize = true
	g2, _ := NewSynthetic(m2)
	sum, n := 0, 5000
	sawVariation := false
	first := -1
	for i := 0; i < n; i++ {
		l := len(g2.Next(0, s).Accesses)
		if l < 1 {
			t.Fatalf("empty transaction")
		}
		if first == -1 {
			first = l
		} else if l != first {
			sawVariation = true
		}
		sum += l
	}
	mean := float64(sum) / float64(n)
	if !sawVariation {
		t.Fatal("variable size produced constant sizes")
	}
	if math.Abs(mean-10) > 0.8 {
		t.Fatalf("mean size = %v, want ~10", mean)
	}
}

func TestSyntheticSequentialAccesses(t *testing.T) {
	m := &Model{
		Partitions: []Partition{
			{Name: "p", NumObjects: 1000, BlockFactor: 10},
		},
		TxTypes: []TxType{
			{Name: "seq", ArrivalRate: 1, TxSize: 5, WriteProb: 1, Sequential: true, RefRow: []float64{1}},
		},
	}
	g, err := NewSynthetic(m)
	if err != nil {
		t.Fatal(err)
	}
	s := rng.NewStream(5, "test")
	for i := 0; i < 200; i++ {
		tx := g.Next(0, s)
		for k := 1; k < len(tx.Accesses); k++ {
			prev, cur := tx.Accesses[k-1].Object, tx.Accesses[k].Object
			if cur != (prev+1)%1000 {
				t.Fatalf("non-consecutive sequential access: %d then %d", prev, cur)
			}
			if tx.Accesses[k].Partition != 0 {
				t.Fatal("sequential tx crossed partitions")
			}
		}
	}
}

func TestSyntheticWriteProb(t *testing.T) {
	m := validModel()
	m.TxTypes[0].WriteProb = 0.25
	g, _ := NewSynthetic(m)
	s := rng.NewStream(6, "test")
	writes, total := 0, 0
	for i := 0; i < 10000; i++ {
		for _, a := range g.Next(0, s).Accesses {
			if a.Write {
				writes++
			}
			total++
		}
	}
	got := float64(writes) / float64(total)
	if math.Abs(got-0.25) > 0.02 {
		t.Fatalf("write fraction = %v, want 0.25", got)
	}
}

func TestSyntheticObjectsInRange(t *testing.T) {
	g, err := NewSynthetic(validModel())
	if err != nil {
		t.Fatal(err)
	}
	s := rng.NewStream(7, "test")
	for i := 0; i < 5000; i++ {
		for _, a := range g.Next(0, s).Accesses {
			p := &g.Model().Partitions[a.Partition]
			if a.Object < 0 || a.Object >= p.NumObjects {
				t.Fatalf("object %d out of range for partition %q", a.Object, p.Name)
			}
		}
	}
}

func TestSyntheticSequentialPartitionAppends(t *testing.T) {
	m := &Model{
		Partitions: []Partition{
			{Name: "log-like", NumObjects: 1 << 30, BlockFactor: 20, Sequential: true},
		},
		TxTypes: []TxType{
			{Name: "t", ArrivalRate: 1, TxSize: 1, WriteProb: 1, RefRow: []float64{1}},
		},
	}
	g, err := NewSynthetic(m)
	if err != nil {
		t.Fatal(err)
	}
	s := rng.NewStream(8, "test")
	for i := 0; i < 100; i++ {
		tx := g.Next(0, s)
		if tx.Accesses[0].Object != int64(i) {
			t.Fatalf("append %d went to object %d", i, tx.Accesses[0].Object)
		}
	}
}
