package rng

import (
	"math"
	"testing"
	"testing/quick"
)

func TestStreamDeterminism(t *testing.T) {
	a := NewStream(42, "cpu")
	b := NewStream(42, "cpu")
	for i := 0; i < 100; i++ {
		if a.Float64() != b.Float64() {
			t.Fatal("same seed+component diverged")
		}
	}
}

func TestStreamsDecorrelated(t *testing.T) {
	a := NewStream(42, "cpu")
	b := NewStream(42, "disk")
	same := 0
	for i := 0; i < 100; i++ {
		if a.Float64() == b.Float64() {
			same++
		}
	}
	if same > 0 {
		t.Fatalf("streams for different components identical in %d/100 draws", same)
	}
}

func TestExpMean(t *testing.T) {
	s := NewStream(1, "exp")
	const n = 200000
	sum := 0.0
	for i := 0; i < n; i++ {
		sum += s.Exp(10)
	}
	mean := sum / n
	if math.Abs(mean-10) > 0.2 {
		t.Fatalf("exp mean = %v, want ~10", mean)
	}
}

func TestExpNonNegative(t *testing.T) {
	s := NewStream(2, "exp")
	for i := 0; i < 10000; i++ {
		if v := s.Exp(5); v < 0 {
			t.Fatalf("negative exponential draw %v", v)
		}
	}
}

func TestExpDegenerateMean(t *testing.T) {
	s := NewStream(3, "exp")
	if s.Exp(0) != 0 || s.Exp(-1) != 0 {
		t.Fatal("non-positive mean must yield 0")
	}
}

func TestExpIntMin(t *testing.T) {
	s := NewStream(4, "size")
	for i := 0; i < 1000; i++ {
		if v := s.ExpInt(2, 1); v < 1 {
			t.Fatalf("ExpInt below min: %d", v)
		}
	}
}

func TestBoolProbability(t *testing.T) {
	s := NewStream(5, "bool")
	const n = 100000
	hits := 0
	for i := 0; i < n; i++ {
		if s.Bool(0.3) {
			hits++
		}
	}
	p := float64(hits) / n
	if math.Abs(p-0.3) > 0.01 {
		t.Fatalf("Bool(0.3) frequency = %v", p)
	}
	if s.Bool(0) {
		t.Fatal("Bool(0) returned true")
	}
	if !s.Bool(1) {
		t.Fatal("Bool(1) returned false")
	}
}

func TestDiscreteFrequencies(t *testing.T) {
	d := MustDiscrete([]float64{1, 2, 7})
	s := NewStream(7, "disc")
	const n = 200000
	counts := make([]int, 3)
	for i := 0; i < n; i++ {
		counts[d.Sample(s)]++
	}
	want := []float64{0.1, 0.2, 0.7}
	for i, w := range want {
		got := float64(counts[i]) / n
		if math.Abs(got-w) > 0.01 {
			t.Fatalf("category %d frequency %v, want %v", i, got, w)
		}
	}
}

func TestDiscreteZeroWeightNeverSampled(t *testing.T) {
	d := MustDiscrete([]float64{0, 1, 0})
	s := NewStream(8, "disc")
	for i := 0; i < 10000; i++ {
		if got := d.Sample(s); got != 1 {
			t.Fatalf("sampled zero-weight category %d", got)
		}
	}
}

func TestDiscreteErrors(t *testing.T) {
	if _, err := NewDiscrete(nil); err == nil {
		t.Fatal("empty weights must error")
	}
	if _, err := NewDiscrete([]float64{0, 0}); err == nil {
		t.Fatal("all-zero weights must error")
	}
	if _, err := NewDiscrete([]float64{1, -1}); err == nil {
		t.Fatal("negative weight must error")
	}
	if _, err := NewDiscrete([]float64{math.NaN()}); err == nil {
		t.Fatal("NaN weight must error")
	}
}

func TestMustDiscretePanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	MustDiscrete(nil)
}

// Property: Sample always returns a valid index in [0, len) for any
// positive-weight vector.
func TestDiscreteIndexInRange(t *testing.T) {
	f := func(raw []uint8, seed int64) bool {
		if len(raw) == 0 {
			return true
		}
		weights := make([]float64, len(raw))
		total := 0.0
		for i, v := range raw {
			weights[i] = float64(v)
			total += weights[i]
		}
		if total == 0 {
			return true
		}
		d, err := NewDiscrete(weights)
		if err != nil {
			return false
		}
		s := NewStream(seed, "q")
		for i := 0; i < 50; i++ {
			idx := d.Sample(s)
			if idx < 0 || idx >= len(weights) || weights[idx] == 0 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

func TestIntnAndInt63n(t *testing.T) {
	s := NewStream(9, "n")
	for i := 0; i < 1000; i++ {
		if v := s.Intn(10); v < 0 || v >= 10 {
			t.Fatalf("Intn out of range: %d", v)
		}
		if v := s.Int63n(1 << 40); v < 0 || v >= 1<<40 {
			t.Fatalf("Int63n out of range: %d", v)
		}
	}
}
