package stats

import (
	"math"
	"strings"
	"testing"
	"testing/quick"
)

func TestSummaryBasics(t *testing.T) {
	s := NewSummary("resp", false)
	for _, v := range []float64{2, 4, 4, 4, 5, 5, 7, 9} {
		s.Add(v)
	}
	if s.N() != 8 {
		t.Fatalf("n = %d", s.N())
	}
	if math.Abs(s.Mean()-5) > 1e-12 {
		t.Fatalf("mean = %v", s.Mean())
	}
	// Sample variance of that classic set is 32/7.
	if math.Abs(s.Var()-32.0/7.0) > 1e-9 {
		t.Fatalf("var = %v", s.Var())
	}
	if s.Min() != 2 || s.Max() != 9 {
		t.Fatalf("min/max = %v/%v", s.Min(), s.Max())
	}
	if s.Sum() != 40 {
		t.Fatalf("sum = %v", s.Sum())
	}
}

func TestSummaryEmpty(t *testing.T) {
	s := NewSummary("empty", false)
	if s.Mean() != 0 || s.Var() != 0 || s.Min() != 0 || s.Max() != 0 || s.CI95() != 0 {
		t.Fatal("empty summary must be all zeros")
	}
}

func TestSummarySingleValue(t *testing.T) {
	s := NewSummary("one", false)
	s.Add(42)
	if s.Mean() != 42 || s.Var() != 0 || s.StdDev() != 0 {
		t.Fatalf("single-value summary wrong: %v", s)
	}
}

// Property: Welford mean matches direct sum/count for any input.
func TestWelfordMatchesDirect(t *testing.T) {
	f := func(raw []int16) bool {
		if len(raw) == 0 {
			return true
		}
		s := NewSummary("q", false)
		sum := 0.0
		for _, v := range raw {
			s.Add(float64(v))
			sum += float64(v)
		}
		direct := sum / float64(len(raw))
		return math.Abs(s.Mean()-direct) < 1e-6*(1+math.Abs(direct))
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}

func TestPercentiles(t *testing.T) {
	s := NewSummary("p", true)
	for i := 1; i <= 100; i++ {
		s.Add(float64(i))
	}
	if got := s.Percentile(0); got != 1 {
		t.Fatalf("p0 = %v", got)
	}
	if got := s.Percentile(1); got != 100 {
		t.Fatalf("p100 = %v", got)
	}
	if got := s.Percentile(0.5); math.Abs(got-50.5) > 1e-9 {
		t.Fatalf("median = %v", got)
	}
	if got := s.Percentile(0.95); math.Abs(got-95.05) > 1e-9 {
		t.Fatalf("p95 = %v", got)
	}
}

func TestPercentileWithoutKeepPanics(t *testing.T) {
	s := NewSummary("nokeep", false)
	s.Add(1)
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	s.Percentile(0.5)
}

func TestCI95ShrinksWithN(t *testing.T) {
	small := NewSummary("s", false)
	big := NewSummary("b", false)
	vals := []float64{1, 2, 3, 4, 5}
	for _, v := range vals {
		small.Add(v)
	}
	for i := 0; i < 100; i++ {
		for _, v := range vals {
			big.Add(v)
		}
	}
	if big.CI95() >= small.CI95() {
		t.Fatalf("CI did not shrink: small=%v big=%v", small.CI95(), big.CI95())
	}
}

func TestFigureRender(t *testing.T) {
	f := Figure{Title: "Fig X", XLabel: "TPS", YLabel: "ms", X: []float64{10, 100, 700}}
	if err := f.AddSeries("disk", []float64{40.1, 41.2, 80.9}); err != nil {
		t.Fatal(err)
	}
	if err := f.AddSeries("NVEM", []float64{5.1, 5.2, 9.3}); err != nil {
		t.Fatal(err)
	}
	out := f.Render()
	for _, want := range []string{"Fig X", "TPS", "disk", "NVEM", "700", "80.90"} {
		if !strings.Contains(out, want) {
			t.Fatalf("render missing %q:\n%s", want, out)
		}
	}
	lines := strings.Split(strings.TrimSpace(out), "\n")
	if len(lines) != 2+1+3 { // title, ylabel, header, 3 rows
		t.Fatalf("unexpected line count %d:\n%s", len(lines), out)
	}
}

func TestFigureSeriesLengthMismatch(t *testing.T) {
	f := Figure{Title: "t", XLabel: "x", X: []float64{1, 2}}
	if err := f.AddSeries("bad", []float64{1}); err == nil {
		t.Fatal("length mismatch must error")
	}
}

func TestTableRender(t *testing.T) {
	tb := NewTable("Table 4.2a", "cache", []string{"main memory", "NVEM 1000"}, []string{"200", "500"})
	tb.Set(0, 0, 53.7)
	tb.Set(0, 1, 59.6)
	tb.Set(1, 0, 14.8)
	tb.Set(1, 1, 11.0)
	out := tb.Render()
	for _, want := range []string{"Table 4.2a", "main memory", "53.7", "11.0"} {
		if !strings.Contains(out, want) {
			t.Fatalf("render missing %q:\n%s", want, out)
		}
	}
}

func TestTrimNum(t *testing.T) {
	cases := map[float64]string{10: "10", 0.5: "0.5", 2.25: "2.25", 700: "700"}
	for in, want := range cases {
		if got := trimNum(in); got != want {
			t.Fatalf("trimNum(%v) = %q, want %q", in, got, want)
		}
	}
}
