package stats

import (
	"math"
	"strings"
	"testing"
)

// TestSummaryBasics: percentiles see every added observation in value
// order, whatever the order they were added in.
func TestSummaryBasics(t *testing.T) {
	s := NewSummary()
	for _, v := range []float64{9, 4, 5, 2, 7, 4, 5, 4} {
		s.Add(v)
	}
	if got := s.Percentile(0); got != 2 {
		t.Fatalf("p0 = %v", got)
	}
	if got := s.Percentile(1); got != 9 {
		t.Fatalf("p100 = %v", got)
	}
	if got := s.Percentile(0.5); got != 4.5 {
		t.Fatalf("median = %v", got)
	}
}

func TestSummaryEmpty(t *testing.T) {
	s := NewSummary()
	for _, p := range []float64{0, 0.5, 0.95, 1} {
		if got := s.Percentile(p); got != 0 {
			t.Fatalf("empty summary p%v = %v, want 0", p, got)
		}
	}
}

func TestSummarySingleValue(t *testing.T) {
	s := NewSummary()
	s.Add(42)
	for _, p := range []float64{0, 0.5, 0.95, 1} {
		if got := s.Percentile(p); got != 42 {
			t.Fatalf("single-value summary p%v = %v, want 42", p, got)
		}
	}
}

func TestPercentiles(t *testing.T) {
	s := NewSummary()
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

// TestCI95ShrinksWithN: the confidence half-width of MeanCI95Seq narrows as
// the same spread of values is observed more often.
func TestCI95ShrinksWithN(t *testing.T) {
	vals := []float64{1, 2, 3, 4, 5}
	at := func(i int) float64 { return vals[i%len(vals)] }
	_, small := MeanCI95Seq(len(vals), at)
	_, big := MeanCI95Seq(100*len(vals), at)
	if big >= small {
		t.Fatalf("CI did not shrink: small=%v big=%v", small, big)
	}
}

func TestFigureRender(t *testing.T) {
	f := Figure{Title: "Fig X", XLabel: "TPS", YLabel: "ms", X: []float64{10, 100, 700}}
	f.AddSeriesCI("disk", []float64{40.1, 41.2, 80.9}, nil)
	f.AddSeriesCI("NVEM", []float64{5.1, 5.2, 9.3}, nil)
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
