package stats

import (
	"math"
	"strings"
	"testing"
)

// meanCI95 runs MeanCI95Seq over a slice.
func meanCI95(values []float64) (mean, half float64) {
	return MeanCI95Seq(len(values), func(i int) float64 { return values[i] })
}

func TestMeanCI95(t *testing.T) {
	cases := []struct {
		name     string
		values   []float64
		mean, ci float64
	}{
		{"empty", nil, 0, 0},
		{"single", []float64{3.5}, 3.5, 0},
		{"identical", []float64{2, 2, 2, 2}, 2, 0},
		// sd=sqrt(2), n=2, df=1: t=12.706 -> half = 12.706*sqrt(2)/sqrt(2)
		{"pair", []float64{4, 6}, 5, 12.706},
		// sd=sqrt(2.5), n=5, df=4: t=2.776 -> half = 2.776*sd/sqrt(5)
		{"five", []float64{1, 2, 3, 4, 5}, 3, 2.776 * math.Sqrt(2.5) / math.Sqrt(5)},
	}
	for _, c := range cases {
		mean, ci := meanCI95(c.values)
		if math.Abs(mean-c.mean) > 1e-9 || math.Abs(ci-c.ci) > 1e-9 {
			t.Errorf("%s: MeanCI95Seq = (%v, %v), want (%v, %v)", c.name, mean, ci, c.mean, c.ci)
		}
	}
}

// TestMeanCI95LargeSampleUsesNormal: past 30 degrees of freedom the helper
// falls back to the 1.96 normal critical value.
func TestMeanCI95LargeSampleUsesNormal(t *testing.T) {
	values := make([]float64, 100)
	for i := range values {
		values[i] = float64(i % 2) // sd ≈ 0.5025
	}
	mean, ci := meanCI95(values)
	sd := math.Sqrt(100.0 / 4.0 / 99.0 * 100.0 / 100.0) // sample sd of alternating 0/1
	want := 1.96 * sd / 10
	if math.Abs(mean-0.5) > 1e-9 || math.Abs(ci-want) > 1e-6 {
		t.Errorf("MeanCI95Seq = (%v, %v), want (0.5, %v)", mean, ci, want)
	}
}

func TestFigureRenderWithCI(t *testing.T) {
	fig := &Figure{Title: "T", XLabel: "x", X: []float64{1, 2}}
	fig.AddSeriesCI("a", []float64{10, 20}, []float64{0.5, 1.25})
	fig.AddSeriesCI("b", []float64{3, 4}, nil)
	out := fig.Render()
	for _, want := range []string{"10.00±0.50", "20.00±1.25", "3.00", "4.00"} {
		if !strings.Contains(out, want) {
			t.Errorf("render missing %q:\n%s", want, out)
		}
	}
	if strings.Contains(out, "3.00±") {
		t.Errorf("single-run series must not carry ±:\n%s", out)
	}
}

// TestAddSeriesCIValidates: a series whose CI values or points differ in
// number from the x-axis panics, since only a caller's bug builds one.
func TestAddSeriesCIValidates(t *testing.T) {
	for _, tc := range []struct {
		name       string
		points, ci []float64
	}{
		{"CI length", []float64{1, 2}, []float64{0.1}},
		{"point count", []float64{1}, nil},
	} {
		t.Run(tc.name, func(t *testing.T) {
			defer func() {
				if recover() == nil {
					t.Error("mismatched series must panic")
				}
			}()
			fig := &Figure{X: []float64{1, 2}}
			fig.AddSeriesCI("bad", tc.points, tc.ci)
		})
	}
}

func TestTableRenderWithCI(t *testing.T) {
	tbl := NewTable("T", "c", []string{"r1", "r2"}, []string{"a"})
	tbl.SetCI(0, 0, 66.7, 1.2)
	tbl.Set(1, 0, 10)
	out := tbl.Render()
	if !strings.Contains(out, "66.7±1.2") {
		t.Errorf("render missing CI cell:\n%s", out)
	}
	// Unset CI cells render a zero half-width rather than dropping the ±,
	// keeping the column grid rectangular.
	if !strings.Contains(out, "10.0±0.0") {
		t.Errorf("render missing plain cell:\n%s", out)
	}
}
