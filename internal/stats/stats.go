// Package stats provides the measurement substrate for TPSIM: percentile
// tracking, confidence intervals, and tabular series formatting used by the
// experiment harness to print paper-style rows.
package stats

import (
	"math"
	"sort"
)

// Summary keeps a stream of observations for percentiles.
type Summary struct {
	values []float64
}

// NewSummary creates an empty summary.
func NewSummary() *Summary { return &Summary{} }

// Add records one observation.
func (s *Summary) Add(x float64) { s.values = append(s.values, x) }

// tCrit95 holds two-tailed 95% Student-t critical values for 1..30 degrees
// of freedom; larger samples use the normal approximation (1.96). Replicated
// experiments have few replications, so the t correction matters there.
var tCrit95 = [...]float64{
	12.706, 4.303, 3.182, 2.776, 2.571, 2.447, 2.365, 2.306, 2.262, 2.228,
	2.201, 2.179, 2.160, 2.145, 2.131, 2.120, 2.110, 2.101, 2.093, 2.086,
	2.080, 2.074, 2.069, 2.064, 2.060, 2.056, 2.052, 2.048, 2.045, 2.042,
}

// MeanCI95Seq returns the sample mean of n values, at(i) yielding the i-th,
// and the half-width of its 95% confidence interval using the Student-t
// distribution (replications are few, so the normal approximation would be
// too tight). Callers aggregating a metric over stored results read it by
// index, without materializing a value slice. Fewer than two values yield a
// zero half-width.
func MeanCI95Seq(n int, at func(i int) float64) (mean, half float64) {
	if n == 0 {
		return 0, 0
	}
	for i := 0; i < n; i++ {
		mean += at(i)
	}
	mean /= float64(n)
	if n < 2 {
		return mean, 0
	}
	var m2 float64
	for i := 0; i < n; i++ {
		d := at(i) - mean
		m2 += d * d
	}
	sd := math.Sqrt(m2 / float64(n-1))
	t := 1.96
	if df := n - 1; df <= len(tCrit95) {
		t = tCrit95[df-1]
	}
	return mean, t * sd / math.Sqrt(float64(n))
}

// Percentile returns the p-quantile (0 <= p <= 1) of the observations.
func (s *Summary) Percentile(p float64) float64 {
	if len(s.values) == 0 {
		return 0
	}
	sorted := make([]float64, len(s.values))
	copy(sorted, s.values)
	sort.Float64s(sorted)
	if p <= 0 {
		return sorted[0]
	}
	if p >= 1 {
		return sorted[len(sorted)-1]
	}
	idx := p * float64(len(sorted)-1)
	lo := int(math.Floor(idx))
	hi := int(math.Ceil(idx))
	if lo == hi {
		return sorted[lo]
	}
	frac := idx - float64(lo)
	return sorted[lo]*(1-frac) + sorted[hi]*frac
}
