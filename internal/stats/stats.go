// Package stats provides the measurement substrate for TPSIM: streaming
// summaries (Welford), percentile tracking, confidence intervals, and
// tabular series formatting used by the experiment harness to print
// paper-style rows.
package stats

import (
	"fmt"
	"math"
	"sort"
)

// Summary accumulates a stream of observations with O(1) memory using
// Welford's algorithm, optionally keeping the raw values for percentiles.
type Summary struct {
	name string

	n         int64
	mean      float64
	m2        float64
	min, max  float64
	keep      bool
	values    []float64
	sumDirect float64
}

// NewSummary creates a summary. If keepValues is true, raw observations are
// retained so Percentile can be computed.
func NewSummary(name string, keepValues bool) *Summary {
	return &Summary{name: name, keep: keepValues, min: math.Inf(1), max: math.Inf(-1)}
}

// Name returns the summary's label.
func (s *Summary) Name() string { return s.name }

// Add records one observation.
func (s *Summary) Add(x float64) {
	s.n++
	delta := x - s.mean
	s.mean += delta / float64(s.n)
	s.m2 += delta * (x - s.mean)
	s.sumDirect += x
	if x < s.min {
		s.min = x
	}
	if x > s.max {
		s.max = x
	}
	if s.keep {
		s.values = append(s.values, x)
	}
}

// N returns the observation count.
func (s *Summary) N() int64 { return s.n }

// Mean returns the arithmetic mean (0 when empty).
func (s *Summary) Mean() float64 {
	if s.n == 0 {
		return 0
	}
	return s.mean
}

// Sum returns the total of all observations.
func (s *Summary) Sum() float64 { return s.sumDirect }

// Var returns the sample variance (0 when fewer than two observations).
func (s *Summary) Var() float64 {
	if s.n < 2 {
		return 0
	}
	return s.m2 / float64(s.n-1)
}

// StdDev returns the sample standard deviation.
func (s *Summary) StdDev() float64 { return math.Sqrt(s.Var()) }

// Min returns the smallest observation (0 when empty).
func (s *Summary) Min() float64 {
	if s.n == 0 {
		return 0
	}
	return s.min
}

// Max returns the largest observation (0 when empty).
func (s *Summary) Max() float64 {
	if s.n == 0 {
		return 0
	}
	return s.max
}

// CI95 returns the half-width of a 95% confidence interval for the mean
// using the normal approximation (adequate for the thousands of
// transactions a simulation run observes).
func (s *Summary) CI95() float64 {
	if s.n < 2 {
		return 0
	}
	return 1.96 * s.StdDev() / math.Sqrt(float64(s.n))
}

// tCrit95 holds two-tailed 95% Student-t critical values for 1..30 degrees
// of freedom; larger samples use the normal approximation (1.96). Replicated
// experiments have few replications, so the t correction matters there.
var tCrit95 = [...]float64{
	12.706, 4.303, 3.182, 2.776, 2.571, 2.447, 2.365, 2.306, 2.262, 2.228,
	2.201, 2.179, 2.160, 2.145, 2.131, 2.120, 2.110, 2.101, 2.093, 2.086,
	2.080, 2.074, 2.069, 2.064, 2.060, 2.056, 2.052, 2.048, 2.045, 2.042,
}

// MeanCI95 returns the sample mean of values and the half-width of its 95%
// confidence interval using the Student-t distribution (replications are
// few, so the normal approximation would be too tight). Fewer than two
// values yield a zero half-width.
func MeanCI95(values []float64) (mean, half float64) {
	n := len(values)
	if n == 0 {
		return 0, 0
	}
	for _, v := range values {
		mean += v
	}
	mean /= float64(n)
	if n < 2 {
		return mean, 0
	}
	var m2 float64
	for _, v := range values {
		d := v - mean
		m2 += d * d
	}
	sd := math.Sqrt(m2 / float64(n-1))
	t := 1.96
	if df := n - 1; df <= len(tCrit95) {
		t = tCrit95[df-1]
	}
	return mean, t * sd / math.Sqrt(float64(n))
}

// MeanCI95Seq is MeanCI95 over a virtual sequence: at(i) yields the i-th
// of n values. Callers aggregating a metric over stored results use it to
// avoid materializing a value slice; the two-pass summation order matches
// MeanCI95 exactly, so both produce bit-identical statistics.
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

// Percentile returns the p-quantile (0 <= p <= 1) of retained values. It
// panics if the summary was created without keepValues.
func (s *Summary) Percentile(p float64) float64 {
	if !s.keep {
		panic("stats: Percentile on summary without kept values")
	}
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

// String formats the summary for logs.
func (s *Summary) String() string {
	return fmt.Sprintf("%s: n=%d mean=%.3f sd=%.3f min=%.3f max=%.3f",
		s.name, s.n, s.Mean(), s.StdDev(), s.Min(), s.Max())
}
