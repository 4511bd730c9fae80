// Package rng provides the random-variate generation TPSIM needs: seeded,
// named streams with exponential, uniform and discrete draws. Every model
// component takes its own stream so experiments are reproducible and
// variance between configurations is reduced (common random numbers).
package rng

import (
	"fmt"
	"math"
	"math/rand"
)

// Stream is a deterministic pseudo-random number stream.
type Stream struct {
	r *rand.Rand
}

// NewStream returns a stream seeded from the given master seed and a
// component name, so distinct components get decorrelated substreams that
// stay stable as the codebase evolves.
func NewStream(seed int64, component string) *Stream {
	h := fnv64(component)
	return &Stream{r: rand.New(rand.NewSource(seed ^ int64(h)))}
}

// Derive maps a base seed and a replication index to the seed of that
// replicated run. Index 0 returns the base seed itself, so a single
// replication reproduces the unreplicated run exactly; higher indices are
// decorrelated through a SplitMix64 finalizer. The mapping depends only on
// (base, runIndex) — never on worker count or scheduling order — which is
// what makes replicated parallel experiments byte-identical to serial ones.
func Derive(base int64, runIndex int) int64 {
	if runIndex == 0 {
		return base
	}
	z := uint64(base) + uint64(runIndex)*0x9E3779B97F4A7C15
	z ^= z >> 30
	z *= 0xBF58476D1CE4E5B9
	z ^= z >> 27
	z *= 0x94D049BB133111EB
	z ^= z >> 31
	out := int64(z)
	if out == 0 {
		out = 1 // 0 means "use the default seed" to callers; avoid colliding
	}
	return out
}

// fnv64 hashes a component name (FNV-1a) to derive substream seeds.
func fnv64(s string) uint64 {
	const (
		offset = 14695981039346656037
		prime  = 1099511628211
	)
	var h uint64 = offset
	for i := 0; i < len(s); i++ {
		h ^= uint64(s[i])
		h *= prime
	}
	return h
}

// Float64 returns a uniform draw in [0, 1).
func (s *Stream) Float64() float64 { return s.r.Float64() }

// Intn returns a uniform draw in [0, n). It panics if n <= 0.
func (s *Stream) Intn(n int) int { return s.r.Intn(n) }

// Int63n returns a uniform draw in [0, n). It panics if n <= 0.
func (s *Stream) Int63n(n int64) int64 { return s.r.Int63n(n) }

// Exp returns an exponentially distributed draw with the given mean.
// A zero or negative mean returns 0 (degenerate distribution), which the
// simulation uses for "instantaneous" services.
func (s *Stream) Exp(mean float64) float64 {
	if mean <= 0 {
		return 0
	}
	u := s.r.Float64()
	// Guard against log(0).
	if u <= 0 {
		u = math.SmallestNonzeroFloat64
	}
	return -mean * math.Log(u)
}

// Bool returns true with probability p.
func (s *Stream) Bool(p float64) bool {
	if p <= 0 {
		return false
	}
	if p >= 1 {
		return true
	}
	return s.r.Float64() < p
}

// ExpInt returns a draw from an exponential distribution with the given
// mean, rounded to an integer and clamped to at least min. TPSIM uses this
// for variable transaction sizes and instruction counts.
func (s *Stream) ExpInt(mean float64, min int) int {
	n := int(math.Round(s.Exp(mean)))
	if n < min {
		n = min
	}
	return n
}

// Discrete samples an index according to a weight vector. Weights must be
// non-negative with a positive sum.
type Discrete struct {
	cum []float64
}

// NewDiscrete builds a discrete distribution from weights.
func NewDiscrete(weights []float64) (*Discrete, error) {
	if len(weights) == 0 {
		return nil, fmt.Errorf("rng: empty weight vector")
	}
	cum := make([]float64, len(weights))
	total := 0.0
	for i, w := range weights {
		if w < 0 || math.IsNaN(w) {
			return nil, fmt.Errorf("rng: weight[%d] = %v", i, w)
		}
		total += w
		cum[i] = total
	}
	if total <= 0 {
		return nil, fmt.Errorf("rng: weights sum to %v", total)
	}
	for i := range cum {
		cum[i] /= total
	}
	cum[len(cum)-1] = 1 // exactly, despite rounding
	return &Discrete{cum: cum}, nil
}

// MustDiscrete is NewDiscrete that panics on invalid weights; for use with
// static tables.
func MustDiscrete(weights []float64) *Discrete {
	d, err := NewDiscrete(weights)
	if err != nil {
		panic(err)
	}
	return d
}

// Sample draws an index proportional to the weights.
func (d *Discrete) Sample(s *Stream) int {
	u := s.Float64()
	// Binary search over the cumulative vector.
	lo, hi := 0, len(d.cum)-1
	for lo < hi {
		mid := (lo + hi) / 2
		if d.cum[mid] <= u {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	return lo
}
