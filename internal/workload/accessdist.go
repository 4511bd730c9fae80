package workload

import (
	"fmt"
	"math"

	"repro/internal/rng"
)

// This file is the access-distribution seam: generators no longer hardwire
// a uniform object draw inside a partition (or subpartition) but delegate to
// an AccessDist. The uniform implementation performs exactly one Int63n per
// draw — byte-identical to the pre-seam generators — so every existing
// configuration is untouched. The skewed implementations (Zipf, hot-spot)
// concentrate references on a hot set of low-numbered objects, which the
// block-structured page mapping turns into a hot set of pages: the regime
// where a second-level NVEM cache pays off exactly when the hot set almost
// fits.

// AccessDist draws object indices in [0, n) for one partition's accesses.
// Implementations may memoize derived constants but must be pure functions
// of (n, the stream): the engine relies on draws being reproducible across
// decoy-instance interleavings for byte-identical parallel runs.
type AccessDist interface {
	// Draw returns an object index in [0, n), drawing randomness from s.
	Draw(n int64, s *rng.Stream) int64
}

// AccessKind selects the access-distribution family of an AccessSpec.
type AccessKind int

// Access-distribution families.
const (
	// AccessUniform draws every object with equal probability — the
	// default, matching the pre-seam generators draw for draw.
	AccessUniform AccessKind = iota
	// AccessZipf draws object ranks from a Zipf-like power law with
	// exponent Theta in (0, 1): rank r is drawn with probability
	// proportional to r^(-Theta), so low-numbered objects are hot.
	AccessZipf
	// AccessHotSpot sends HotAccessFrac of the draws uniformly into the
	// first HotDataFrac of the objects and the rest uniformly into the
	// remainder (the classic "p% of accesses to q% of the data" rule): the
	// two-slice b/c rule BCRule(HotAccessFrac, HotDataFrac).
	AccessHotSpot
)

func (k AccessKind) String() string {
	switch k {
	case AccessUniform:
		return "uniform"
	case AccessZipf:
		return "zipf"
	case AccessHotSpot:
		return "hotspot"
	default:
		return fmt.Sprintf("AccessKind(%d)", int(k))
	}
}

// UnmarshalText sets k to the access kind whose String() is text.
func (k *AccessKind) UnmarshalText(text []byte) error {
	for v := range AccessHotSpot + 1 {
		if v.String() == string(text) {
			*k = v
			return nil
		}
	}
	return fmt.Errorf("unknown access kind %q", text)
}

// AccessSpec describes an access distribution declaratively, so configs and
// JSON files can carry it. The zero value is the uniform distribution.
type AccessSpec struct {
	Kind AccessKind `json:"kind"`

	// Zipf (Kind == AccessZipf): the skew exponent, in (0, 1). Higher
	// Theta is more skewed; 0.8 is the conventional "80/20-ish" setting.
	Theta float64 `json:"theta"`

	// Hot-spot (Kind == AccessHotSpot): HotAccessFrac (p) of the accesses
	// go to the first HotDataFrac (q) of the objects. Requires
	// 0 < q < 1 and q <= p < 1 (p >= q keeps the hot set actually hot).
	HotAccessFrac float64 `json:"hotAccessFrac"`
	HotDataFrac   float64 `json:"hotDataFrac"`
}

// Validate checks the spec's parameters for its kind.
func (a *AccessSpec) Validate() error {
	switch a.Kind {
	case AccessUniform:
		return nil
	case AccessZipf:
		if a.Theta <= 0 || a.Theta >= 1 {
			return fmt.Errorf("workload: zipf Theta = %v, want in (0, 1)", a.Theta)
		}
		return nil
	case AccessHotSpot:
		switch {
		case a.HotDataFrac <= 0 || a.HotDataFrac >= 1:
			return fmt.Errorf("workload: hot-spot HotDataFrac = %v, want in (0, 1)", a.HotDataFrac)
		case a.HotAccessFrac < a.HotDataFrac || a.HotAccessFrac >= 1:
			return fmt.Errorf("workload: hot-spot HotAccessFrac = %v, want in [HotDataFrac, 1)",
				a.HotAccessFrac)
		}
		return nil
	default:
		return fmt.Errorf("workload: unknown access kind %d", int(a.Kind))
	}
}

// New instantiates the spec. The returned distribution is stateless apart
// from memoized constants, so one instance may serve many partitions.
func (a *AccessSpec) New() (AccessDist, error) {
	if err := a.Validate(); err != nil {
		return nil, err
	}
	switch a.Kind {
	case AccessUniform:
		return UniformAccess{}, nil
	case AccessZipf:
		return &ZipfAccess{Theta: a.Theta}, nil
	default: // AccessHotSpot
		return SlicedAccess(BCRule(a.HotAccessFrac, a.HotDataFrac))
	}
}

// UniformAccess draws every object with equal probability. It performs
// exactly one Int63n per draw, which keeps pre-seam configurations
// byte-identical.
type UniformAccess struct{}

// Draw implements AccessDist.
func (UniformAccess) Draw(n int64, s *rng.Stream) int64 {
	return s.Int63n(n)
}

// ZipfAccess draws object ranks from a continuous power-law approximation
// of the Zipf distribution with exponent Theta in (0, 1): inverting the CDF
// of the density f(x) ∝ x^(-Theta) over [1, n] gives
//
//	x = ((n^(1-Theta) - 1)·u + 1)^(1/(1-Theta)),  u ~ U[0,1)
//
// and rank floor(x)-1 is returned. One uniform draw and two Pow calls per
// access — O(1) regardless of n, unlike the exact discrete Zipf whose
// normalization costs O(n) (prohibitive at the benchmark's 50M accounts).
// The approximation preserves the defining property (frequency of rank r
// falls off as r^(-Theta)) to within a few percent across the whole range.
type ZipfAccess struct {
	Theta float64

	memoN     int64
	memoScale float64
}

// Draw implements AccessDist.
func (z *ZipfAccess) Draw(n int64, s *rng.Stream) int64 {
	if n <= 1 {
		s.Float64() // keep the draw count independent of n
		return 0
	}
	if z.memoN != n {
		z.memoN = n
		z.memoScale = math.Pow(float64(n), 1-z.Theta) - 1
	}
	u := s.Float64()
	x := math.Pow(z.memoScale*u+1, 1/(1-z.Theta))
	obj := int64(x) - 1
	if obj < 0 {
		obj = 0
	}
	if obj >= n {
		obj = n - 1
	}
	return obj
}

// slicedAccess is the generalized b/c rule (section 3.1): it picks a
// slice by the slices' access probabilities, then an object uniformly
// inside that slice. The slices are laid out over the n objects of the
// last draw and kept until n changes.
type slicedAccess struct {
	parts []Subpartition
	pick  *rng.Discrete
	n     int64   // the object count base and size are laid out for
	base  []int64 // first object of each slice
	size  []int64 // object count of each slice
}

// SlicedAccess returns the generalized b/c rule over parts: slice k holds
// parts[k].SizeFrac of the objects and receives parts[k].AccessProb of
// the draws.
func SlicedAccess(parts []Subpartition) (AccessDist, error) {
	d, err := newSliced(parts)
	if err != nil {
		return nil, err
	}
	return d, nil
}

// newSliced is SlicedAccess for callers that lay the slices out up front.
func newSliced(parts []Subpartition) (*slicedAccess, error) {
	probs := make([]float64, len(parts))
	for k, sp := range parts {
		probs[k] = sp.AccessProb
	}
	pick, err := rng.NewDiscrete(probs)
	if err != nil {
		return nil, err
	}
	return &slicedAccess{parts: parts, pick: pick,
		base: make([]int64, len(parts)), size: make([]int64, len(parts))}, nil
}

// layout lays the slices out over n objects: slice k gets
// max(1, ⌊SizeFrac·n⌋) objects and the last absorbs the rounding drift.
// It reports false when that leaves the last slice empty.
func (d *slicedAccess) layout(n int64) bool {
	var off int64
	for k, sp := range d.parts {
		d.base[k] = off
		d.size[k] = max(1, int64(sp.SizeFrac*float64(n)))
		off += d.size[k]
	}
	last := len(d.size) - 1
	d.size[last] += n - off
	d.n = 0
	if d.size[last] < 1 {
		return false
	}
	d.n = n
	return true
}

// Draw implements AccessDist. One object (n ≤ 1) still draws the slice
// and one Int63n(1), which keeps the draw count independent of n. Draw
// panics when n leaves the last slice empty; NewSynthetic checks its
// partitions up front.
func (d *slicedAccess) Draw(n int64, s *rng.Stream) int64 {
	k := d.pick.Sample(s)
	if n <= 1 {
		s.Int63n(1)
		return 0
	}
	if n != d.n && !d.layout(n) {
		panic(fmt.Sprintf("workload: %d objects are too few for %d slices", n, len(d.parts)))
	}
	return d.base[k] + s.Int63n(d.size[k])
}
