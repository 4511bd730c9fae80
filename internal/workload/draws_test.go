package workload

import (
	"math"
	"testing"

	"repro/internal/rng"
)

// The tests in this file pin the source's random draws against reference
// copies of the hand-written generalized b/c rule (hot spot, subpartition
// tables) and of the diurnal, spike and replay gap formulas. Each reference
// is fed a stream paired with the implementation's, so any change in the
// order, count or arithmetic of the draws shows as the first diverging one.

// refHotSpot is the p/q hot-spot draw: p of the draws land uniformly in
// the first max(1, ⌊q·n⌋) objects (at most n-1), the rest uniformly in the
// remainder; n ≤ 1 still draws a Float64 and an Int63n(1).
func refHotSpot(p, q float64, n int64, s *rng.Stream) int64 {
	if n <= 1 {
		s.Bool(p)
		s.Int63n(1)
		return 0
	}
	hot := min(max(1, int64(q*float64(n))), n-1)
	if s.Bool(p) {
		return s.Int63n(hot)
	}
	return hot + s.Int63n(n-hot)
}

func TestHotSpotDrawsPinned(t *testing.T) {
	const p, q = 0.9, 0.01
	spec := AccessSpec{Kind: AccessHotSpot, HotAccessFrac: p, HotDataFrac: q}
	sizes := []int64{1, 2, 3, 99_991, 100_000}
	for _, n := range sizes {
		d, err := spec.New()
		if err != nil {
			t.Fatal(err)
		}
		a, b := rng.NewStream(int64(n), "workload"), rng.NewStream(int64(n), "workload")
		for i := range 200_000 {
			if got, want := d.Draw(n, a), refHotSpot(p, q, n, b); got != want {
				t.Fatalf("n=%d draw %d: %d, want %d", n, i, got, want)
			}
		}
	}
	// One instance serving every size in turn, as a shared spec does.
	d, err := spec.New()
	if err != nil {
		t.Fatal(err)
	}
	a, b := rng.NewStream(5, "workload"), rng.NewStream(5, "workload")
	for i := range 50_000 {
		n := sizes[i%len(sizes)]
		if got, want := d.Draw(n, a), refHotSpot(p, q, n, b); got != want {
			t.Fatalf("interleaved draw %d (n=%d): %d, want %d", i, n, got, want)
		}
	}
}

// refSlices lays subpartitions out over n objects: slice k gets
// max(1, ⌊SizeFrac·n⌋) objects and the last absorbs the rounding drift.
func refSlices(parts []Subpartition, n int64) (base, size []int64) {
	var off int64
	for _, sp := range parts {
		base = append(base, off)
		size = append(size, max(1, int64(sp.SizeFrac*float64(n))))
		off += size[len(size)-1]
	}
	size[len(size)-1] += n - off
	return base, size
}

func TestSyntheticDrawsPinned(t *testing.T) {
	m := &Model{
		Partitions: []Partition{
			{Name: "bc", NumObjects: 10_000, BlockFactor: 10, Subpartitions: BCRule(0.8, 0.2)},
			{Name: "three", NumObjects: 100_003, BlockFactor: 7, Subpartitions: []Subpartition{
				{SizeFrac: 0.01, AccessProb: 0.81},
				{SizeFrac: 0.09, AccessProb: 0.09},
				{SizeFrac: 0.90, AccessProb: 0.10},
			}},
		},
		TxTypes: []TxType{
			{Name: "t", ArrivalRate: 1, TxSize: 8, VarSize: true, WriteProb: 0.3, RefRow: []float64{0.4, 0.6}},
		},
	}
	g, err := NewSynthetic(m)
	if err != nil {
		t.Fatal(err)
	}
	// The reference generator: size, then per access the partition, the
	// slice, the object in the slice, and the write flag.
	ref := rng.MustDiscrete(m.TxTypes[0].RefRow)
	pick := make([]*rng.Discrete, len(m.Partitions))
	base := make([][]int64, len(m.Partitions))
	size := make([][]int64, len(m.Partitions))
	for p := range m.Partitions {
		part := &m.Partitions[p]
		probs := make([]float64, len(part.Subpartitions))
		for k, sp := range part.Subpartitions {
			probs[k] = sp.AccessProb
		}
		pick[p] = rng.MustDiscrete(probs)
		base[p], size[p] = refSlices(part.Subpartitions, part.NumObjects)
	}
	a, b := rng.NewStream(3, "workload"), rng.NewStream(3, "workload")
	for i := range 20_000 {
		tx := g.Next(0, a)
		if n := b.ExpInt(8, 1); len(tx.Accesses) != n {
			t.Fatalf("tx %d: %d accesses, want %d", i, len(tx.Accesses), n)
		}
		for j, acc := range tx.Accesses {
			p := ref.Sample(b)
			k := pick[p].Sample(b)
			obj := base[p][k] + b.Int63n(size[p][k])
			write := b.Bool(0.3)
			if acc.Partition != p || acc.Object != obj || acc.Write != write {
				t.Fatalf("tx %d access %d: %+v, want partition %d object %d write %v",
					i, j, acc, p, obj, write)
			}
		}
	}

	// A partition too small for its subpartitions stays an error.
	m.Partitions[1].NumObjects = 2
	if _, err := NewSynthetic(m); err == nil {
		t.Fatal("NewSynthetic accepted 2 objects for 3 subpartitions")
	}
}

func TestModulatedGapsPinned(t *testing.T) {
	const rate, origin = 200.0, 3_000.0
	meanGap := 1000.0 / rate
	mults := []float64{0.5, 1.5, 0.25, 1.75, 1}
	cases := []struct {
		name string
		spec ArrivalSpec
		gap  func(now float64, s *rng.Stream) float64
	}{
		{
			name: "diurnal",
			spec: ArrivalSpec{Kind: ArrivalDiurnal, Amplitude: 0.7, PeriodMS: 20_000, PhaseRad: 0.4},
			gap: func(now float64, s *rng.Stream) float64 {
				mod := 1 + 0.7*math.Sin(2*math.Pi*(now-origin)/20_000+0.4)
				return s.Exp(meanGap / mod)
			},
		},
		{
			name: "spike",
			spec: ArrivalSpec{Kind: ArrivalSpike, SpikeFactor: 6, SpikeAtMS: 40_000, SpikeDurMS: 30_000},
			gap: func(now float64, s *rng.Stream) float64 {
				gap := meanGap
				if now >= origin+40_000 && now < origin+40_000+30_000 {
					gap /= 6
				}
				return s.Exp(gap)
			},
		},
		{
			name: "replay",
			spec: ArrivalSpec{Kind: ArrivalReplay, RateBucketMS: 700, RateMultipliers: mults},
			gap: func(now float64, s *rng.Stream) float64 {
				bucket := 0
				if now > origin {
					bucket = int((now-origin)/700) % len(mults)
				}
				return s.Exp(meanGap / mults[bucket])
			},
		},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			ap, err := c.spec.NewProcess(rate, origin)
			if err != nil {
				t.Fatal(err)
			}
			a, b := rng.NewStream(9, "arrivals"), rng.NewStream(9, "arrivals")
			now := 0.0
			for i := range 100_000 {
				got, want := ap.NextGapMS(now, a), c.gap(now, b)
				if got != want {
					t.Fatalf("gap %d at t=%v: %v, want %v", i, now, got, want)
				}
				now += got
			}
		})
	}
}
