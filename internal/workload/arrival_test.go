package workload

import (
	"math"
	"testing"

	"repro/internal/rng"
)

// arrivalSpecs enumerates one representative spec per arrival-process
// family, shared by the property tests below.
func arrivalSpecs() map[string]ArrivalSpec {
	return map[string]ArrivalSpec{
		"poisson": {Kind: ArrivalPoisson},
		"mmpp":    {Kind: ArrivalMMPP, BurstFactor: 4, BurstFrac: 0.1, BurstMeanMS: 500},
		"mmpp-extreme": {Kind: ArrivalMMPP, BurstFactor: 8, BurstFrac: 0.1,
			BurstMeanMS: 500},
		"diurnal": {Kind: ArrivalDiurnal, Amplitude: 0.9, PeriodMS: 20_000},
		"spike": {Kind: ArrivalSpike, SpikeFactor: 5, SpikeAtMS: 10_000,
			SpikeDurMS: 5_000},
		// Multipliers average 1 over the cycle, so the mean-rate test's
		// expectation applies unchanged.
		"replay": {Kind: ArrivalReplay, RateBucketMS: 5_000,
			RateMultipliers: []float64{0.5, 1.5, 0.25, 1.75}},
	}
}

// simulateArrivals drives one fresh process/stream pair to the horizon and
// returns the arrival count and the full gap sequence.
func simulateArrivals(t *testing.T, spec ArrivalSpec, rate, originMS, horizonMS float64, seed int64) (int, []float64) {
	t.Helper()
	ap, err := spec.NewProcess(rate, originMS)
	if err != nil {
		t.Fatalf("NewProcess: %v", err)
	}
	s := rng.NewStream(seed, "arrivals")
	now := 0.0
	var gaps []float64
	for now < horizonMS {
		gap := ap.NextGapMS(now, s)
		if gap < 0 || math.IsNaN(gap) || math.IsInf(gap, 0) {
			t.Fatalf("%v: bad gap %v at t=%v", spec.Kind, gap, now)
		}
		gaps = append(gaps, gap)
		now += gap
	}
	return len(gaps) - 1, gaps // last arrival fell past the horizon
}

// TestArrivalProcessDeterministic pins the determinism contract the
// parallel experiment harness relies on: a fresh process instance fed a
// fresh stream of the same seed reproduces the exact gap sequence,
// regardless of how many other instances ran in between (worker counts and
// scheduling order cannot leak in, because every stream is per-node and
// every process instance is per-stream).
func TestArrivalProcessDeterministic(t *testing.T) {
	for name, spec := range arrivalSpecs() {
		spec := spec
		t.Run(name, func(t *testing.T) {
			_, a := simulateArrivals(t, spec, 200, 5_000, 60_000, 42)
			// Interleave a decoy instance on another seed to prove
			// instances share no hidden state.
			simulateArrivals(t, spec, 200, 5_000, 60_000, 7)
			_, b := simulateArrivals(t, spec, 200, 5_000, 60_000, 42)
			if len(a) != len(b) {
				t.Fatalf("gap sequences diverge in length: %d vs %d", len(a), len(b))
			}
			for i := range a {
				if a[i] != b[i] {
					t.Fatalf("gap %d diverges: %v vs %v", i, a[i], b[i])
				}
			}
		})
	}
}

// TestArrivalProcessMeanRate checks the long-run mean rate of every
// process converges to the configured rate. The spike process is checked
// against its analytic arrival count (the spike window adds
// (factor-1)·duration worth of extra load); the periodic and modulated
// processes run whole numbers of cycles so the modulation averages out.
func TestArrivalProcessMeanRate(t *testing.T) {
	const (
		rate    = 200.0 // TPS
		horizon = 400_000.0
		seed    = 1
	)
	for name, spec := range arrivalSpecs() {
		spec := spec
		t.Run(name, func(t *testing.T) {
			n, _ := simulateArrivals(t, spec, rate, 0, horizon, seed)
			expected := rate * horizon / 1000
			if spec.Kind == ArrivalSpike {
				expected += rate * (spec.SpikeFactor - 1) * spec.SpikeDurMS / 1000
			}
			tol := 0.05
			if spec.Kind == ArrivalMMPP {
				// Burst placement adds variance: the horizon holds ~80
				// burst/base cycles, so allow a wider band.
				tol = 0.10
			}
			if ratio := float64(n) / expected; math.Abs(ratio-1) > tol {
				t.Errorf("%s: %d arrivals, expected %.0f (ratio %.3f, tolerance %v)",
					name, n, expected, ratio, tol)
			}
		})
	}
}

// TestPoissonMatchesRawExp pins the byte-identity contract of the Poisson
// extraction: the process performs exactly one s.Exp(meanGap) per call, so
// a pre-refactor engine and the arrival-process layer draw identical
// sequences from identical streams.
func TestPoissonMatchesRawExp(t *testing.T) {
	spec := ArrivalSpec{}
	ap, err := spec.NewProcess(250, 12_000)
	if err != nil {
		t.Fatal(err)
	}
	a := rng.NewStream(99, "arrivals")
	b := rng.NewStream(99, "arrivals")
	mean := 1000.0 / 250
	for i := 0; i < 1000; i++ {
		got := ap.NextGapMS(float64(i), a)
		want := b.Exp(mean)
		if got != want {
			t.Fatalf("draw %d: NextGapMS %v != raw Exp %v", i, got, want)
		}
	}
}

// TestSpikeWindowAnchored checks the origin shift: a spike at offset S into
// the measurement window multiplies the rate exactly over
// [origin+S, origin+S+D).
func TestSpikeWindowAnchored(t *testing.T) {
	spec := ArrivalSpec{Kind: ArrivalSpike, SpikeFactor: 8, SpikeAtMS: 3_000, SpikeDurMS: 2_000}
	ap, err := spec.NewProcess(100, 6_000)
	if err != nil {
		t.Fatal(err)
	}
	// The stream pairs draw identical exponentials, so the multiplier at
	// each edge of the window is exactly observable in the gap.
	mean := 1000.0 / 100
	a := rng.NewStream(5, "arrivals")
	b := rng.NewStream(5, "arrivals")
	for _, tc := range []struct {
		now  float64
		mult float64
	}{
		{8_999.999, 1},
		{9_000, 8},
		{10_999.999, 8},
		{11_000, 1},
	} {
		if got, want := ap.NextGapMS(tc.now, a), b.Exp(mean/tc.mult); got != want {
			t.Errorf("t=%v: gap %v, want %v (multiplier %v)", tc.now, got, want, tc.mult)
		}
	}
	s := rng.NewStream(5, "arrivals")
	inside, outside := 0, 0
	now := 0.0
	for now < 20_000 {
		now += ap.NextGapMS(now, s)
		if now >= 9_000 && now < 11_000 {
			inside++
		} else if now < 20_000 {
			outside++
		}
	}
	// 2 s at 800 TPS inside vs 18 s at 100 TPS outside.
	if inside < 1_200 || outside > 2_400 {
		t.Errorf("spike misplaced: %d arrivals inside window, %d outside", inside, outside)
	}
}

// TestArrivalSpecValidate covers the parameter constraints of each family.
func TestArrivalSpecValidate(t *testing.T) {
	bad := []ArrivalSpec{
		{Kind: ArrivalKind(99)},
		{Kind: ArrivalMMPP, BurstFactor: 0.5, BurstFrac: 0.1},
		{Kind: ArrivalMMPP, BurstFactor: 2, BurstFrac: 0},
		{Kind: ArrivalMMPP, BurstFactor: 2, BurstFrac: 1},
		{Kind: ArrivalMMPP, BurstFactor: 20, BurstFrac: 0.1}, // base rate negative
		{Kind: ArrivalMMPP, BurstFactor: 2, BurstFrac: 0.1, BurstMeanMS: -1},
		{Kind: ArrivalDiurnal, Amplitude: 1, PeriodMS: 1000},
		{Kind: ArrivalDiurnal, Amplitude: -0.1, PeriodMS: 1000},
		{Kind: ArrivalDiurnal, Amplitude: 0.5},
		{Kind: ArrivalSpike, SpikeFactor: 0, SpikeDurMS: 1},
		{Kind: ArrivalSpike, SpikeFactor: 2, SpikeDurMS: 0},
		{Kind: ArrivalSpike, SpikeFactor: 2, SpikeAtMS: -1, SpikeDurMS: 1},
		{Kind: ArrivalClosedLoop, Terminals: 0, ThinkMS: 100},
		{Kind: ArrivalClosedLoop, Terminals: 10, ThinkMS: 0},
		{Kind: ArrivalClosedLoop, Terminals: 10, ThinkMS: -5},
		{Kind: ArrivalReplay, RateBucketMS: 0, RateMultipliers: []float64{1}},
		{Kind: ArrivalReplay, RateBucketMS: 100},
		{Kind: ArrivalReplay, RateBucketMS: 100, RateMultipliers: []float64{1, 0}},
	}
	for i, spec := range bad {
		if err := spec.Validate(); err == nil {
			t.Errorf("spec %d (%+v): Validate accepted an invalid spec", i, spec)
		}
	}
	good := []ArrivalSpec{
		{},
		{Kind: ArrivalMMPP, BurstFactor: 1, BurstFrac: 0.5},
		{Kind: ArrivalDiurnal, Amplitude: 0, PeriodMS: 1},
		{Kind: ArrivalSpike, SpikeFactor: 0.5, SpikeDurMS: 1}, // a dip is a valid "spike"
		{Kind: ArrivalClosedLoop, Terminals: 1, ThinkMS: 0.1},
		{Kind: ArrivalReplay, RateBucketMS: 100, RateMultipliers: []float64{1}},
	}
	for i, spec := range good {
		if err := spec.Validate(); err != nil {
			t.Errorf("spec %d (%+v): Validate rejected a valid spec: %v", i, spec, err)
		}
	}
	if _, err := (&ArrivalSpec{}).NewProcess(0, 0); err == nil {
		t.Error("NewProcess accepted rate 0")
	}
	if _, err := (&ArrivalSpec{Kind: ArrivalMMPP}).NewProcess(100, 0); err == nil {
		t.Error("NewProcess accepted an invalid spec")
	}
	// A closed loop has no interarrival process: the engine must branch on
	// the kind instead of instantiating one.
	if _, err := (&ArrivalSpec{Kind: ArrivalClosedLoop, Terminals: 4, ThinkMS: 100}).NewProcess(100, 0); err == nil {
		t.Error("NewProcess built a process for a closed-loop spec")
	}
}

// TestReplayBucketsAnchored checks the replay timeline: bucket i's
// multiplier holds over [origin + i·width, origin + (i+1)·width), the
// timeline cycles past its end, and pre-origin times (warm-up) use the
// first bucket.
func TestReplayBucketsAnchored(t *testing.T) {
	spec := ArrivalSpec{Kind: ArrivalReplay, RateBucketMS: 1_000,
		RateMultipliers: []float64{2, 0.5}}
	ap, err := spec.NewProcess(100, 4_000)
	if err != nil {
		t.Fatal(err)
	}
	mean := 1000.0 / 100
	// The stream pairs draw identical exponentials, so the modulation is
	// exactly observable as the ratio of the two gaps.
	a := rng.NewStream(3, "arrivals")
	b := rng.NewStream(3, "arrivals")
	for _, tc := range []struct {
		now  float64
		mult float64
	}{
		{0, 2},        // before origin: first bucket
		{4_500, 2},    // bucket 0
		{5_500, 0.5},  // bucket 1
		{6_500, 2},    // cycled back to bucket 0
		{12_100, 2},   // several cycles later
		{13_999, 0.5}, // end of an odd bucket
	} {
		got := ap.NextGapMS(tc.now, a)
		want := b.Exp(mean / tc.mult)
		if got != want {
			t.Errorf("t=%v: gap %v, want %v (multiplier %v)", tc.now, got, want, tc.mult)
		}
	}
}

// TestArrivalKindString keeps the kind names in sync with the CLI's JSON
// vocabulary.
func TestArrivalKindString(t *testing.T) {
	want := map[ArrivalKind]string{
		ArrivalPoisson:    "poisson",
		ArrivalMMPP:       "mmpp",
		ArrivalDiurnal:    "diurnal",
		ArrivalSpike:      "spike",
		ArrivalClosedLoop: "closedloop",
		ArrivalReplay:     "replay",
	}
	for k, name := range want {
		if k.String() != name {
			t.Errorf("%d.String() = %q, want %q", int(k), k.String(), name)
		}
	}
	if ArrivalKind(42).String() != "ArrivalKind(42)" {
		t.Errorf("unknown kind renders %q", ArrivalKind(42).String())
	}
}
