package workload

import (
	"fmt"
	"math"

	"repro/internal/rng"
)

// This file is the pluggable arrival-process layer: the engine no longer
// hardcodes exponential interarrivals but asks an ArrivalProcess for every
// gap. One process instance serves one arrival stream (one node × one
// transaction type), so implementations may carry state (the MMPP state
// machine does). All randomness comes from the stream the engine passes in,
// which is what keeps runs byte-identical across worker counts.

// ArrivalProcess generates the interarrival gaps of one arrival stream.
type ArrivalProcess interface {
	// NextGapMS returns the gap (milliseconds) between the arrival at
	// simulated time now and the next one, drawing randomness from s.
	NextGapMS(now float64, s *rng.Stream) float64
}

// ArrivalKind selects the arrival-process family of an ArrivalSpec.
type ArrivalKind int

// Arrival-process families.
const (
	// ArrivalPoisson is the classic time-homogeneous Poisson process of
	// the paper's evaluation (exponential interarrivals at a fixed rate).
	ArrivalPoisson ArrivalKind = iota
	// ArrivalMMPP is a two-state Markov-modulated Poisson process: a base
	// state and a burst state with a higher rate, with exponentially
	// distributed sojourn times, parameterized so the long-run mean rate
	// equals the configured rate.
	ArrivalMMPP
	// ArrivalDiurnal modulates the rate sinusoidally around the mean —
	// the compressed day/night load cycle.
	ArrivalDiurnal
	// ArrivalSpike multiplies the rate inside one scheduled window,
	// alignable with a cluster failure injection so the spike lands
	// mid-recovery.
	ArrivalSpike
	// ArrivalClosedLoop replaces the rate clock with N terminals: each
	// terminal thinks for an exponential time, submits one transaction,
	// and thinks again when it completes. There is no interarrival
	// process — the engine drives arrivals from completions — so
	// NewProcess rejects this kind; the configured rate is ignored.
	ArrivalClosedLoop
	// ArrivalReplay modulates a Poisson process by a recorded rate
	// timeline: piecewise-constant multipliers over fixed-width buckets,
	// cycled past the end. trace.LoadTimeline derives such a timeline
	// from a recorded trace.
	ArrivalReplay
)

func (k ArrivalKind) String() string {
	switch k {
	case ArrivalPoisson:
		return "poisson"
	case ArrivalMMPP:
		return "mmpp"
	case ArrivalDiurnal:
		return "diurnal"
	case ArrivalSpike:
		return "spike"
	case ArrivalClosedLoop:
		return "closedloop"
	case ArrivalReplay:
		return "replay"
	default:
		return fmt.Sprintf("ArrivalKind(%d)", int(k))
	}
}

// UnmarshalText sets k to the arrival kind whose String() is text.
func (k *ArrivalKind) UnmarshalText(text []byte) error {
	for v := range ArrivalReplay + 1 {
		if v.String() == string(text) {
			*k = v
			return nil
		}
	}
	return fmt.Errorf("unknown arrival kind %q", text)
}

// DefaultBurstMeanMS is the mean burst-state sojourn when an MMPP spec
// leaves BurstMeanMS zero.
const DefaultBurstMeanMS = 500.0

// ArrivalSpec describes an arrival process independently of the rate: the
// engine instantiates one process per arrival stream from the spec and the
// stream's configured mean rate. The zero value is the plain Poisson
// process, so existing configurations are untouched.
type ArrivalSpec struct {
	Kind ArrivalKind `json:"kind"`

	// MMPP (Kind == ArrivalMMPP). The burst state runs at BurstFactor ×
	// the mean rate and covers BurstFrac of the time in the long run; the
	// base-state rate is derived so the overall mean rate is preserved,
	// which requires BurstFactor·BurstFrac < 1. BurstMeanMS is the mean
	// burst sojourn (0 → DefaultBurstMeanMS); the base-state sojourn
	// follows from BurstFrac.
	BurstFactor float64 `json:"burstFactor"`
	BurstFrac   float64 `json:"burstFrac"`
	BurstMeanMS float64 `json:"burstMeanMS"`

	// Diurnal (Kind == ArrivalDiurnal): rate(t) = mean · (1 + Amplitude ·
	// sin(2π·(t-origin)/PeriodMS + PhaseRad)). Amplitude must stay below 1
	// so the rate never reaches zero.
	Amplitude float64 `json:"amplitude"`
	PeriodMS  float64 `json:"periodMS"`
	PhaseRad  float64 `json:"phaseRad"`

	// Spike (Kind == ArrivalSpike): the rate is multiplied by SpikeFactor
	// over [SpikeAtMS, SpikeAtMS+SpikeDurMS), both offsets into the
	// measurement window (the same clock FailureConfig.CrashAtMS uses, so
	// a spike is trivially aligned with a crash).
	SpikeFactor float64 `json:"spikeFactor"`
	SpikeAtMS   float64 `json:"spikeAtMS"`
	SpikeDurMS  float64 `json:"spikeDurMS"`

	// Closed loop (Kind == ArrivalClosedLoop): Terminals emulated users
	// per arrival stream, each thinking for an exponential time with mean
	// ThinkMS between its transactions. ThinkMS must be positive — a
	// zero think time would let a terminal resubmit at the same simulated
	// instant forever.
	Terminals int     `json:"terminals"`
	ThinkMS   float64 `json:"thinkMS"`

	// Replay (Kind == ArrivalReplay): the rate is multiplied by
	// RateMultipliers[i] over the i-th RateBucketMS-wide bucket past the
	// origin, cycling once the timeline is exhausted. Multipliers should
	// average 1 so the configured rate stays the long-run mean.
	RateBucketMS    float64   `json:"rateBucketMS"`
	RateMultipliers []float64 `json:"rateMultipliers"`
}

// Validate checks the spec's parameters for its kind.
func (a *ArrivalSpec) Validate() error {
	switch a.Kind {
	case ArrivalPoisson:
		return nil
	case ArrivalMMPP:
		switch {
		case a.BurstFactor < 1:
			return fmt.Errorf("workload: MMPP BurstFactor = %v, want >= 1", a.BurstFactor)
		case a.BurstFrac <= 0 || a.BurstFrac >= 1:
			return fmt.Errorf("workload: MMPP BurstFrac = %v, want in (0, 1)", a.BurstFrac)
		case a.BurstFactor*a.BurstFrac >= 1:
			return fmt.Errorf("workload: MMPP BurstFactor·BurstFrac = %v, want < 1 (base rate would be negative)",
				a.BurstFactor*a.BurstFrac)
		case a.BurstMeanMS < 0:
			return fmt.Errorf("workload: MMPP BurstMeanMS = %v", a.BurstMeanMS)
		}
		return nil
	case ArrivalDiurnal:
		switch {
		case a.Amplitude < 0 || a.Amplitude >= 1:
			return fmt.Errorf("workload: diurnal Amplitude = %v, want in [0, 1)", a.Amplitude)
		case a.PeriodMS <= 0:
			return fmt.Errorf("workload: diurnal PeriodMS = %v", a.PeriodMS)
		}
		return nil
	case ArrivalSpike:
		switch {
		case a.SpikeFactor <= 0:
			return fmt.Errorf("workload: spike SpikeFactor = %v", a.SpikeFactor)
		case a.SpikeAtMS < 0:
			return fmt.Errorf("workload: spike SpikeAtMS = %v", a.SpikeAtMS)
		case a.SpikeDurMS <= 0:
			return fmt.Errorf("workload: spike SpikeDurMS = %v", a.SpikeDurMS)
		}
		return nil
	case ArrivalClosedLoop:
		switch {
		case a.Terminals <= 0:
			return fmt.Errorf("workload: closed loop Terminals = %d", a.Terminals)
		case a.ThinkMS <= 0:
			return fmt.Errorf("workload: closed loop ThinkMS = %v, want > 0", a.ThinkMS)
		}
		return nil
	case ArrivalReplay:
		switch {
		case a.RateBucketMS <= 0:
			return fmt.Errorf("workload: replay RateBucketMS = %v", a.RateBucketMS)
		case len(a.RateMultipliers) == 0:
			return fmt.Errorf("workload: replay needs at least one rate multiplier")
		}
		for i, m := range a.RateMultipliers {
			if m <= 0 {
				return fmt.Errorf("workload: replay RateMultipliers[%d] = %v", i, m)
			}
		}
		return nil
	default:
		return fmt.Errorf("workload: unknown arrival kind %d", int(a.Kind))
	}
}

// NewProcess instantiates the spec for one arrival stream. rate is the
// stream's mean arrival rate in transactions per second; originMS anchors
// the window-relative parameters (spike offsets, diurnal phase) — the
// engine passes the warmup length so "SpikeAtMS into the measurement
// window" lands at the right simulated instant.
func (a *ArrivalSpec) NewProcess(rate, originMS float64) (ArrivalProcess, error) {
	if err := a.Validate(); err != nil {
		return nil, err
	}
	if rate <= 0 {
		return nil, fmt.Errorf("workload: arrival rate = %v", rate)
	}
	meanGap := 1000.0 / rate
	switch a.Kind {
	case ArrivalPoisson:
		return &Poisson{MeanGapMS: meanGap}, nil
	case ArrivalMMPP:
		burstMean := a.BurstMeanMS
		if burstMean == 0 {
			burstMean = DefaultBurstMeanMS
		}
		f := a.BurstFrac
		burstRate := a.BurstFactor * rate
		baseRate := rate * (1 - f*a.BurstFactor) / (1 - f)
		return &MMPP{
			BaseGapMS:   1000.0 / baseRate,
			BurstGapMS:  1000.0 / burstRate,
			BaseMeanMS:  burstMean * (1 - f) / f,
			BurstMeanMS: burstMean,
		}, nil
	case ArrivalDiurnal:
		amp, period, phase := a.Amplitude, a.PeriodMS, a.PhaseRad
		return &modulated{meanGap: meanGap, mult: func(now float64) float64 {
			return 1 + amp*math.Sin(2*math.Pi*(now-originMS)/period+phase)
		}}, nil
	case ArrivalClosedLoop:
		return nil, fmt.Errorf("workload: closed loop has no interarrival process (the engine drives arrivals from completions)")
	case ArrivalReplay:
		width, mults := a.RateBucketMS, append([]float64(nil), a.RateMultipliers...)
		return &modulated{meanGap: meanGap, mult: func(now float64) float64 {
			bucket := 0
			if now > originMS {
				bucket = int((now-originMS)/width) % len(mults)
			}
			return mults[bucket]
		}}, nil
	default: // ArrivalSpike
		factor, start, end := a.SpikeFactor, originMS+a.SpikeAtMS, originMS+a.SpikeAtMS+a.SpikeDurMS
		return &modulated{meanGap: meanGap, mult: func(now float64) float64 {
			if now >= start && now < end {
				return factor
			}
			return 1
		}}, nil
	}
}

// Poisson draws exponential interarrivals at a fixed rate — the default
// process and the one the paper's evaluation uses throughout. It performs
// exactly one exponential draw per arrival, which keeps runs byte-identical
// with the pre-refactor engine.
type Poisson struct {
	MeanGapMS float64
}

// NextGapMS implements ArrivalProcess.
func (p *Poisson) NextGapMS(_ float64, s *rng.Stream) float64 {
	return s.Exp(p.MeanGapMS)
}

// MMPP is a two-state Markov-modulated Poisson process: interarrivals are
// exponential at the current state's rate, and the state (base/burst)
// switches after exponentially distributed sojourns. Gaps are generated
// exactly by competing clocks: a candidate gap is drawn at the current
// state's rate, and if the state switches first, time advances to the
// switch and the remainder is redrawn at the new state's rate — which by
// memorylessness reproduces the true MMPP, with no bias at any burst
// factor. Every arrival lands strictly before switchAt, so the process
// maintains now < switchAt between calls.
type MMPP struct {
	BaseGapMS   float64 // mean interarrival gap in the base state
	BurstGapMS  float64 // mean interarrival gap in the burst state
	BaseMeanMS  float64 // mean base-state sojourn
	BurstMeanMS float64 // mean burst-state sojourn

	inBurst  bool
	switchAt float64
	started  bool
}

// NextGapMS implements ArrivalProcess.
func (m *MMPP) NextGapMS(now float64, s *rng.Stream) float64 {
	if !m.started {
		m.started = true
		m.switchAt = now + s.Exp(m.BaseMeanMS)
	}
	t := now
	for {
		gap := m.BaseGapMS
		if m.inBurst {
			gap = m.BurstGapMS
		}
		arriveAt := t + s.Exp(gap)
		if arriveAt < m.switchAt {
			return arriveAt - now
		}
		t = m.switchAt
		m.inBurst = !m.inBurst
		if m.inBurst {
			m.switchAt += s.Exp(m.BurstMeanMS)
		} else {
			m.switchAt += s.Exp(m.BaseMeanMS)
		}
	}
}

// modulated is a Poisson process whose rate is the mean rate times a
// multiplier of time: the diurnal sine, the spike window, or the replayed
// timeline. Each gap is exponential at the rate holding at the previous
// arrival (the standard slowly-varying approximation of an inhomogeneous
// Poisson process).
type modulated struct {
	meanGap float64
	mult    func(now float64) float64
}

// NextGapMS implements ArrivalProcess.
func (m *modulated) NextGapMS(now float64, s *rng.Stream) float64 {
	return s.Exp(m.meanGap / m.mult(now))
}
