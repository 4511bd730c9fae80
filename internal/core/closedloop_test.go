package core

import (
	"strings"
	"testing"

	"repro/internal/rng"
	"repro/internal/workload"
)

// loopGen produces an endless stream of fixed-size read transactions over
// rotating pages — each one misses the tiny test buffer, so service time is
// disk-bound and predictable.
type loopGen struct {
	rate     float64
	accesses int
	page     int64
}

func (g *loopGen) NumTypes() int                  { return 1 }
func (g *loopGen) TypeInfo(int) (string, float64) { return "loop", g.rate }
func (g *loopGen) Next(_ int, _ *rng.Stream) workload.Tx {
	var tx workload.Tx
	for j := 0; j < g.accesses; j++ {
		g.page = (g.page + 1) % 90_000
		tx.Accesses = append(tx.Accesses, access(g.page, false))
	}
	return tx
}

func closedLoopConfig(gen Generator, terminals int, thinkMS float64) Config {
	cfg := scriptConfig(&scriptGen{})
	cfg.Generator = gen
	cfg.Arrival = workload.ArrivalSpec{
		Kind:      workload.ArrivalClosedLoop,
		Terminals: terminals,
		ThinkMS:   thinkMS,
	}
	return cfg
}

// Generator is re-declared here to accept any generator in the helper.
type Generator = workload.Generator

// TestClosedLoopSaturationRegression pins the closed-loop saturation rule
// (the open-loop rule was unreachable: a closed loop never drops, and its
// at-most-`terminals` queue never nears MaxQueue/2). An overloaded closed
// loop — MPL 1, disk-bound transactions, negligible think time — keeps
// nearly every terminal waiting for the MPL slot, and must report
// Saturated even though both old signals stay silent.
func TestClosedLoopSaturationRegression(t *testing.T) {
	gen := &loopGen{accesses: 3}
	cfg := closedLoopConfig(gen, 16, 5)
	cfg.MPL = 1
	cfg.NumCPU = 1
	cfg.WarmupMS = 1000
	cfg.MeasureMS = 5000
	res, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	// Both inputs of the open-loop rule must be absent, proving the old
	// derivation (dropped > 0 || peak >= MaxQueue/2) would report false.
	if res.Dropped != 0 {
		t.Fatalf("Dropped = %d: closed loop must never drop", res.Dropped)
	}
	if 16 >= (cfg.MaxQueue+1)/2 {
		t.Fatalf("test broken: %d terminals cannot stay below MaxQueue/2 = %d",
			16, (cfg.MaxQueue+1)/2)
	}
	if res.TerminalWaitFrac < 0.5 {
		t.Fatalf("TerminalWaitFrac = %.3f, want >= 0.5 under 16 terminals on MPL 1",
			res.TerminalWaitFrac)
	}
	if !res.Saturated {
		t.Fatal("Saturated not set for an overloaded closed loop")
	}
	if res.Terminals != 16 || res.ThinkMS != 5 {
		t.Fatalf("closed-loop config not reported: terminals=%d think=%v",
			res.Terminals, res.ThinkMS)
	}
	if res.Commits == 0 {
		t.Fatal("no commits: terminals are not cycling")
	}
	if !strings.Contains(res.Report(), "closed loop:") {
		t.Fatal("report lacks the closed-loop line")
	}
}

// TestClosedLoopLightLoadUnsaturated: a lightly loaded closed loop (long
// think, ample MPL) commits steadily, keeps terminals thinking rather than
// queueing, and must not be flagged saturated.
func TestClosedLoopLightLoadUnsaturated(t *testing.T) {
	gen := &loopGen{accesses: 1}
	cfg := closedLoopConfig(gen, 4, 500)
	cfg.WarmupMS = 1000
	cfg.MeasureMS = 8000
	res, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if res.Commits == 0 {
		t.Fatal("no commits")
	}
	if res.Saturated {
		t.Fatalf("Saturated set at TerminalWaitFrac = %.3f", res.TerminalWaitFrac)
	}
	if res.TerminalWaitFrac > 0.1 {
		t.Fatalf("TerminalWaitFrac = %.3f, want ~0 with MPL %d >> 4 terminals",
			res.TerminalWaitFrac, cfg.MPL)
	}
	// Closed-loop throughput law: N/(think + resp), within tolerance.
	want := 4.0 / (500 + res.RespMean) * 1000
	if res.Throughput < 0.7*want || res.Throughput > 1.3*want {
		t.Fatalf("throughput %.2f TPS, want ~%.2f (N/(Z+R))", res.Throughput, want)
	}
	// An open-loop line item: offered TPS is 0 (no rate clock).
	if res.OfferedTPS != 0 {
		t.Fatalf("OfferedTPS = %v for a closed loop", res.OfferedTPS)
	}
}

// TestClosedLoopDeterministic: two identical closed-loop runs produce
// byte-identical reports (the property the golden corpus relies on).
func TestClosedLoopDeterministic(t *testing.T) {
	run := func() string {
		cfg := closedLoopConfig(&loopGen{accesses: 2}, 8, 50)
		cfg.WarmupMS = 500
		cfg.MeasureMS = 2000
		res, err := Run(cfg)
		if err != nil {
			t.Fatal(err)
		}
		return res.Report()
	}
	if a, b := run(), run(); a != b {
		t.Fatalf("closed-loop runs diverge:\n%s\nvs\n%s", a, b)
	}
}

// TestClosedLoopRejectsFailureInjection: a crash would strand terminals
// whose in-flight transactions die, silently shrinking the population.
func TestClosedLoopRejectsFailureInjection(t *testing.T) {
	base := closedLoopConfig(&loopGen{accesses: 1}, 4, 100)
	cfg := ClusterConfig{
		Base:     base,
		NumNodes: 2,
		Generators: []workload.Generator{
			&loopGen{accesses: 1}, &loopGen{accesses: 1},
		},
		Failure: FailureConfig{Enabled: true, Node: 0, CrashAtMS: 1000, RebootMS: 500},
	}
	if _, err := RunCluster(cfg); err == nil ||
		!strings.Contains(err.Error(), "closed-loop") {
		t.Fatalf("closed loop + failure injection accepted (err=%v)", err)
	}
}

// twoClassGen floods two transaction classes at independent rates with
// distinct page ranges and sizes, so drops under a tiny queue cap hit both.
type twoClassGen struct {
	rates [2]float64
	sizes [2]int
	page  [2]int64
}

func (g *twoClassGen) NumTypes() int { return 2 }
func (g *twoClassGen) TypeInfo(i int) (string, float64) {
	return [2]string{"alpha", "beta"}[i], g.rates[i]
}
func (g *twoClassGen) Next(i int, _ *rng.Stream) workload.Tx {
	tx := workload.Tx{Type: i}
	for j := 0; j < g.sizes[i]; j++ {
		g.page[i] = (g.page[i] + 1) % 40_000
		tx.Accesses = append(tx.Accesses, access(int64(i)*40_000+g.page[i], false))
	}
	return tx
}

// TestPerClassDropAttribution pins the per-class split of the Dropped
// counter: with two classes flooding a MPL-1 node behind a 2-slot queue,
// each class's drops land on its own ClassReport, the per-class counters
// sum exactly to the scalar aggregates, and the report gains the gated
// class lines.
func TestPerClassDropAttribution(t *testing.T) {
	gen := &twoClassGen{rates: [2]float64{150, 150}, sizes: [2]int{3, 3}}
	cfg := scriptConfig(&scriptGen{})
	cfg.Generator = gen
	cfg.MPL = 1
	cfg.NumCPU = 1
	cfg.MaxQueue = 2
	cfg.WarmupMS = 0
	cfg.MeasureMS = 6000
	res, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Classes) != 2 {
		t.Fatalf("got %d class reports, want 2", len(res.Classes))
	}
	if res.Classes[0].Name != "alpha" || res.Classes[1].Name != "beta" {
		t.Fatalf("class names %q/%q", res.Classes[0].Name, res.Classes[1].Name)
	}
	var commits, aborts, dropped, shed int64
	for _, c := range res.Classes {
		if c.Dropped == 0 {
			t.Errorf("class %s reports no drops under sustained overload", c.Name)
		}
		if c.Commits == 0 {
			t.Errorf("class %s reports no commits", c.Name)
		}
		commits += c.Commits
		aborts += c.Aborts
		dropped += c.Dropped
		shed += c.Shed
	}
	if commits != res.Commits || aborts != res.Aborts || dropped != res.Dropped || shed != res.Shed {
		t.Fatalf("class sums diverge from scalars: commits %d/%d aborts %d/%d dropped %d/%d shed %d/%d",
			commits, res.Commits, aborts, res.Aborts, dropped, res.Dropped, shed, res.Shed)
	}
	if res.Dropped == 0 {
		t.Fatal("no drops at all: the test load is not overloading the queue")
	}
	rep := res.Report()
	if !strings.Contains(rep, "class alpha") || !strings.Contains(rep, "class beta") {
		t.Fatalf("report lacks per-class lines:\n%s", rep)
	}
}

// TestSingleClassReportUngated: single-type generators must not grow class
// lines (the gate that keeps every pre-existing golden byte-identical).
func TestSingleClassReportUngated(t *testing.T) {
	gen := &loopGen{rate: 50, accesses: 1}
	cfg := scriptConfig(&scriptGen{})
	cfg.Generator = gen
	cfg.WarmupMS = 500
	cfg.MeasureMS = 2000
	res, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Classes) != 0 {
		t.Fatalf("single-class run produced %d class reports", len(res.Classes))
	}
	if strings.Contains(res.Report(), "class ") {
		t.Fatal("single-class report grew class lines")
	}
}
