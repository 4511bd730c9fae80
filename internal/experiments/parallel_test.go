package experiments

import (
	"errors"
	"runtime"
	"strings"
	"sync"
	"testing"

	"repro/internal/core"
	"repro/internal/rng"
)

// wideParallelism oversubscribes the pool relative to the host so the
// concurrent path is exercised even on single-core CI runners.
func wideParallelism() int {
	p := 2 * runtime.GOMAXPROCS(0)
	if p < 4 {
		p = 4
	}
	return p
}

func TestRunPoolRunsEveryJobOnce(t *testing.T) {
	for _, workers := range []int{1, 2, 7, 64} {
		const n = 100
		counts := make([]int, n)
		runPool(workers, n, func(i int) { counts[i]++ })
		for i, c := range counts {
			if c != 1 {
				t.Fatalf("workers=%d: job %d ran %d times", workers, i, c)
			}
		}
	}
}

func TestRunPoolZeroJobs(t *testing.T) {
	runPool(8, 0, func(i int) { t.Fatalf("job %d must not run", i) })
}

// TestGridSeedDerivation: replication r of every cell must run with
// rng.Derive(base, r), independent of worker count.
func TestGridSeedDerivation(t *testing.T) {
	for _, workers := range []int{1, 8} {
		o := Options{Seed: 11, Quick: true, Replications: 3, Parallelism: workers}
		var mu sync.Mutex
		seen := map[int64]int{}
		cells, err := sweep(o, []string{"a", "b"}, []float64{1, 2}, func(_, _ int, o Options) (*core.Result, error) {
			mu.Lock()
			seen[o.Seed]++
			mu.Unlock()
			return &core.Result{Commits: o.Seed}, nil
		})
		if err != nil {
			t.Fatal(err)
		}
		for r := 0; r < 3; r++ {
			want := rng.Derive(11, r)
			if seen[want] != 4 {
				t.Errorf("workers=%d: seed %d used %d times, want once per cell (4)",
					workers, want, seen[want])
			}
		}
		// Replication order inside each cell is preserved.
		for r := 0; r < 2; r++ {
			for c := 0; c < 2; c++ {
				for rep, res := range cells[r][c].results {
					if got, want := res.Commits, rng.Derive(11, rep); got != want {
						t.Errorf("cell(%d,%d) rep %d ran with seed %d, want %d", r, c, rep, got, want)
					}
				}
			}
		}
	}
}

// TestGridFirstErrorDeterministic: the reported error is the lowest-indexed
// failure regardless of scheduling, named by its row label and x value, or
// by its row label alone when the sweep has no x, and it wraps the run's
// own error.
func TestGridFirstErrorDeterministic(t *testing.T) {
	o := Options{Quick: true, Replications: 2, Parallelism: 8}
	_, err := sweep(o, []string{"row", "other"}, []float64{10, 20, 30}, func(r, c int, _ Options) (*core.Result, error) {
		if r == 1 || c >= 1 {
			return nil, errors.New("boom-" + string(rune('0'+c)))
		}
		return &core.Result{}, nil
	})
	if err == nil || err.Error() != "row @20: boom-1" {
		t.Fatalf("got error %v, want row @20: boom-1", err)
	}

	boom := errors.New("boom")
	_, err = sweep(o, []string{"ok", "row", "late"}, nil, func(r, _ int, _ Options) (*core.Result, error) {
		switch r {
		case 0:
			return &core.Result{}, nil
		case 1:
			return nil, boom
		}
		return nil, errors.New("late")
	})
	if err == nil || err.Error() != "row: boom" || !errors.Is(err, boom) {
		t.Fatalf("got error %v, want row: boom wrapping the run's error", err)
	}
}

// TestDeterministicAcrossParallelism is the determinism regression gate:
// every experiment in the registry renders byte-identical output between a
// serial run and an oversubscribed parallel run at the same seed (which also
// covers run-to-run determinism, since the two runs share nothing). The
// experiments run side by side, so a serial pass does not leave cores idle.
func TestDeterministicAcrossParallelism(t *testing.T) {
	if testing.Short() {
		t.Skip("full registry sweep")
	}
	serial := Options{Quick: true, Seed: 7, Parallelism: 1}
	parallel := Options{Quick: true, Seed: 7, Parallelism: wideParallelism()}
	for _, e := range All() {
		t.Run(e.Name, func(t *testing.T) {
			t.Parallel()
			a, err := e.Run(serial)
			if err != nil {
				t.Fatal(err)
			}
			b, err := e.Run(parallel)
			if err != nil {
				t.Fatal(err)
			}
			if a != b {
				t.Errorf("output differs between Parallelism 1 and %d:\n--- serial ---\n%s\n--- parallel ---\n%s",
					parallel.Parallelism, a, b)
			}
		})
	}
}

// TestDeterministicReplicated: replicated runs (mean ± CI output) are also
// byte-identical across worker counts.
func TestDeterministicReplicated(t *testing.T) {
	if testing.Short() {
		t.Skip("simulation test")
	}
	serial := Options{Quick: true, Seed: 3, Replications: 3, Parallelism: 1}
	parallel := serial
	parallel.Parallelism = wideParallelism()
	fa, err := Fig41(serial)
	if err != nil {
		t.Fatal(err)
	}
	fb, err := Fig41(parallel)
	if err != nil {
		t.Fatal(err)
	}
	a, b := fa.Render(), fb.Render()
	if a != b {
		t.Errorf("replicated output differs across parallelism:\n%s\nvs\n%s", a, b)
	}
	if !strings.Contains(a, "±") {
		t.Errorf("replicated figure missing ± columns:\n%s", a)
	}
}

// TestReplicationsWidenNoCIAtOne: a single replication must not change the
// rendered output format (no ± columns).
func TestReplicationsWidenNoCIAtOne(t *testing.T) {
	if testing.Short() {
		t.Skip("simulation test")
	}
	fig, err := AblationMigrationModes(Options{Quick: true, Seed: 5, Parallelism: wideParallelism()})
	if err != nil {
		t.Fatal(err)
	}
	if out := fig.Render(); strings.Contains(out, "±") {
		t.Errorf("single-replication figure must not render ±:\n%s", out)
	}
}

// TestConcurrentExperimentsRace is the race-detector smoke test: distinct
// experiments sharing the process (and the lazily built real-life trace) run
// concurrently, each fanning out its own worker pool.
func TestConcurrentExperimentsRace(t *testing.T) {
	if testing.Short() {
		t.Skip("simulation test")
	}
	o := Options{Quick: true, Seed: 9, Parallelism: 2}
	var wg sync.WaitGroup
	errs := make([]error, 2)
	wg.Add(2)
	go func() {
		defer wg.Done()
		_, errs[0] = AblationDestagePolicy(o)
	}()
	go func() {
		defer wg.Done()
		// Trace-driven: touches the shared sync.Once real-life trace.
		_, errs[1] = AblationMigrationModes(o)
	}()
	wg.Wait()
	for i, err := range errs {
		if err != nil {
			t.Errorf("concurrent experiment %d: %v", i, err)
		}
	}
}
