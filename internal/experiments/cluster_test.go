package experiments

import (
	"testing"

	"repro/internal/core"
)

// scaleout256Point is the cluster.scaleout256 shared-NVEM point at 256
// nodes, window-scaled further down so running it at four worker counts
// stays affordable in CI.
func scaleout256Point(workers int) ClusterSetup {
	return ClusterSetup{Nodes: 256, AggregateRate: 50 * 256,
		MMBuffer: 500, SharedNVEM: 2000,
		GlobalLocks: true, PDES: true, PDESWorkers: workers,
		NVEMAccessDelayMS: 0.15, WindowScale: 0.05,
		DBControllers: 2, DBDisks: 12, LogControllers: 1, LogDisks: 2}
}

// TestScaleout256WorkerInvariance pins the cluster.scaleout256 golden's
// independence from PDESWorkers: the experiment leaves the worker count to
// the harness, which runs grid jobs beside each other on one worker each,
// and this test proves any other supported worker count renders the
// identical result — the golden is a property of the model, not of the
// host's parallelism.
func TestScaleout256WorkerInvariance(t *testing.T) {
	if testing.Short() {
		t.Skip("256-node sweep")
	}
	run := func(workers int) string {
		t.Helper()
		res, err := scaleout256Point(workers).Run(quick)
		if err != nil {
			t.Fatal(err)
		}
		return res.Report()
	}
	base := run(1)
	if base == "" {
		t.Fatal("empty report")
	}
	for _, workers := range []int{2, 4, 8} {
		if got := run(workers); got != base {
			t.Fatalf("PDESWorkers=%d diverged from the serial run:\n%s\nvs\n%s",
				workers, got, base)
		}
	}
}

// TestGridJobsRunPDESOnOneWorker: a grid that runs several jobs at once
// gives each PDES run left at the default worker count one worker, since
// the grid already keeps the cores busy. A grid that runs one job at a
// time, or a setup that names its worker count, keeps the count.
func TestGridJobsRunPDESOnOneWorker(t *testing.T) {
	for _, tc := range []struct{ parallelism, workers, want int }{
		{2, 0, 1},
		{1, 0, 0},
		{2, 3, 3},
	} {
		got := make([]int, 2)
		_, err := sweep(Options{Quick: true, Parallelism: tc.parallelism}, []string{"pdes"}, []float64{1, 2},
			func(_, col int, o Options) (*core.Result, error) {
				cfg, err := ClusterSetup{Nodes: 2, AggregateRate: 100, GlobalLocks: true,
					PDES: true, PDESWorkers: tc.workers}.Build(o)
				if err != nil {
					return nil, err
				}
				got[col] = cfg.PDES.Workers
				return &core.Result{}, nil
			})
		if err != nil {
			t.Fatal(err)
		}
		if got[0] != tc.want || got[1] != tc.want {
			t.Fatalf("parallelism %d, PDESWorkers %d: jobs ran with %v workers, want %d",
				tc.parallelism, tc.workers, got, tc.want)
		}
	}
}
