package experiments

import (
	"flag"
	"os"
	"path/filepath"
	"regexp"
	"strings"
	"testing"
)

var updateGolden = flag.Bool("update", false, "regenerate golden experiment outputs")

// TestGoldenOutputs executes the complete registry in quick mode — the same
// code paths cmd/experiments and bench_test.go use — and locks each rendered
// output to a byte-exact golden file under testdata/golden/. The corpus is
// the simulator's regression contract: any change to the event kernel, the
// engine, the storage models or the render layer that alters even one byte
// of one experiment fails here. Key landmark fragments are asserted too, so
// a wholesale -update that wipes out a series is still caught.
//
// Regenerate with:
//
//	go test ./internal/experiments -run TestGoldenOutputs -update
//
// and review the diff like any other code change. The corpus uses the
// package's canonical quick options (seed 1, single replication);
// parallelism is irrelevant because rendered output is byte-identical for
// every worker count (TestDeterministicAcrossParallelism guards that).
func TestGoldenOutputs(t *testing.T) {
	if testing.Short() {
		t.Skip("full registry sweep")
	}
	wantFragments := map[string][]string{
		"fig4.1":                     {"log-single-disk", "log-nvem"},
		"fig4.2":                     {"disk", "ssd", "nvem-resident", "mm-resident"},
		"fig4.3":                     {"FORCE:disk", "NOFORCE:nvem-resident"},
		"fig4.4":                     {"mm-only", "nvem-cache-1000"},
		"fig4.5":                     {"Fig 4.5a", "Fig 4.5b", "nvem-cache"},
		"fig4.6":                     {"mm-only", "ssd", "nvem-resident"},
		"fig4.7":                     {"vol-disk-cache", "nvem-cache"},
		"fig4.8":                     {"disk:page-locks", "nvem:page-locks"},
		"table4.2a":                  {"main memory", "NVEM cache 500"},
		"table4.2b":                  {"main memory", "FORCE"},
		"table2.1":                   {"extended memory", "measured response", "break-even-crashes"},
		"ablation.group-commit":      {"group-commit"},
		"ablation.async-replacement": {"async-replacement"},
		"ablation.migration-modes":   {"nvem-add-hit-pct"},
		"ablation.destage-policy":    {"immediate", "deferred"},
		"ablation.clustering":        {"clustered", "unclustered"},
		"recovery.restart":           {"log-disk / db-disk", "log-nvem / db-ssd", "restart-ms", "redo-pages"},
		"recovery.checkpoint":        {"log-disk", "log-nvem", "restart time"},
		"recovery.availability":      {"shared-nvem", "private-nvem", "Restart breakdown", "restart-ms"},
		"cluster.scaleout":           {"shared-nvem", "disk-only", "shared-nvem:nvem"},
		"cluster.scaleout64":         {"private-nvem", "disk-only", "committed TPS"},
		"cluster.scaleout256":        {"shared-nvem", "private-nvem", "committed TPS"},
		"workload.burstiness":        {"disk", "log-nvem", "db+log-nvem", "burst-state rate multiplier"},
		"workload.spike-crash":       {"admission-off", "admission-on", "survivor-resp-ms", "shed"},
		"workload.diurnal":           {"log-single-disk", "log-nvem", "amplitude"},
		"workload.skew":              {"uniform", "zipf-0.95", "hotspot-90/0.01", "NVEM cache [pages]"},
		"workload.multiclass":        {"short-update", "read-mostly", "batch-scan", "Per-class accounting"},
		"workload.closedloop":        {"think-50ms", "think-500ms", "terminals", "waiting for an MPL slot"},
		"workload.replay":            {"poisson", "trace-replay", "p95-ms"},
		"cluster.allocation":         {"shared-nvem-cache", "private-nvem-caches", "disk-only"},
		"cluster.locking":            {"local:page-locks", "global:object-locks", "messages per committed tx"},
	}
	checkCorpusFiles(t)
	for _, e := range All() {
		e := e
		t.Run(e.Name, func(t *testing.T) {
			t.Parallel()
			out, err := e.Run(quick)
			if err != nil {
				t.Fatalf("%s: %v", e.Name, err)
			}
			if len(out) == 0 {
				t.Fatalf("%s produced no output", e.Name)
			}
			for _, frag := range wantFragments[e.Name] {
				if !strings.Contains(out, frag) {
					t.Errorf("%s output missing %q:\n%s", e.Name, frag, out)
				}
			}
			path := filepath.Join("testdata", "golden", e.Name+".txt")
			if *updateGolden {
				if err := os.WriteFile(path, []byte(out), 0o644); err != nil {
					t.Fatal(err)
				}
				return
			}
			want, err := os.ReadFile(path)
			if err != nil {
				t.Fatalf("missing golden file (run with -update to create): %v", err)
			}
			if string(want) != out {
				t.Errorf("%s output diverged from golden file %s\n--- got ---\n%s\n--- want ---\n%s",
					e.Name, path, out, want)
			}
		})
	}
}

// checkCorpusFiles keeps testdata/golden/ and the registry in lockstep: an
// experiment that was renamed or removed must not leave a stale golden file
// behind. Under -update the directory is created and stale files are pruned.
func checkCorpusFiles(t *testing.T) {
	t.Helper()
	dir := filepath.Join("testdata", "golden")
	known := make(map[string]bool)
	for _, e := range All() {
		known[e.Name+".txt"] = true
	}
	if *updateGolden {
		if err := os.MkdirAll(dir, 0o755); err != nil {
			t.Fatal(err)
		}
	}
	entries, err := os.ReadDir(dir)
	if err != nil {
		t.Fatalf("golden corpus missing (run with -update to create): %v", err)
	}
	for _, ent := range entries {
		if known[ent.Name()] {
			continue
		}
		if *updateGolden {
			if err := os.Remove(filepath.Join(dir, ent.Name())); err != nil {
				t.Fatal(err)
			}
			continue
		}
		t.Errorf("stale golden file %s: no experiment %q in the registry (run with -update to prune)",
			filepath.Join(dir, ent.Name()), strings.TrimSuffix(ent.Name(), ".txt"))
	}
}

// replicatedGolden lists the experiments whose replicated output
// (Replications 2) is pinned under testdata/golden-reps2/. Together they
// cover every way the render layer reports a replication mean ± CI: CI
// series on two figures (fig4.5), table cells (recovery.restart), commit
// timelines (recovery.availability), per-class tables
// (workload.multiclass), a figure and a table from one grid
// (workload.closedloop) and fmtMeanCI text (table2.1,
// ablation.destage-policy).
var replicatedGolden = []string{
	"fig4.5", "table2.1", "recovery.restart", "recovery.availability",
	"workload.multiclass", "workload.closedloop", "ablation.destage-policy",
}

// TestGoldenReplicated locks the replicated output of replicatedGolden to
// byte-exact files, the way TestGoldenOutputs locks the single-run corpus.
// Regenerate with:
//
//	go test ./internal/experiments -run TestGoldenReplicated -update
func TestGoldenReplicated(t *testing.T) {
	if testing.Short() {
		t.Skip("replicated simulation runs")
	}
	o := Options{Quick: true, Seed: 3, Replications: 2, Parallelism: 2}
	dir := filepath.Join("testdata", "golden-reps2")
	if *updateGolden {
		if err := os.MkdirAll(dir, 0o755); err != nil {
			t.Fatal(err)
		}
	}
	for _, name := range replicatedGolden {
		t.Run(name, func(t *testing.T) {
			es, err := Match(regexp.QuoteMeta(name))
			if err != nil {
				t.Fatal(err)
			}
			out, err := es[0].Run(o)
			if err != nil {
				t.Fatalf("%s: %v", name, err)
			}
			if !strings.Contains(out, "±") {
				t.Errorf("%s: replicated output carries no ±:\n%s", name, out)
			}
			path := filepath.Join(dir, name+".txt")
			if *updateGolden {
				if err := os.WriteFile(path, []byte(out), 0o644); err != nil {
					t.Fatal(err)
				}
				return
			}
			want, err := os.ReadFile(path)
			if err != nil {
				t.Fatalf("missing golden file (run with -update to create): %v", err)
			}
			if string(want) != out {
				t.Errorf("%s output diverged from golden file %s\n--- got ---\n%s\n--- want ---\n%s",
					name, path, out, want)
			}
		})
	}
}
