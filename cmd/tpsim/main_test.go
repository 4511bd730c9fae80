package main

import (
	"bytes"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"
)

// runCmd executes run() capturing both streams.
func runCmd(t *testing.T, args ...string) (code int, stdout, stderr string) {
	t.Helper()
	var out, errb bytes.Buffer
	code = run(args, &out, &errb)
	return code, out.String(), errb.String()
}

func TestRunExamples(t *testing.T) {
	code, out, _ := runCmd(t, "-example")
	if code != 0 || !strings.Contains(out, `"workload"`) {
		t.Fatalf("-example: code=%d out=%q", code, out)
	}
	code, out, _ = runCmd(t, "-example-cluster")
	if code != 0 || !strings.Contains(out, `"cluster"`) {
		t.Fatalf("-example-cluster: code=%d out=%q", code, out)
	}
	code, out, _ = runCmd(t, "-example-workload")
	if code != 0 || !strings.Contains(out, `"arrival"`) || !strings.Contains(out, `"admission"`) {
		t.Fatalf("-example-workload: code=%d out=%q", code, out)
	}
}

func TestRunUsageAndErrors(t *testing.T) {
	if code, _, _ := runCmd(t); code != 2 {
		t.Fatalf("no args: code=%d, want 2", code)
	}
	if code, _, stderr := runCmd(t, "-config", "/nonexistent.json"); code != 1 || stderr == "" {
		t.Fatalf("missing file: code=%d stderr=%q", code, stderr)
	}
	bad := filepath.Join(t.TempDir(), "bad.json")
	if err := os.WriteFile(bad, []byte(`{"bogus": true}`), 0o644); err != nil {
		t.Fatal(err)
	}
	if code, _, _ := runCmd(t, "-config", bad); code != 1 {
		t.Fatalf("bad config: code=%d, want 1", code)
	}
}

// TestRunFarFutureArrivals: at 1e-300 TPS the first arrival lies about
// 1e303 ms out, far past the run's windows, and the run still returns and
// reports no commits. The kernel's calendar queue used to clamp such an
// event's bucket id to math.MaxInt64, overflow its window end and scan
// empty buckets forever. The run gets its own goroutine, so a hang fails
// here instead of stalling the test binary until its timeout.
func TestRunFarFutureArrivals(t *testing.T) {
	cfg := strings.Replace(exampleConfig, `"rate": 200`, `"rate": 1e-300`, 1)
	path := filepath.Join(t.TempDir(), "far.json")
	if err := os.WriteFile(path, []byte(cfg), 0o644); err != nil {
		t.Fatal(err)
	}
	type result struct {
		code        int
		out, stderr string
	}
	done := make(chan result, 1)
	go func() {
		var out, errb bytes.Buffer
		code := run([]string{"-config", path}, &out, &errb)
		done <- result{code, out.String(), errb.String()}
	}()
	select {
	case r := <-done:
		if r.code != 0 || !strings.Contains(r.out, "(0 commits,") {
			t.Fatalf("code=%d stderr=%s\n%s", r.code, r.stderr, r.out)
		}
	case <-time.After(time.Minute):
		t.Fatal("a run whose only arrival lies 1e303 ms out did not return")
	}
}

// TestRunClusterEndToEnd drives the real CLI path over a small cluster
// file, checking the report carries the cluster's recovery lines.
func TestRunClusterEndToEnd(t *testing.T) {
	cfg := `{
	  "warmupMS": 1000, "measureMS": 3000,
	  "workload": {"kind": "debitcredit", "rate": 100},
	  "diskUnits": [
	    {"name": "db", "numControllers": 4, "contrDelayMS": 1.0,
	     "transDelayMS": 0.4, "numDisks": 32, "diskDelayMS": 15},
	    {"name": "log", "numControllers": 2, "contrDelayMS": 1.0,
	     "transDelayMS": 0.4, "numDisks": 8, "diskDelayMS": 5}
	  ],
	  "buffer": {
	    "bufferSize": 500,
	    "checkpointIntervalMS": 1000,
	    "partitions": [{"diskUnit": 0}, {"diskUnit": 0}, {"diskUnit": 0}],
	    "log": {"nvemResident": true}
	  },
	  "cluster": {
	    "numNodes": 2,
	    "globalLocks": true,
	    "timelineBucketMS": 1000,
	    "failure": {"node": 1, "crashAtMS": 1000, "rebootMS": 200}
	  }
	}`
	path := filepath.Join(t.TempDir(), "cluster.json")
	if err := os.WriteFile(path, []byte(cfg), 0o644); err != nil {
		t.Fatal(err)
	}
	code, out, stderr := runCmd(t, "-config", path)
	if code != 0 {
		t.Fatalf("code=%d stderr=%s", code, stderr)
	}
	for _, want := range []string{"node 0:", "node 1:", "recovery:", "commit timeline"} {
		if !strings.Contains(out, want) {
			t.Fatalf("report misses %q:\n%s", want, out)
		}
	}
}

// TestRunPDESSharedNVEMEndToEnd drives the CLI over a parallel cluster
// with a shared NVEM cache: legal with a positive nvemAccessDelayMS, and
// rejected with a clear error when the delay is left at zero.
func TestRunPDESSharedNVEMEndToEnd(t *testing.T) {
	build := func(delayLine string) string {
		return `{
	  "warmupMS": 500, "measureMS": 1500,
	  "workload": {"kind": "debitcredit", "rate": 200},
	  "diskUnits": [
	    {"name": "db", "numControllers": 4, "contrDelayMS": 1.0,
	     "transDelayMS": 0.4, "numDisks": 32, "diskDelayMS": 15},
	    {"name": "log", "numControllers": 2, "contrDelayMS": 1.0,
	     "transDelayMS": 0.4, "numDisks": 8, "diskDelayMS": 5}
	  ],
	  "buffer": {
	    "bufferSize": 500,
	    "nvemCacheSize": 1000,
	    "partitions": [{"diskUnit": 0, "nvemCache": true},
	                   {"diskUnit": 0, "nvemCache": true},
	                   {"diskUnit": 0, "nvemCache": true}],
	    "log": {"nvemResident": true}
	  },
	  "cluster": {
	    "numNodes": 2,
	    "globalLocks": true,
	    "sharedNVEMCache": true,` + delayLine + `
	    "pdes": {"workers": 2}
	  }
	}`
	}
	path := filepath.Join(t.TempDir(), "pdes-shared.json")
	if err := os.WriteFile(path, []byte(build(`"nvemAccessDelayMS": 0.15,`)), 0o644); err != nil {
		t.Fatal(err)
	}
	code, out, stderr := runCmd(t, "-config", path)
	if code != 0 {
		t.Fatalf("code=%d stderr=%s", code, stderr)
	}
	for _, want := range []string{"node 0:", "node 1:"} {
		if !strings.Contains(out, want) {
			t.Fatalf("report misses %q:\n%s", want, out)
		}
	}

	// Same file without the delay: the validation error must name the knob.
	if err := os.WriteFile(path, []byte(build("")), 0o644); err != nil {
		t.Fatal(err)
	}
	code, _, stderr = runCmd(t, "-config", path)
	if code != 1 {
		t.Fatalf("zero-delay shared cache under PDES: code=%d, want 1", code)
	}
	if !strings.Contains(stderr, "NVEMAccessDelayMS") {
		t.Fatalf("error does not name the missing knob: %q", stderr)
	}
}
