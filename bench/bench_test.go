package main

import (
	"bytes"
	"compress/gzip"
	"encoding/binary"
	"encoding/json"
	"flag"
	"maps"
	"os"
	"regexp"
	"runtime/pprof"
	"slices"
	"strconv"
	"testing"
	"time"
)

var update = flag.Bool("update", false, "regenerate testdata/expected.json from the current simulator")

// TestUpdateExpected regenerates the committed fingerprints: every input of
// every workload at seeds 1 and 2. Run it only when a change is meant to
// alter simulated output, alongside the experiments' goldens:
//
//	go test -run TestUpdateExpected -update
func TestUpdateExpected(t *testing.T) {
	if !*update {
		t.Skip("run with -update to regenerate testdata/expected.json")
	}
	ef := expectedFile{
		Note: "SHA-256 of each op's output (Result.Report() or the experiment's rendered text) " +
			"per seed, workload and op label, generated by TestUpdateExpected from the simulator " +
			"of the commit that introduced this benchmark, i.e. its parent's internal packages, which it left unchanged.",
		Seeds: map[string]map[string]map[string]string{},
	}
	for _, seed := range []int64{1, 2} {
		bySeed := map[string]map[string]string{}
		for _, w := range workloads() {
			op := w.setup(seed, nil)
			hashes := map[string]string{}
			for in := 0; in < w.inputs; in++ {
				r, err := op(in, nil)
				if err != nil {
					t.Fatalf("%s input %d: %v", w.name, in, err)
				}
				hashes[r.label] = fingerprint(r.text())
			}
			bySeed[w.name] = hashes
		}
		ef.Seeds[strconv.FormatInt(seed, 10)] = bySeed
	}
	data, err := json.MarshalIndent(ef, "", "  ")
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile("testdata/expected.json", append(data, '\n'), 0o644); err != nil {
		t.Fatal(err)
	}
}

// TestDCDiskDeterminism runs dc-disk's first op twice: both runs must
// render the same report, and it must match the committed fingerprint.
func TestDCDiskDeterminism(t *testing.T) {
	w, err := workloadByName("dc-disk")
	if err != nil {
		t.Fatal(err)
	}
	op := w.setup(1, nil)
	chk, err := newChecker(w.name, 1, "..")
	if err != nil {
		t.Fatal(err)
	}
	if len(chk.want) != w.inputs {
		t.Fatalf("expected.json has %d dc-disk fingerprints at seed 1, want %d", len(chk.want), w.inputs)
	}
	for run := 0; run < 2; run++ {
		r, err := op(0, nil)
		if err != nil {
			t.Fatal(err)
		}
		if err := chk.check(r); err != nil {
			t.Fatalf("run %d: %v", run, err)
		}
	}
}

func TestClassify(t *testing.T) {
	cases := []struct {
		stack []string
		want  string
	}{
		{[]string{"repro/internal/core.(*pdesBarrier).wait", "repro/internal/core.(*pdesState).run"}, "pdes"},
		{[]string{"runtime.procyield", "repro/internal/core.(*pdesBarrier).awaitEpoch.func1"}, "pdes"},
		{[]string{"repro/internal/core.pdesNVEMBus.Probe"}, "pdes"},
		{[]string{"repro/internal/core.newPDESBarrier"}, "pdes"},
		{[]string{"repro/internal/core.(*node).collect", "repro/internal/core.(*pdesState).run"}, "core"},
		{[]string{"runtime.gcDrain", "runtime.gcBgMarkWorker", "runtime.goexit"}, "gc"},
		{[]string{"math.archLog", "math.log", "repro/internal/rng.(*Stream).Exp", "repro/internal/workload.(*DebitCredit).Next"}, "rng"},
		{[]string{"runtime.mallocgc", "repro/internal/sim.(*calQueue).grow"}, "sim"},
		{[]string{"crypto/sha256.block", "main.fingerprint", "main.main"}, "bench"},
		{[]string{"repro/internal/costmodel.Table"}, "other"},
		{[]string{"runtime.futex", "runtime.notesleep", "runtime.stopm", "runtime.findRunnable", "runtime.schedule", "runtime.mstart"}, "sched"},
		{[]string{"runtime._ExternalCode"}, "other"},
		{nil, "other"},
	}
	for _, c := range cases {
		if got := classify(c.stack); got != c.want {
			t.Errorf("classify(%q) = %s, want %s", c.stack, got, c.want)
		}
	}
}

// TestDecodeProfile decodes a hand-encoded profile.proto with an inlined
// frame, a packed and an unpacked location list.
func TestDecodeProfile(t *testing.T) {
	field := func(b []byte, num int, v uint64) []byte {
		return binary.AppendUvarint(binary.AppendUvarint(b, uint64(num<<3)), v)
	}
	msg := func(b []byte, num int, data []byte) []byte {
		b = binary.AppendUvarint(b, uint64(num<<3|2))
		return append(binary.AppendUvarint(b, uint64(len(data))), data...)
	}
	var p []byte
	for _, s := range []string{"", "samples", "count", "cpu", "nanoseconds",
		"math.archLog", "repro/internal/rng.(*Stream).Exp", "runtime.gcBgMarkWorker"} {
		p = msg(p, 6, []byte(s))
	}
	p = msg(p, 1, field(field(nil, 1, 1), 2, 2))
	p = msg(p, 1, field(field(nil, 1, 3), 2, 4))
	for id := uint64(1); id <= 3; id++ {
		p = msg(p, 5, field(field(nil, 1, id), 2, id+4))
	}
	p = msg(p, 4, msg(msg(field(nil, 1, 1), 4, field(nil, 1, 1)), 4, field(nil, 1, 2)))
	p = msg(p, 4, msg(field(nil, 1, 2), 4, field(nil, 1, 3)))
	packed := func(vs ...uint64) []byte {
		var b []byte
		for _, v := range vs {
			b = binary.AppendUvarint(b, v)
		}
		return b
	}
	p = msg(p, 2, msg(msg(nil, 1, packed(1)), 2, packed(1, 10_000_000)))
	p = msg(p, 2, msg(field(nil, 1, 2), 2, packed(2, 20_000_000)))
	var gz bytes.Buffer
	zw := gzip.NewWriter(&gz)
	zw.Write(p)
	zw.Close()

	samples, err := decodeProfile(gz.Bytes())
	if err != nil {
		t.Fatal(err)
	}
	want := []stackSample{
		{[]string{"math.archLog", "repro/internal/rng.(*Stream).Exp"}, 10_000_000},
		{[]string{"runtime.gcBgMarkWorker"}, 20_000_000},
	}
	if len(samples) != len(want) {
		t.Fatalf("decoded %d samples, want %d", len(samples), len(want))
	}
	for i := range want {
		if !slices.Equal(samples[i].stack, want[i].stack) || samples[i].ns != want[i].ns {
			t.Errorf("sample %d = %+v, want %+v", i, samples[i], want[i])
		}
	}
	if l := classify(samples[0].stack); l != "rng" {
		t.Errorf("sample 0 in layer %s, want rng", l)
	}
}

// TestDecodeRuntimeProfile decodes a profile written by runtime/pprof.
func TestDecodeRuntimeProfile(t *testing.T) {
	var buf bytes.Buffer
	if err := pprof.StartCPUProfile(&buf); err != nil {
		t.Skip("CPU profiler busy:", err)
	}
	for start := time.Now(); time.Since(start) < 50*time.Millisecond; {
		fingerprint("spin")
	}
	pprof.StopCPUProfile()
	if _, err := decodeProfile(buf.Bytes()); err != nil {
		t.Fatal(err)
	}
}

func TestIQRMatchesPython(t *testing.T) {
	// statistics.quantiles(range(1, 11), n=4) == [2.75, 5.5, 8.25]
	if got := iqr([]float64{10, 9, 8, 7, 6, 5, 4, 3, 2, 1}); got != 5.5 {
		t.Errorf("iqr(1..10) = %v, want 5.5", got)
	}
	// statistics.quantiles([1, 2, 4], n=4) == [1.0, 2.0, 4.0]
	if got := iqr([]float64{1, 2, 4}); got != 3 {
		t.Errorf("iqr(1,2,4) = %v, want 3", got)
	}
}

func TestVerdict(t *testing.T) {
	steady := func(v float64, n int) []float64 {
		out := make([]float64, n)
		for i := range out {
			out[i] = v * (1 + 0.001*float64(i%3))
		}
		return out
	}
	cases := []struct {
		name         string
		a, b         []float64
		higherBetter bool
		want         string
	}{
		{"same", steady(100, 10), steady(100, 10), false, "unchanged"},
		{"single runs within bound", []float64{100}, []float64{105}, false, "unchanged"},
		{"lower-better 20% worse", steady(100, 3), steady(120, 3), false, "regressed"},
		{"higher-better 20% worse", steady(100, 3), steady(80, 3), true, "regressed"},
		{"ten pairs all better", steady(100, 10), steady(80, 10), false, "improved"},
		{"better beyond bound, few runs", steady(100, 3), steady(80, 3), false, "unresolved"},
		{"spread wider than bound", []float64{50, 100, 150, 200}, []float64{100, 100, 100, 100}, false, "unresolved"},
	}
	for _, c := range cases {
		if got := verdict(c.a, c.b, 0.1, c.higherBetter); got != c.want {
			t.Errorf("%s: verdict = %s, want %s", c.name, got, c.want)
		}
	}
}

// TestBenchmarkJSON checks BENCHMARK.json's shape and that it declares
// exactly the workloads this command runs and the metrics it prints.
func TestBenchmarkJSON(t *testing.T) {
	bf, err := loadBenchmark("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	nameRE := regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)
	seen := map[string]bool{}
	checkName := func(name string) {
		if !nameRE.MatchString(name) || seen[name] {
			t.Errorf("name %q is malformed or used twice", name)
		}
		seen[name] = true
	}
	if !slices.Equal(bf.Paths, []string{"bench"}) || bf.RunSeconds < 1 || bf.RunSeconds > 60 || len(bf.Command) == 0 {
		t.Errorf("paths %q, run_seconds %d, command %q", bf.Paths, bf.RunSeconds, bf.Command)
	}
	var names []string
	for _, w := range bf.Workloads {
		checkName(w.Name)
		names = append(names, w.Name)
		if ww, err := workloadByName(w.Name); err != nil || ww.why != w.Why {
			t.Errorf("workload %s: why differs from the code's or workload unknown (%v)", w.Name, err)
		}
	}
	var code []string
	for _, w := range workloads() {
		code = append(code, w.name)
	}
	if !slices.Equal(names, code) {
		t.Errorf("BENCHMARK.json workloads %q, command runs %q", names, code)
	}
	sample := &run{tr: newTracer(), layerNS: map[string]int64{}}
	for _, set := range []struct {
		declared []benchMetric
		specs    []metricSpec
		printed  map[string]float64
	}{
		{bf.EndToEnd, endToEndSpecs, endToEndMetrics(sample)},
		{bf.PerLayer, layerSpecs, layerMetrics(sample)},
	} {
		var declared, specs []string
		for _, m := range set.declared {
			checkName(m.Name)
			declared = append(declared, m.Name+" "+m.Unit)
			if m.Better != "higher" && m.Better != "lower" {
				t.Errorf("%s: better = %q", m.Name, m.Better)
			}
		}
		for _, s := range set.specs {
			specs = append(specs, s.name+" "+s.unit)
		}
		if !slices.Equal(declared, specs) {
			t.Errorf("declared metrics %q, code prints %q", declared, specs)
		}
		printed := slices.Sorted(maps.Keys(set.printed))
		var specNames []string
		for _, s := range set.specs {
			specNames = append(specNames, s.name)
		}
		if slices.Sort(specNames); !slices.Equal(printed, specNames) {
			t.Errorf("computed metrics %q, specs %q", printed, specNames)
		}
	}
	for _, m := range bf.EndToEnd {
		if m.Bound <= 0 || m.Bound > 0.25 {
			t.Errorf("%s: bound %v outside (0, 0.25]", m.Name, m.Bound)
		}
		if m.Name == "setup_s" && (m.Unit != "s" || m.Better != "lower") {
			t.Errorf("setup_s must be in s, lower better")
		}
	}
	if !seen["setup_s"] {
		t.Error("no setup_s metric")
	}
}
