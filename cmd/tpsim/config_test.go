package main

import (
	"encoding"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"strings"
	"testing"

	tpsim "repro"
)

// TestExampleConfigLoadsAndRuns: every -example config loads and, with
// its windows cut to 500/1500 ms, commits on every node. Offsets into the
// measurement window (a spike, a crash) shrink with it.
func TestExampleConfigLoadsAndRuns(t *testing.T) {
	for _, ex := range examples {
		t.Run(ex.name, func(t *testing.T) {
			cfg, cluster, err := load(strings.NewReader(ex.json))
			if err != nil {
				t.Fatal(err)
			}
			if cluster != nil {
				cfg = cluster.Base
			}
			f := 1500 / cfg.MeasureMS
			cfg.WarmupMS, cfg.MeasureMS = 500, 1500
			cfg.Arrival.SpikeAtMS *= f
			cfg.Arrival.SpikeDurMS *= f
			if cluster == nil {
				res, err := tpsim.Run(cfg)
				if err != nil {
					t.Fatal(err)
				}
				if res.Commits == 0 {
					t.Fatal("no commits")
				}
				return
			}
			cluster.Base = cfg
			cluster.Failure.CrashAtMS *= f
			res, err := tpsim.RunCluster(*cluster)
			if err != nil {
				t.Fatal(err)
			}
			for i, n := range res.Nodes {
				if n.Commits == 0 {
					t.Errorf("node %d: no commits", i)
				}
			}
		})
	}
}

// TestEnumNamesRoundTrip: each enum the file names decodes from the
// String() name of every value, from zero up to the first that prints the
// "Type(n)" fallback, and rejects "" and an unknown name.
func TestEnumNamesRoundTrip(t *testing.T) {
	for _, tc := range []struct {
		name  string
		check func(*testing.T)
	}{
		{"Granularity", roundTrip[tpsim.Granularity]},
		{"DiskUnitType", roundTrip[tpsim.DiskUnitType]},
		{"MigrateMode", roundTrip[tpsim.MigrateMode]},
		{"AccessKind", roundTrip[tpsim.AccessKind]},
		{"ArrivalKind", roundTrip[tpsim.ArrivalKind]},
	} {
		t.Run(tc.name, tc.check)
	}
}

func roundTrip[E interface {
	~uint8 | ~int
	fmt.Stringer
}, P interface {
	*E
	encoding.TextUnmarshaler
}](t *testing.T) {
	for v := E(0); !strings.HasSuffix(v.String(), fmt.Sprintf("(%d)", int(v))); v++ {
		var got E
		if err := P(&got).UnmarshalText([]byte(v.String())); err != nil || got != v {
			t.Errorf("%q decodes to %v, %v; want %v", v.String(), got, err, v)
		}
	}
	for _, name := range []string{"", "bogus"} {
		var got E
		if err := P(&got).UnmarshalText([]byte(name)); err == nil {
			t.Errorf("%q decodes to %v; want an error", name, got)
		}
	}
}

func TestLoadRejectsUnknownFields(t *testing.T) {
	_, _, err := load(strings.NewReader(`{"bogus": 1}`))
	if err == nil {
		t.Fatal("unknown field must error")
	}
}

func TestLoadRejectsBadValues(t *testing.T) {
	cases := map[string]string{
		"bad cc":        `{"workload":{"kind":"debitcredit","rate":10},"ccModes":["zebra"],"diskUnits":[{"name":"d","numControllers":1,"contrDelayMS":1,"numDisks":1,"diskDelayMS":15}],"buffer":{"bufferSize":100,"partitions":[{},{},{}],"log":{}}}`,
		"bad unit type": `{"workload":{"kind":"debitcredit","rate":10},"diskUnits":[{"name":"d","type":"floppy","numControllers":1,"contrDelayMS":1,"numDisks":1,"diskDelayMS":15}],"buffer":{"bufferSize":100,"partitions":[{},{},{}],"log":{}}}`,
		"bad wl kind":   `{"workload":{"kind":"quantum","rate":10}}`,
		"bad mode":      `{"workload":{"kind":"debitcredit","rate":10},"diskUnits":[{"name":"d","numControllers":1,"contrDelayMS":1,"numDisks":1,"diskDelayMS":15}],"buffer":{"bufferSize":100,"partitions":[{"nvemCacheMode":"sideways"},{},{}],"log":{}}}`,
		"mismatch":      `{"workload":{"kind":"debitcredit","rate":10},"diskUnits":[{"name":"d","numControllers":1,"contrDelayMS":1,"numDisks":1,"diskDelayMS":15}],"buffer":{"bufferSize":100,"partitions":[{}],"log":{}}}`,
	}
	// A negative engine parameter is an error; 0 keeps the default.
	const rest = `"workload":{"kind":"debitcredit","rate":10},"diskUnits":[{"name":"d","numControllers":1,"contrDelayMS":1,"numDisks":1,"diskDelayMS":15}],"buffer":{"bufferSize":100,"partitions":[{},{},{}],"log":{}}}`
	if cfg, _, err := load(strings.NewReader(`{"mpl":0,"measureMS":0,` + rest)); err != nil ||
		cfg.MPL != tpsim.Defaults().MPL || cfg.MeasureMS != tpsim.Defaults().MeasureMS {
		t.Fatalf("zero values did not keep the defaults: err %v", err)
	}
	zeroWorkload := strings.Replace(`{`+rest, `"rate":10`, `"rate":10,"branches":0,"accounts":0`, 1)
	if cfg, _, err := load(strings.NewReader(zeroWorkload)); err != nil ||
		cfg.Partitions[0].NumObjects != tpsim.DefaultDebitCreditConfig(10).NumAccounts {
		t.Fatalf("zero branches and accounts did not keep the defaults: err %v", err)
	}
	for _, field := range []string{"mpl", "numCPU", "mips", "instrBOT", "instrOR", "instrEOT", "instrIO",
		"instrNVEM", "warmupMS", "measureMS", "nvemServers", "nvemDelayMS"} {
		cases["negative "+field] = fmt.Sprintf(`{"%s":-1,%s`, field, rest)
	}
	for _, field := range []string{"branches", "accounts"} {
		cases["negative workload."+field] = strings.Replace(`{`+rest, `"rate":10`, `"rate":10,"`+field+`":-5`, 1)
	}
	for name, in := range cases {
		if _, _, err := load(strings.NewReader(in)); err == nil {
			t.Errorf("%s: expected error", name)
		}
	}
}

func TestSyntheticWorkloadFromJSON(t *testing.T) {
	in := `{
	  "workload": {"kind": "synthetic", "rate": 50, "synthetic": {
	    "Partitions": [{"Name": "p", "NumObjects": 1000, "BlockFactor": 10}],
	    "TxTypes": [{"Name": "t", "TxSize": 5, "WriteProb": 0.5, "RefRow": [1]}]
	  }},
	  "ccModes": ["object"],
	  "diskUnits": [{"name": "d", "numControllers": 2, "contrDelayMS": 1, "transDelayMS": 0.4, "numDisks": 8, "diskDelayMS": 15}],
	  "buffer": {"bufferSize": 200, "partitions": [{"diskUnit": 0}], "log": {"diskUnit": 0}}
	}`
	cfg, _, err := load(strings.NewReader(in))
	if err != nil {
		t.Fatal(err)
	}
	if err := cfg.Validate(); err != nil {
		t.Fatal(err)
	}
	if cfg.CCModes[0] != tpsim.ObjectLevel {
		t.Fatal("cc mode not applied")
	}
	// Rate filled in from workload.rate.
	_, rate := cfg.Generator.TypeInfo(0)
	if rate != 50 {
		t.Fatalf("rate = %v", rate)
	}

	// A partition's access kind is written by name, as in workload.access.
	skewed := strings.Replace(in, `"BlockFactor": 10}`, `"BlockFactor": 10, "Access": {"Kind": "zipf", "Theta": 0.8}}`, 1)
	cfg, _, err = load(strings.NewReader(skewed))
	if err != nil {
		t.Fatal(err)
	}
	if a := cfg.Partitions[0].Access; a.Kind != tpsim.AccessZipf || a.Theta != 0.8 {
		t.Fatalf("partition access = %+v", a)
	}
}

func TestTraceWorkloadFromJSON(t *testing.T) {
	// Missing trace file must error cleanly.
	in := `{"workload": {"kind": "trace", "rate": 10, "traceFile": "/nonexistent.trace"}}`
	if _, _, err := load(strings.NewReader(in)); err == nil {
		t.Fatal("missing trace file must error")
	}
}

// TestTraceClusterSharesOneTrace: a trace cluster reads its trace file
// once. Nodes 1..n-1 replay rewound copies of node 0's source at the same
// even share of the rate, so every node's first transaction is the
// trace's first, down to its access array.
func TestTraceClusterSharesOneTrace(t *testing.T) {
	path := filepath.Join(t.TempDir(), "tiny.trace")
	tr := "TPSIM-TRACE 1\nFILES 1\nFILE 0 100\nTX 0 2\nR 0 1\nW 0 2\nTX 0 1\nR 0 3\nEND\n"
	if err := os.WriteFile(path, []byte(tr), 0o644); err != nil {
		t.Fatal(err)
	}
	in := fmt.Sprintf(`{"workload": {"kind": "trace", "rate": 30, "traceFile": %q},
	  "diskUnits": [{"name": "d", "numControllers": 1, "contrDelayMS": 1, "numDisks": 4, "diskDelayMS": 15}],
	  "buffer": {"bufferSize": 50, "partitions": [{}], "log": {}},
	  "cluster": {"numNodes": 3}}`, path)
	_, cluster, err := load(strings.NewReader(in))
	if err != nil {
		t.Fatal(err)
	}
	if err := cluster.Validate(); err != nil {
		t.Fatal(err)
	}
	first := cluster.Generators[0].Next(0, nil)
	for i, g := range cluster.Generators {
		if _, rate := g.TypeInfo(0); rate != 10 {
			t.Errorf("node %d rate = %v, want 10", i, rate)
		}
		if i == 0 {
			continue
		}
		if tx := g.Next(0, nil); len(tx.Accesses) != 2 || &tx.Accesses[0] != &first.Accesses[0] {
			t.Errorf("node %d's first transaction does not share node 0's access array", i)
		}
	}
}

// TestClusterConfigLoadsAndRuns: the example cluster configuration
// parses into a ClusterConfig — node count, shared cache, locking,
// failure injection — and the run commits on every node, crashes
// node 0 and reports its recovery.
func TestClusterConfigLoadsAndRuns(t *testing.T) {
	base, cluster, err := load(strings.NewReader(exampleClusterConfig))
	if err != nil {
		t.Fatal(err)
	}
	if cluster == nil {
		t.Fatal("no cluster configuration")
	}
	if cluster.NumNodes != 4 || !cluster.SharedNVEMCache || !cluster.GlobalLocks {
		t.Fatalf("cluster shape: %+v", cluster)
	}
	if !cluster.Failure.Enabled || cluster.Failure.Node != 0 || cluster.Failure.CrashAtMS != 4300 {
		t.Fatalf("failure not wired: %+v", cluster.Failure)
	}
	if cluster.TimelineBucketMS != 1000 {
		t.Fatalf("timeline bucket = %v", cluster.TimelineBucketMS)
	}
	if base.Buffer.CheckpointIntervalMS != 2500 {
		t.Fatalf("checkpoint interval = %v", base.Buffer.CheckpointIntervalMS)
	}
	if len(cluster.Generators) != 4 {
		t.Fatalf("%d generators", len(cluster.Generators))
	}
	// The aggregate rate splits evenly over the nodes.
	var rate float64
	for i := 0; i < cluster.Generators[0].NumTypes(); i++ {
		_, r := cluster.Generators[0].TypeInfo(i)
		rate += r
	}
	if rate != 100 {
		t.Fatalf("per-node rate = %v, want 100", rate)
	}
	if err := cluster.Validate(); err != nil {
		t.Fatal(err)
	}

	res, err := tpsim.RunCluster(*cluster)
	if err != nil {
		t.Fatal(err)
	}
	if res.Cluster.Commits == 0 {
		t.Fatal("no commits")
	}
	if res.Cluster.Restart == nil {
		t.Fatal("no restart report despite failure injection")
	}
	if len(res.Cluster.Timeline) == 0 || len(res.Cluster.CrashedTimeline) == 0 {
		t.Fatal("no commit timelines")
	}
	if len(res.Nodes) != 4 {
		t.Fatalf("%d node results", len(res.Nodes))
	}
}

// TestWorkloadExampleLoadsAndRuns: the spike-crash example parses — spike
// arrival process, crash-aligned failure, admission controller — and a
// shortened run sheds rerouted arrivals while the survivors keep
// committing.
func TestWorkloadExampleLoadsAndRuns(t *testing.T) {
	base, cluster, err := load(strings.NewReader(exampleWorkloadConfig))
	if err != nil {
		t.Fatal(err)
	}
	if cluster == nil {
		t.Fatal("no cluster configuration")
	}
	if base.Arrival.Kind != tpsim.ArrivalSpike {
		t.Fatalf("arrival kind = %v, want spike", base.Arrival.Kind)
	}
	if base.Arrival.SpikeFactor != 5 || base.Arrival.SpikeAtMS != 3000 || base.Arrival.SpikeDurMS != 5000 {
		t.Fatalf("spike parameters not wired: %+v", base.Arrival)
	}
	if base.Arrival.SpikeAtMS != cluster.Failure.CrashAtMS {
		t.Fatalf("example spike (%v) not aligned with the crash (%v)",
			base.Arrival.SpikeAtMS, cluster.Failure.CrashAtMS)
	}
	if !cluster.Admission.Enabled || cluster.Admission.QueueFactor != 0.25 {
		t.Fatalf("admission not wired: %+v", cluster.Admission)
	}
	res, err := tpsim.RunCluster(*cluster)
	if err != nil {
		t.Fatal(err)
	}
	if res.Cluster.Commits == 0 {
		t.Fatal("no commits")
	}
	if res.Cluster.Shed == 0 {
		t.Fatal("spike-crash example shed nothing")
	}
	if res.Cluster.SurvivorRespMean == 0 {
		t.Fatal("no survivor response time")
	}
	if !strings.Contains(res.Cluster.Report(), "admission control:") {
		t.Fatalf("report missing admission line:\n%s", res.Cluster.Report())
	}
}

// TestArrivalConfigFromJSON covers the arrival-section parsing for every
// kind plus its error paths.
func TestArrivalConfigFromJSON(t *testing.T) {
	prefix := `{"workload":{"kind":"debitcredit","rate":40,"arrival":`
	suffix := `},
	  "diskUnits":[{"name":"d","numControllers":1,"contrDelayMS":1,"numDisks":4,"diskDelayMS":15}],
	  "buffer":{"bufferSize":100,"partitions":[{},{},{}],"log":{}}}`
	good := map[string]tpsim.ArrivalKind{
		`{"kind":"poisson"}`: tpsim.ArrivalPoisson,
		`{}`:                 tpsim.ArrivalPoisson,
		`{"kind":"mmpp","burstFactor":4,"burstFrac":0.1}`:     tpsim.ArrivalMMPP,
		`{"kind":"diurnal","amplitude":0.8,"periodMS":10000}`: tpsim.ArrivalDiurnal,
		`{"kind":"spike","spikeFactor":3,"spikeDurMS":2000}`:  tpsim.ArrivalSpike,
	}
	for in, kind := range good {
		cfg, _, err := load(strings.NewReader(prefix + in + suffix))
		if err != nil {
			t.Errorf("%s: %v", in, err)
			continue
		}
		if cfg.Arrival.Kind != kind {
			t.Errorf("%s: kind %v, want %v", in, cfg.Arrival.Kind, kind)
		}
		if err := cfg.Validate(); err != nil {
			t.Errorf("%s: %v", in, err)
		}
	}
	bad := []string{
		`{"kind":"fractal"}`,
		`{"kind":"mmpp","burstFactor":0.5,"burstFrac":0.1}`,
		`{"kind":"mmpp","burstFactor":20,"burstFrac":0.1}`,
		`{"kind":"diurnal","amplitude":1.5,"periodMS":1000}`,
		`{"kind":"spike","spikeFactor":3}`,
	}
	for _, in := range bad {
		if _, _, err := load(strings.NewReader(prefix + in + suffix)); err == nil {
			t.Errorf("%s: expected error", in)
		}
	}
}

// TestClusterConfigRejectsBadValues covers cluster-section validation.
func TestClusterConfigRejectsBadValues(t *testing.T) {
	min := `"workload":{"kind":"debitcredit","rate":40},
	  "diskUnits":[{"name":"d","numControllers":1,"contrDelayMS":1,"numDisks":4,"diskDelayMS":15}],
	  "buffer":{"bufferSize":100,"partitions":[{},{},{}],"log":{}}`
	cases := map[string]string{
		"zero nodes":   `{` + min + `, "cluster": {"numNodes": 0}}`,
		"bad failure":  `{` + min + `, "cluster": {"numNodes": 2, "failure": {"node": 9, "crashAtMS": 100}}}`,
		"shared nvem0": `{` + min + `, "cluster": {"numNodes": 2, "sharedNVEMCache": true}}`,
	}
	for name, in := range cases {
		_, cluster, err := load(strings.NewReader(in))
		if err != nil {
			continue // rejected at parse/assemble time: fine
		}
		if cluster == nil {
			t.Errorf("%s: no cluster parsed", name)
			continue
		}
		if err := cluster.Validate(); err == nil {
			t.Errorf("%s: Validate passed", name)
		}
	}
}

// TestClusterSplitsOfferedLoad: a cluster offers the configured rates in
// aggregate, whatever the workload kind: summed over every node's
// transaction types, the arrival rates add up to the file's.
func TestClusterSplitsOfferedLoad(t *testing.T) {
	const units = `"diskUnits":[{"name":"d","numControllers":1,"contrDelayMS":1,"numDisks":4,"diskDelayMS":15}]`
	for name, tc := range map[string]struct {
		workload, partitions string
		want                 float64
	}{
		"debitcredit": {`{"kind":"debitcredit","rate":48}`, `[{},{},{}]`, 48},
		"classes": {`{"kind":"classes","classes":[
		  {"name":"a","rate":40,"size":4,"writeProb":0.5},{"name":"b","rate":8,"size":2}]}`, `[{},{}]`, 48},
		"synthetic": {`{"kind":"synthetic","rate":8,"synthetic":{
		  "Partitions":[{"Name":"p","NumObjects":1000,"BlockFactor":10}],
		  "TxTypes":[{"Name":"set","ArrivalRate":40,"TxSize":5,"RefRow":[1]},{"Name":"dflt","TxSize":5,"RefRow":[1]}]}}`, `[{}]`, 48},
	} {
		in := `{"workload":` + tc.workload + `,` + units + `,"buffer":{"bufferSize":100,"partitions":` +
			tc.partitions + `,"log":{}},"cluster":{"numNodes":4}}`
		_, cluster, err := load(strings.NewReader(in))
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		offered := 0.0
		for _, g := range cluster.Generators {
			for i := 0; i < g.NumTypes(); i++ {
				_, rate := g.TypeInfo(i)
				offered += rate
			}
		}
		if math.Abs(offered-tc.want) > 1e-9 {
			t.Errorf("%s: 4 nodes offer %v TPS, want %v", name, offered, tc.want)
		}
	}
}
