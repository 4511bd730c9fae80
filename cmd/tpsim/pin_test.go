package main

import (
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"slices"
	"strings"
	"testing"

	tpsim "repro"
	"repro/internal/rng"
)

var update = flag.Bool("update", false, "rewrite testdata/config_pin.txt")

// input is a named configuration file.
type input struct{ name, json string }

// examples are the configs the -example flags print.
var examples = []input{
	{"example", exampleConfig},
	{"example-cluster", exampleClusterConfig},
	{"example-workload", exampleWorkloadConfig},
	{"example-closedloop", exampleClosedLoopConfig},
	{"example-skew", exampleSkewConfig},
}

// Fragments of the pinned inputs: a one-unit disk farm and a Debit-Credit
// buffer over it.
const (
	pinUnit = `{"name":"d","numControllers":1,"contrDelayMS":1,"numDisks":4,"diskDelayMS":15}`
	pinDC   = `"workload":{"kind":"debitcredit","rate":40}`
	pinRest = `"diskUnits":[` + pinUnit + `],"buffer":{"bufferSize":100,"partitions":[{},{},{}],"log":{}}`
	pinDev  = `"diskUnits":[
	  {"name":"db","numControllers":4,"contrDelayMS":1.0,"transDelayMS":0.4,"numDisks":32,"diskDelayMS":15},
	  {"name":"log","numControllers":2,"contrDelayMS":1.0,"transDelayMS":0.4,"numDisks":8,"diskDelayMS":5}]`
	pinDCBuffer  = `"buffer":{"bufferSize":500,"partitions":[{"diskUnit":0},{"diskUnit":0},{"diskUnit":0}],"log":{"diskUnit":1}}`
	pinSynthetic = `"workload":{"kind":"synthetic","rate":50,"synthetic":{
	  "Partitions":[{"Name":"p","NumObjects":1000,"BlockFactor":10}],
	  "TxTypes":[{"Name":"t","TxSize":5,"WriteProb":0.5,"RefRow":[1]}]}},
	  "ccModes":["object"],
	  "diskUnits":[{"name":"d","numControllers":2,"contrDelayMS":1,"transDelayMS":0.4,"numDisks":8,"diskDelayMS":15}],
	  "buffer":{"bufferSize":200,"partitions":[{"diskUnit":0}],"log":{"diskUnit":0}}`
)

// pinTrace is the tiny two-type trace the inputs naming $TRACE replay.
const pinTrace = "TPSIM-TRACE 1\nFILES 1\nFILE 0 100\nTYPES 2\nTYPE 0 upd\nTYPE 1 qry\n" +
	"TX 0 2\nR 0 1\nW 0 2\nTX 1 1\nR 0 3\nTX 0 1\nW 0 4\nEND\n"

// pinInputs returns the configuration files TestConfigPin pins: the five
// -example configs, the inline configs of the load tests, and the schema's
// edge cases. An input naming $TRACE replays pinTrace.
func pinInputs() []input {
	in := append(slices.Clone(examples), []input{
		{"unknown key", `{"bogus": 1}`},
		{"bad cc mode", `{` + pinDC + `,"ccModes":["zebra"],` + pinRest + `}`},
		{"bad unit type", `{` + pinDC + `,"diskUnits":[{"name":"d","type":"floppy","numControllers":1,"contrDelayMS":1,"numDisks":1,"diskDelayMS":15}],"buffer":{"bufferSize":100,"partitions":[{},{},{}],"log":{}}}`},
		{"bad workload kind", `{"workload":{"kind":"quantum","rate":10}}`},
		{"bad nvemCacheMode", `{` + pinDC + `,"diskUnits":[` + pinUnit + `],"buffer":{"bufferSize":100,"partitions":[{"nvemCacheMode":"sideways"},{},{}],"log":{}}}`},
		{"partition count mismatch", `{` + pinDC + `,"diskUnits":[` + pinUnit + `],"buffer":{"bufferSize":100,"partitions":[{}],"log":{}}}`},
		{"zero defaults", `{"seed":0,"mpl":0,"numCPU":0,"mips":0,"instrBOT":0,"instrOR":0,"instrEOT":0,"instrIO":0,"instrNVEM":0,
		  "warmupMS":0,"measureMS":0,"nvemServers":0,"nvemDelayMS":0,
		  "workload":{"kind":"debitcredit","rate":10,"branches":0,"accounts":0},` + pinRest + `}`},
		{"set defaults", `{"seed":-7,"mpl":30,"numCPU":2,"mips":25,"instrBOT":1000,"instrOR":2000,"instrEOT":3000,"instrIO":400,"instrNVEM":50,
		  "warmupMS":100,"measureMS":900,"nvemServers":3,"nvemDelayMS":0.02,
		  "workload":{"kind":"debitcredit","rate":10,"branches":20,"accounts":20000,"uncluster":true},
		  "diskUnits":[` + pinUnit + `],"buffer":{"bufferSize":100,"partitions":[{},{},{},{}],"log":{}}}`},
		{"logging false", `{` + pinDC + `,"diskUnits":[` + pinUnit + `],"buffer":{"bufferSize":100,"force":true,"logging":false,"partitions":[{},{},{}],"log":{}}}`},
		{"every allocation key", `{` + pinDC + `,"nvemServers":2,"nvemDelayMS":0.1,
		  "diskUnits":[` + pinUnit + `,{"name":"c","type":"nv-cache","numControllers":2,"contrDelayMS":0.5,"transDelayMS":0.3,"numDisks":2,"diskDelayMS":5,"cacheSize":50,"writeBufferOnly":true},
		    {"name":"s","type":"ssd","numControllers":1,"contrDelayMS":0.2},{"name":"v","type":"volatile-cache","numControllers":1,"contrDelayMS":1,"numDisks":2,"diskDelayMS":15,"cacheSize":30}],
		  "buffer":{"bufferSize":100,"checkpointIntervalMS":700,"nvemCacheSize":40,"nvemWriteBufferSize":20,
		    "partitions":[{"diskUnit":3,"syncAccess":true,"nvemCache":true,"nvemCacheMode":"modified"},{"nvemResident":true},{"mmResident":true}],
		    "log":{"diskUnit":1,"nvemWriteBuffer":true}}}`},
		{"every allocation key 2", `{` + pinDC + `,"ccModes":["object","none","page"],"diskUnits":[` + pinUnit + `],
		  "buffer":{"bufferSize":100,"nvemCacheSize":40,"nvemWriteBufferSize":20,
		    "partitions":[{"nvemCache":true,"nvemCacheMode":"unmodified"},{"nvemWriteBuffer":true},{"nvemCache":true,"nvemCacheMode":"all"}],
		    "log":{"nvemResident":true}}}`},

		{"empty access kind", `{"workload":{"kind":"debitcredit","rate":40,"access":{"kind":""}},` + pinRest + `}`},
		{"empty arrival kind", `{"workload":{"kind":"debitcredit","rate":40,"arrival":{"kind":""}},` + pinRest + `}`},
		{"empty unit type", `{` + pinDC + `,"diskUnits":[{"name":"d","type":"","numControllers":1,"contrDelayMS":1,"numDisks":4,"diskDelayMS":15}],"buffer":{"bufferSize":100,"partitions":[{},{},{}],"log":{}}}`},
		{"empty nvemCacheMode", `{` + pinDC + `,"diskUnits":[` + pinUnit + `],"buffer":{"bufferSize":100,"partitions":[{"nvemCacheMode":""},{},{}],"log":{}}}`},
		{"ccModes short", `{` + pinDC + `,"ccModes":["object"],` + pinRest + `}`},
		{"ccModes long", `{` + pinDC + `,"ccModes":["page","page","none","object"],` + pinRest + `}`},
		{"ccModes long with a bad extra entry", `{` + pinDC + `,"ccModes":["page","page","none","zebra"],` + pinRest + `}`},

		{"synthetic", `{` + pinSynthetic + `}`},
		{"synthetic every key", `{"workload":{"kind":"synthetic","rate":50,"synthetic":{
		  "Partitions":[{"Name":"p","NumObjects":1000,"BlockFactor":10,"Subpartitions":[{"SizeFrac":0.2,"AccessProb":0.8},{"SizeFrac":0.8,"AccessProb":0.2}]},
		    {"Name":"h","NumObjects":50,"BlockFactor":5,"Sequential":true}],
		  "TxTypes":[{"Name":"t","ArrivalRate":20,"TxSize":4,"WriteProb":0.5,"VarSize":true,"RefRow":[0.5,0.5]},
		    {"Name":"s","TxSize":3,"Sequential":true,"RefRow":[0,1]}]}},
		  "diskUnits":[` + pinUnit + `],"buffer":{"bufferSize":100,"partitions":[{},{}],"log":{}}}`},
		{"synthetic numeric access kind", `{"workload":{"kind":"synthetic","rate":50,"synthetic":{
		  "Partitions":[{"Name":"p","NumObjects":1000,"BlockFactor":10,"Access":{"Kind":1,"Theta":0.8}}],
		  "TxTypes":[{"Name":"t","TxSize":5,"WriteProb":0.5,"RefRow":[1]}]}},
		  "diskUnits":[` + pinUnit + `],"buffer":{"bufferSize":100,"partitions":[{}],"log":{}}}`},
		{"synthetic without model", `{"workload":{"kind":"synthetic","rate":50}}`},

		{"trace missing file", `{"workload":{"kind":"trace","rate":10,"traceFile":"/nonexistent.trace"}}`},
		{"trace", `{"workload":{"kind":"trace","rate":30,"traceFile":"$TRACE"},"diskUnits":[` + pinUnit + `],"buffer":{"bufferSize":50,"partitions":[{}],"log":{}}}`},
		{"trace per type", `{"workload":{"kind":"trace","perTypeRates":[4,8],"traceFile":"$TRACE"},"diskUnits":[` + pinUnit + `],"buffer":{"bufferSize":50,"partitions":[{}],"log":{}}}`},
		{"trace cluster", `{"workload":{"kind":"trace","rate":30,"traceFile":"$TRACE"},"diskUnits":[` + pinUnit + `],"buffer":{"bufferSize":50,"partitions":[{}],"log":{}},"cluster":{"numNodes":3}}`},

		{"cluster zero nodes", `{` + pinDC + `,` + pinRest + `,"cluster":{"numNodes":0}}`},
		{"cluster bad failure", `{` + pinDC + `,` + pinRest + `,"cluster":{"numNodes":2,"failure":{"node":9,"crashAtMS":100}}}`},
		{"cluster shared nvem without cache", `{` + pinDC + `,` + pinRest + `,"cluster":{"numNodes":2,"sharedNVEMCache":true}}`},
		{"cluster split classes", `{"workload":{"kind":"classes","classes":[
		  {"name":"a","rate":40,"size":4,"writeProb":0.5},{"name":"b","rate":8,"size":2,"sequential":true,"varSize":true}]},
		  "diskUnits":[` + pinUnit + `],"buffer":{"bufferSize":100,"partitions":[{},{}],"log":{}},"cluster":{"numNodes":4}}`},
		{"cluster split synthetic", `{"workload":{"kind":"synthetic","rate":8,"synthetic":{
		  "Partitions":[{"Name":"p","NumObjects":1000,"BlockFactor":10}],
		  "TxTypes":[{"Name":"set","ArrivalRate":40,"TxSize":5,"RefRow":[1]},{"Name":"dflt","TxSize":5,"RefRow":[1]}]}},
		  "diskUnits":[` + pinUnit + `],"buffer":{"bufferSize":100,"partitions":[{}],"log":{}},"cluster":{"numNodes":4}}`},
		{"cluster every key", `{"warmupMS":500,"measureMS":1500,"workload":{"kind":"debitcredit","rate":200},` + pinDev + `,
		  "buffer":{"bufferSize":500,"nvemCacheSize":1000,"checkpointIntervalMS":400,
		    "partitions":[{"diskUnit":0,"nvemCache":true},{"diskUnit":0,"nvemCache":true},{"diskUnit":0,"nvemCache":true}],
		    "log":{"nvemResident":true}},
		  "cluster":{"numNodes":2,"sharedNVEMCache":true,"nvemAccessDelayMS":0.15,"globalLocks":true,"instrLockMsg":500,
		    "lockMsgDelayMS":0.3,"timelineBucketMS":250,"failure":{"node":1,"crashAtMS":700,"rebootMS":200},
		    "admission":{},"pdes":{"workers":2}}}`},
		{"cluster admission", `{` + pinDC + `,` + pinRest + `,"cluster":{"numNodes":2,"admission":{"queueFactor":0.5},"pdes":{}}}`},

		{"arrival poisson", `{"workload":{"kind":"debitcredit","rate":40,"arrival":{"kind":"poisson"}},` + pinRest + `}`},
		{"arrival empty", `{"workload":{"kind":"debitcredit","rate":40,"arrival":{}},` + pinRest + `}`},
		{"arrival mmpp", `{"workload":{"kind":"debitcredit","rate":40,"arrival":{"kind":"mmpp","burstFactor":4,"burstFrac":0.1,"burstMeanMS":300}},` + pinRest + `}`},
		{"arrival diurnal", `{"workload":{"kind":"debitcredit","rate":40,"arrival":{"kind":"diurnal","amplitude":0.8,"periodMS":10000,"phaseRad":0.5}},` + pinRest + `}`},
		{"arrival spike", `{"workload":{"kind":"debitcredit","rate":40,"arrival":{"kind":"spike","spikeFactor":3,"spikeAtMS":100,"spikeDurMS":2000}},` + pinRest + `}`},
		{"arrival replay", `{"workload":{"kind":"debitcredit","rate":40,"arrival":{"kind":"replay","rateBucketMS":500,"rateMultipliers":[0.5,1.5]}},` + pinRest + `}`},
		{"arrival fractal", `{"workload":{"kind":"debitcredit","rate":40,"arrival":{"kind":"fractal"}},` + pinRest + `}`},
		{"arrival mmpp factor below 1", `{"workload":{"kind":"debitcredit","rate":40,"arrival":{"kind":"mmpp","burstFactor":0.5,"burstFrac":0.1}},` + pinRest + `}`},
		{"arrival mmpp negative base", `{"workload":{"kind":"debitcredit","rate":40,"arrival":{"kind":"mmpp","burstFactor":20,"burstFrac":0.1}},` + pinRest + `}`},
		{"arrival diurnal amplitude", `{"workload":{"kind":"debitcredit","rate":40,"arrival":{"kind":"diurnal","amplitude":1.5,"periodMS":1000}},` + pinRest + `}`},
		{"arrival spike without duration", `{"workload":{"kind":"debitcredit","rate":40,"arrival":{"kind":"spike","spikeFactor":3}},` + pinRest + `}`},

		{"closed loop", `{"warmupMS":1000,"measureMS":3000,"mpl":20,"workload":{"kind":"debitcredit",
		  "arrival":{"kind":"closedloop","terminals":40,"thinkMS":100}},` + pinDev + `,` + pinDCBuffer + `}`},
		{"classes zipf", `{"warmupMS":1000,"measureMS":3000,"workload":{"kind":"classes","access":{"kind":"zipf","theta":0.8},
		  "classes":[{"name":"short-update","rate":20,"size":6,"writeProb":0.8},{"name":"batch-scan","rate":0.5,"size":40,"sequential":true}]},
		  "ccModes":["page","page"],` + pinDev + `,"buffer":{"bufferSize":500,"partitions":[{"diskUnit":0},{"diskUnit":0}],"log":{"diskUnit":1}}}`},
		{"dc uniform", `{"seed":7,"warmupMS":1000,"measureMS":3000,"workload":{"kind":"debitcredit","rate":100},` + pinDev + `,` + pinDCBuffer + `}`},
		{"dc hotspot", `{"seed":7,"warmupMS":1000,"measureMS":3000,"workload":{"kind":"debitcredit","rate":100,
		  "access":{"kind":"hotspot","hotAccessFrac":0.9,"hotDataFrac":0.001}},` + pinDev + `,` + pinDCBuffer + `}`},
		{"bad access kind", `{"workload":{"kind":"debitcredit","rate":10,"access":{"kind":"pareto"}},` + pinDev + `,` + pinDCBuffer + `}`},
		{"zipf without theta", `{"workload":{"kind":"debitcredit","rate":10,"access":{"kind":"zipf"}},` + pinDev + `,` + pinDCBuffer + `}`},
		{"access on trace workload", `{"workload":{"kind":"trace","rate":10,"traceFile":"x","access":{"kind":"zipf","theta":0.8}},` + pinDev + `,` + pinDCBuffer + `}`},
		{"classes without class list", `{"workload":{"kind":"classes","rate":10},` + pinDev + `,` + pinDCBuffer + `}`},
		{"closedloop without terminals", `{"workload":{"kind":"debitcredit","arrival":{"kind":"closedloop","thinkMS":100}},` + pinDev + `,` + pinDCBuffer + `}`},
		{"replay without multipliers", `{"workload":{"kind":"debitcredit","rate":10,"arrival":{"kind":"replay","rateBucketMS":500}},` + pinDev + `,` + pinDCBuffer + `}`},

		// Engine fields the file does not name stay unknown keys.
		{"unknown key maxQueue", `{` + pinDC + `,"maxQueue":5,` + pinRest + `}`},
		{"unknown key arrival", `{` + pinDC + `,"arrival":{"kind":"mmpp"},` + pinRest + `}`},
		{"unknown key partitions", `{` + pinDC + `,"partitions":[],` + pinRest + `}`},
		{"unknown key nvemDelay", `{` + pinDC + `,"nvemDelay":0.1,` + pinRest + `}`},
		{"unknown key contrDelay", `{` + pinDC + `,"diskUnits":[{"name":"d","numControllers":1,"contrDelay":1,"numDisks":4,"diskDelayMS":15}],"buffer":{"bufferSize":100,"partitions":[{},{},{}],"log":{}}}`},
		{"unknown buffer key groupCommit", `{` + pinDC + `,"diskUnits":[` + pinUnit + `],"buffer":{"bufferSize":100,"groupCommit":true,"partitions":[{},{},{}],"log":{}}}`},
		{"unknown buffer key asyncReplacement", `{` + pinDC + `,"diskUnits":[` + pinUnit + `],"buffer":{"bufferSize":100,"asyncReplacement":true,"partitions":[{},{},{}],"log":{}}}`},
		{"unknown cluster key base", `{` + pinDC + `,` + pinRest + `,"cluster":{"numNodes":2,"base":{}}}`},
		{"unknown failure key enabled", `{` + pinDC + `,` + pinRest + `,"cluster":{"numNodes":2,"failure":{"enabled":false,"crashAtMS":100}}}`},
	}...)
	for _, field := range []string{"mpl", "numCPU", "mips", "instrBOT", "instrOR", "instrEOT", "instrIO",
		"instrNVEM", "warmupMS", "measureMS", "nvemServers", "nvemDelayMS"} {
		in = append(in, input{"negative " + field,
			fmt.Sprintf(`{"%s":-1,%s,%s}`, field, pinDC, pinRest)})
	}
	for _, field := range []string{"branches", "accounts"} {
		in = append(in, input{"negative workload." + field,
			fmt.Sprintf(`{"workload":{"kind":"debitcredit","rate":10,"%s":-5},%s}`, field, pinRest)})
	}
	// Above tpsim.MaxNodes: load rejects it before it builds anything per
	// node. It comes last so that every other input keeps its FuzzConfig
	// seed number.
	return append(in, input{"cluster too many nodes", `{` + pinDC + `,` + pinRest + `,"cluster":{"numNodes":1000000000}}`})
}

// TestConfigPin pins what load makes of every input of pinInputs, in
// testdata/config_pin.txt: its verdict, and for an accepted input the %+v
// of the Config, or of the ClusterConfig of a cluster. A generator is
// rendered by its type, its TypeInfo and three transactions per type drawn
// from a fixed stream, since its pointers differ from run to run.
// Regenerate with:
//
//	go test ./cmd/tpsim -run TestConfigPin -update
func TestConfigPin(t *testing.T) {
	tracePath := filepath.Join(t.TempDir(), "tiny.trace")
	if err := os.WriteFile(tracePath, []byte(pinTrace), 0o644); err != nil {
		t.Fatal(err)
	}
	var b strings.Builder
	for _, in := range pinInputs() {
		fmt.Fprintf(&b, "== %s\n", in.name)
		pinLoad(&b, strings.ReplaceAll(in.json, "$TRACE", tracePath))
	}

	got := b.String()
	path := filepath.Join("testdata", "config_pin.txt")
	if *update {
		if err := os.WriteFile(path, []byte(got), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("missing pin file (run with -update to create): %v", err)
	}
	gotLines, wantLines := strings.Split(got, "\n"), strings.Split(string(want), "\n")
	for i := range max(len(gotLines), len(wantLines)) {
		var g, w string
		if i < len(gotLines) {
			g = gotLines[i]
		}
		if i < len(wantLines) {
			w = wantLines[i]
		}
		if g != w {
			t.Errorf("%s line %d:\n got: %s\nwant: %s", path, i+1, g, w)
		}
	}
}

// pinLoad writes load's verdict on in to b.
func pinLoad(b *strings.Builder, in string) {
	cfg, cluster, err := load(strings.NewReader(in))
	if err != nil {
		b.WriteString("rejected\n")
		return
	}
	var gens []tpsim.Generator
	name := func(g tpsim.Generator) string {
		for i, h := range gens {
			if h == g {
				return fmt.Sprintf("gen%d", i)
			}
		}
		gens = append(gens, g)
		return fmt.Sprintf("gen%d", len(gens)-1)
	}
	if cluster == nil {
		g := cfg.Generator
		cfg.Generator = nil
		s := fmt.Sprintf("%+v", cfg)
		fmt.Fprintf(b, "config %s\n", strings.Replace(s, "Generator:<nil>", "Generator:"+name(g), 1))
	} else {
		c := *cluster
		base := name(c.Base.Generator)
		nodes := make([]string, len(c.Generators))
		for i, g := range c.Generators {
			nodes[i] = name(g)
		}
		c.Base.Generator, c.Generators = nil, nil
		s := fmt.Sprintf("%+v", c)
		s = strings.Replace(s, "Generator:<nil>", "Generator:"+base, 1)
		s = strings.Replace(s, "Generators:[]", "Generators:["+strings.Join(nodes, " ")+"]", 1)
		fmt.Fprintf(b, "cluster %s\n", s)
	}
	for i, g := range gens {
		fmt.Fprintf(b, "gen%d %T\n", i, g)
		s := rng.NewStream(1, "pin")
		for typ := range g.NumTypes() {
			typName, rate := g.TypeInfo(typ)
			fmt.Fprintf(b, "  type %d %q %v:", typ, typName, rate)
			for range 3 {
				fmt.Fprintf(b, " %v", g.Next(typ, s))
			}
			b.WriteString("\n")
		}
	}
}
