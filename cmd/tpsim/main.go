// Command tpsim runs one simulation described by a JSON configuration file
// and prints the full result report.
//
// Usage:
//
//	tpsim -config run.json
//	tpsim -example            # print an example single-node configuration
//	tpsim -example-cluster    # print an example multi-node configuration
//	tpsim -example-workload   # print an example spike-crash workload configuration
//	tpsim -example-closedloop # print an example closed-loop terminals configuration
//	tpsim -example-skew       # print an example skewed multi-class configuration
//
// The file decodes straight into the engine's configuration types, whose
// json tags name its keys: CM parameters (Table 3.3 of the paper), disk
// units (Table 3.4), buffer-manager allocation (Fig 3.2, including the
// fuzzy-checkpoint interval), plus a workload selector (debitcredit /
// trace / synthetic / classes). Every enum is written by its name. A
// "workload.arrival" section swaps the arrival process (poisson / mmpp /
// diurnal / spike / closedloop / replay); a "workload.access" section
// skews the object draws (uniform / zipf / hotspot). Workload kind
// "classes" runs a multi-class mix with per-class accounting in the
// report. A "cluster" section switches to a multi-node data-sharing run —
// node count, shared vs. private NVEM cache, global vs. local locking,
// optional crash injection with redo recovery, and the recovery-aware
// admission controller ("cluster.admission") that sheds rerouted arrivals
// above a survivor-capacity threshold.
package main

import (
	"errors"
	"flag"
	"fmt"
	"io"
	"os"

	tpsim "repro"
)

const exampleConfig = `{
  "seed": 1,
  "warmupMS": 8000,
  "measureMS": 20000,
  "workload": {"kind": "debitcredit", "rate": 200},
  "ccModes": ["page", "page", "none"],
  "diskUnits": [
    {"name": "db", "type": "regular", "numControllers": 8,
     "contrDelayMS": 1.0, "transDelayMS": 0.4, "numDisks": 64, "diskDelayMS": 15},
    {"name": "log", "type": "nv-cache", "numControllers": 2,
     "contrDelayMS": 1.0, "transDelayMS": 0.4, "numDisks": 4, "diskDelayMS": 5,
     "cacheSize": 500, "writeBufferOnly": true}
  ],
  "buffer": {
    "bufferSize": 2000,
    "partitions": [{"diskUnit": 0}, {"diskUnit": 0}, {"diskUnit": 0}],
    "log": {"diskUnit": 1}
  }
}`

const exampleClusterConfig = `{
  "seed": 1,
  "warmupMS": 6000,
  "measureMS": 12000,
  "workload": {"kind": "debitcredit", "rate": 400},
  "ccModes": ["page", "page", "none"],
  "nvemServers": 1,
  "nvemDelayMS": 0.05,
  "diskUnits": [
    {"name": "db", "type": "regular", "numControllers": 12,
     "contrDelayMS": 1.0, "transDelayMS": 0.4, "numDisks": 96, "diskDelayMS": 15},
    {"name": "log", "type": "regular", "numControllers": 2,
     "contrDelayMS": 1.0, "transDelayMS": 0.4, "numDisks": 8, "diskDelayMS": 5}
  ],
  "buffer": {
    "bufferSize": 500,
    "checkpointIntervalMS": 2500,
    "nvemCacheSize": 2000,
    "partitions": [{"nvemCache": true}, {"nvemCache": true}, {"nvemCache": true}],
    "log": {"nvemResident": true}
  },
  "cluster": {
    "numNodes": 4,
    "sharedNVEMCache": true,
    "globalLocks": true,
    "timelineBucketMS": 1000,
    "failure": {"node": 0, "crashAtMS": 4300, "rebootMS": 500}
  }
}`

// exampleWorkloadConfig is the spike-crash scenario: a 5× load spike lands
// on a 4-node cluster at the same instant node 0 crashes, and the admission
// controller sheds rerouted overflow above a quarter-MPL survivor queue.
// Swap the arrival section for {"kind": "mmpp", "burstFactor": 4,
// "burstFrac": 0.1} or {"kind": "diurnal", "amplitude": 0.8, "periodMS":
// 10000} for bursty or day/night load.
const exampleWorkloadConfig = `{
  "seed": 1,
  "warmupMS": 6000,
  "measureMS": 12000,
  "workload": {
    "kind": "debitcredit",
    "rate": 400,
    "arrival": {"kind": "spike", "spikeFactor": 5, "spikeAtMS": 3000, "spikeDurMS": 5000}
  },
  "ccModes": ["page", "page", "none"],
  "nvemServers": 1,
  "nvemDelayMS": 0.05,
  "diskUnits": [
    {"name": "db", "type": "regular", "numControllers": 12,
     "contrDelayMS": 1.0, "transDelayMS": 0.4, "numDisks": 96, "diskDelayMS": 15},
    {"name": "log", "type": "regular", "numControllers": 2,
     "contrDelayMS": 1.0, "transDelayMS": 0.4, "numDisks": 8, "diskDelayMS": 5}
  ],
  "buffer": {
    "bufferSize": 500,
    "checkpointIntervalMS": 2600,
    "nvemCacheSize": 2000,
    "partitions": [{"nvemCache": true}, {"nvemCache": true}, {"nvemCache": true}],
    "log": {"nvemResident": true}
  },
  "cluster": {
    "numNodes": 4,
    "sharedNVEMCache": true,
    "globalLocks": true,
    "timelineBucketMS": 1000,
    "failure": {"node": 0, "crashAtMS": 3000, "rebootMS": 500},
    "admission": {"queueFactor": 0.25}
  }
}`

// exampleClosedLoopConfig replaces the open Poisson stream with 120
// emulated terminals cycling think -> submit -> wait; the workload rate is
// ignored and throughput follows N/(Z+R). The report gains a "closed loop:"
// line with the fraction of terminals stuck waiting for an MPL slot — the
// closed-loop saturation signal.
const exampleClosedLoopConfig = `{
  "seed": 1,
  "warmupMS": 6000,
  "measureMS": 12000,
  "mpl": 50,
  "workload": {
    "kind": "debitcredit",
    "arrival": {"kind": "closedloop", "terminals": 120, "thinkMS": 200}
  },
  "ccModes": ["page", "page", "none"],
  "diskUnits": [
    {"name": "db", "type": "regular", "numControllers": 8,
     "contrDelayMS": 1.0, "transDelayMS": 0.4, "numDisks": 64, "diskDelayMS": 15},
    {"name": "log", "type": "regular", "numControllers": 2,
     "contrDelayMS": 1.0, "transDelayMS": 0.4, "numDisks": 4, "diskDelayMS": 5}
  ],
  "buffer": {
    "bufferSize": 2000,
    "partitions": [{"diskUnit": 0}, {"diskUnit": 0}, {"diskUnit": 0}],
    "log": {"diskUnit": 1}
  }
}`

// exampleSkewConfig runs the three-class mix (short updates, read-mostly
// queries, batch scans) with a 90/1 hot-spot skew on the CUSTOMER draws;
// the report carries one accounting line per class.
const exampleSkewConfig = `{
  "seed": 1,
  "warmupMS": 6000,
  "measureMS": 12000,
  "workload": {
    "kind": "classes",
    "access": {"kind": "hotspot", "hotAccessFrac": 0.9, "hotDataFrac": 0.01},
    "classes": [
      {"name": "short-update", "rate": 30, "size": 6, "writeProb": 0.8},
      {"name": "read-mostly", "rate": 8, "size": 24, "writeProb": 0.02, "varSize": true},
      {"name": "batch-scan", "rate": 0.5, "size": 400, "sequential": true}
    ]
  },
  "ccModes": ["page", "page"],
  "diskUnits": [
    {"name": "db", "type": "regular", "numControllers": 12,
     "contrDelayMS": 1.0, "transDelayMS": 0.4, "numDisks": 96, "diskDelayMS": 15},
    {"name": "log", "type": "regular", "numControllers": 2,
     "contrDelayMS": 1.0, "transDelayMS": 0.4, "numDisks": 8, "diskDelayMS": 5}
  ],
  "buffer": {
    "bufferSize": 2000,
    "partitions": [{"diskUnit": 0}, {"diskUnit": 0}],
    "log": {"diskUnit": 1}
  }
}`

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

// run executes the command against the given argument list and streams;
// it returns the process exit code.
func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("tpsim", flag.ContinueOnError)
	fs.SetOutput(stderr)
	path := fs.String("config", "", "JSON configuration file")
	example := fs.Bool("example", false, "print an example single-node configuration and exit")
	exampleCluster := fs.Bool("example-cluster", false, "print an example multi-node configuration and exit")
	exampleWorkload := fs.Bool("example-workload", false, "print an example spike-crash workload configuration and exit")
	exampleClosedLoop := fs.Bool("example-closedloop", false, "print an example closed-loop terminals configuration and exit")
	exampleSkew := fs.Bool("example-skew", false, "print an example skewed multi-class configuration and exit")
	if err := fs.Parse(args); err != nil {
		if errors.Is(err, flag.ErrHelp) {
			return 0
		}
		return 2
	}

	switch {
	case *example:
		fmt.Fprintln(stdout, exampleConfig)
		return 0
	case *exampleCluster:
		fmt.Fprintln(stdout, exampleClusterConfig)
		return 0
	case *exampleWorkload:
		fmt.Fprintln(stdout, exampleWorkloadConfig)
		return 0
	case *exampleClosedLoop:
		fmt.Fprintln(stdout, exampleClosedLoopConfig)
		return 0
	case *exampleSkew:
		fmt.Fprintln(stdout, exampleSkewConfig)
		return 0
	case *path == "":
		fs.Usage()
		return 2
	}
	f, err := os.Open(*path)
	if err != nil {
		return fatal(stderr, err)
	}
	cfg, cluster, err := load(f)
	f.Close()
	if err != nil {
		return fatal(stderr, err)
	}
	if cluster != nil {
		res, err := tpsim.RunCluster(*cluster)
		if err != nil {
			return fatal(stderr, err)
		}
		fmt.Fprint(stdout, res.Report())
		return 0
	}
	res, err := tpsim.Run(cfg)
	if err != nil {
		return fatal(stderr, err)
	}
	fmt.Fprint(stdout, res.Report())
	return 0
}

func fatal(w io.Writer, err error) int {
	fmt.Fprintln(w, "tpsim:", err)
	return 1
}
