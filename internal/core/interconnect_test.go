package core

import (
	"testing"

	"repro/internal/workload"
)

// TestPDESRerouteClassSums: arrivals rerouted away from a crashed node
// count their drops and sheds against their class under PDES, as they do
// on the coupled engine, so on every node the per-class counters sum to
// the node's totals.
func TestPDESRerouteClassSums(t *testing.T) {
	cfg := scriptConfig(&scriptGen{})
	cfg.MPL = 1
	cfg.NumCPU = 1
	cfg.MaxQueue = 2
	cfg.WarmupMS = 500
	cfg.MeasureMS = 3000
	gens := make([]workload.Generator, 3)
	for i := range gens {
		gens[i] = &twoClassGen{rates: [2]float64{120, 120}, sizes: [2]int{3, 3}}
	}
	res := runPDES(t, ClusterConfig{
		Base:       cfg,
		NumNodes:   3,
		Generators: gens,
		Failure:    FailureConfig{Enabled: true, Node: 1, CrashAtMS: 500, RebootMS: 1500},
		Admission:  AdmissionConfig{Enabled: true},
		PDES:       PDESConfig{Enabled: true, Workers: 1},
	})
	if res.Nodes[1].Shed == 0 {
		t.Fatal("the crashed node shed nothing; the rerouted class accounting went untested")
	}
	for i, n := range res.Nodes {
		var dropped, shed int64
		for _, c := range n.Classes {
			dropped += c.Dropped
			shed += c.Shed
		}
		if dropped != n.Dropped || shed != n.Shed {
			t.Errorf("node %d: classes drop %d and shed %d, the node %d and %d",
				i, dropped, shed, n.Dropped, n.Shed)
		}
	}
}

// TestOneNodePDESMatchesCoupled pins exact agreement between the two
// engines where their models coincide: one node with local locking sends
// no lock or coherence traffic, only the reroute of arrivals while it is
// down, so the coupled engine and PDES must render the same report byte
// for byte. Global locking is left out: under PDES a release is a delayed
// message, so the engines differ there by design.
func TestOneNodePDESMatchesCoupled(t *testing.T) {
	rows := []struct {
		name  string
		build func(t *testing.T) ClusterConfig
	}{
		{"Debit-Credit", func(t *testing.T) ClusterConfig {
			return oneNodeCluster(dcConfig(t, 150))
		}},
		{"private NVEM cache, deferred destage", func(t *testing.T) ClusterConfig {
			cfg := dcConfig(t, 150)
			for i := range cfg.Buffer.Partitions {
				cfg.Buffer.Partitions[i].NVEMCache = true
			}
			cfg.Buffer.BufferSize = 300
			cfg.Buffer.NVEMCacheSize = 600
			cfg.Buffer.NVEMDeferredDestage = true
			return oneNodeCluster(cfg)
		}},
		{"crash and restart", func(t *testing.T) ClusterConfig {
			cfg := dcConfig(t, 150)
			cfg.Buffer.CheckpointIntervalMS = 1000
			c := oneNodeCluster(cfg)
			c.Failure = FailureConfig{Enabled: true, Node: 0, CrashAtMS: 800, RebootMS: 600}
			c.TimelineBucketMS = 250
			return c
		}},
		{"two classes and a crash", func(t *testing.T) ClusterConfig {
			cfg := scriptConfig(&scriptGen{})
			cfg.Generator = &twoClassGen{rates: [2]float64{150, 150}, sizes: [2]int{3, 3}}
			cfg.MPL = 1
			cfg.NumCPU = 1
			cfg.MaxQueue = 2
			c := oneNodeCluster(cfg)
			c.Failure = FailureConfig{Enabled: true, Node: 0, CrashAtMS: 800, RebootMS: 600}
			return c
		}},
	}
	for _, row := range rows {
		cfg := row.build(t)
		coupled, err := RunCluster(cfg)
		if err != nil {
			t.Fatal(err)
		}
		if coupled.Cluster.Commits == 0 {
			t.Fatalf("%s: the coupled run committed nothing", row.name)
		}
		if rs := coupled.Cluster.Restart; cfg.Failure.Enabled && (rs == nil || !rs.Recovered) {
			t.Fatalf("%s: the crashed node did not recover within the run", row.name)
		}
		cfg = row.build(t)
		cfg.PDES = PDESConfig{Enabled: true, Workers: 1}
		pdes := runPDES(t, cfg)
		if g, w := pdes.Report(), coupled.Report(); g != w {
			t.Errorf("%s: the PDES report differs from the coupled one:\n%s\nvs\n%s", row.name, g, w)
		}
	}
}

// oneNodeCluster wraps a node configuration into a one-node cluster with
// local locking and short windows.
func oneNodeCluster(cfg Config) ClusterConfig {
	cfg.WarmupMS = 1000
	cfg.MeasureMS = 8000
	return ClusterConfig{Base: cfg, NumNodes: 1, Generators: []workload.Generator{cfg.Generator}}
}
