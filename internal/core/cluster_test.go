package core

import (
	"math"
	"reflect"
	"testing"

	"repro/internal/buffer"
	"repro/internal/workload"
)

// dcCluster builds an N-node Debit-Credit cluster over the dcConfig
// template: the aggregate rate splits evenly, nodes share the disk units
// and (with sharedNVEM) one NVEM cache, all under the global lock manager.
func dcCluster(t testing.TB, nodes int, aggregateRate float64, sharedNVEM bool) ClusterConfig {
	t.Helper()
	base := dcConfig(t, aggregateRate/float64(nodes))
	base.WarmupMS = 1500
	base.MeasureMS = 4000
	gens := make([]workload.Generator, nodes)
	for i := range gens {
		gen, err := workload.NewDebitCredit(workload.DefaultDebitCreditConfig(aggregateRate / float64(nodes)))
		if err != nil {
			t.Fatal(err)
		}
		gens[i] = gen
	}
	cfg := ClusterConfig{
		Base:        base,
		NumNodes:    nodes,
		Generators:  gens,
		GlobalLocks: true,
	}
	if sharedNVEM {
		for i := range cfg.Base.Buffer.Partitions {
			cfg.Base.Buffer.Partitions[i].NVEMCache = true
		}
		cfg.Base.Buffer.NVEMCacheSize = 1000
		cfg.SharedNVEMCache = true
	}
	return cfg
}

// TestClusterValidate covers the cluster-level configuration checks.
func TestClusterValidate(t *testing.T) {
	cfg := dcCluster(t, 2, 200, false)
	if err := cfg.Validate(); err != nil {
		t.Fatal(err)
	}
	bad := cfg
	bad.NumNodes = 0
	if _, err := RunCluster(bad); err == nil {
		t.Fatal("NumNodes = 0 must error")
	}
	bad.NumNodes = MaxNodes + 1
	if _, err := RunCluster(bad); err == nil {
		t.Fatal("NumNodes above MaxNodes must error")
	}
	bad = cfg
	bad.Generators = bad.Generators[:1]
	if _, err := RunCluster(bad); err == nil {
		t.Fatal("generator count mismatch must error")
	}
	bad = dcCluster(t, 2, 200, false)
	bad.SharedNVEMCache = true // without NVEMCacheSize
	if _, err := RunCluster(bad); err == nil {
		t.Fatal("shared cache without a size must error")
	}
	bad = dcCluster(t, 2, 200, false)
	bad.Generators[1] = nil
	if _, err := RunCluster(bad); err == nil {
		t.Fatal("nil generator must error")
	}
}

// TestSingleNodeClusterMatchesRun: a one-node cluster is the classic
// engine — same seed, same metrics as core.Run.
func TestSingleNodeClusterMatchesRun(t *testing.T) {
	single, err := Run(dcConfig(t, 150))
	if err != nil {
		t.Fatal(err)
	}
	base := dcConfig(t, 150)
	res, err := RunCluster(ClusterConfig{
		Base:       base,
		NumNodes:   1,
		Generators: []workload.Generator{base.Generator},
	})
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(res.Cluster, single) {
		t.Fatalf("one-node cluster diverged from Run:\n%+v\nvs\n%+v", res.Cluster, single)
	}
	if len(res.Nodes) != 1 {
		t.Fatalf("%d node results, want 1", len(res.Nodes))
	}
}

// TestClusterDeterministic: identical cluster runs render byte-identical
// reports.
func TestClusterDeterministic(t *testing.T) {
	a, err := RunCluster(dcCluster(t, 3, 240, true))
	if err != nil {
		t.Fatal(err)
	}
	b, err := RunCluster(dcCluster(t, 3, 240, true))
	if err != nil {
		t.Fatal(err)
	}
	if ar, br := a.Report(), b.Report(); ar != br {
		t.Fatalf("cluster runs diverged:\n%s\nvs\n%s", ar, br)
	}
}

// TestClusterSharedNVEMAndCoherence: a multi-node shared-cache run must
// show cross-node activity: second-level hits, remote-write invalidations
// and dirty hand-offs, and per-node metrics that sum to the aggregate.
func TestClusterSharedNVEMAndCoherence(t *testing.T) {
	res, err := RunCluster(dcCluster(t, 2, 300, true))
	if err != nil {
		t.Fatal(err)
	}
	agg := res.Cluster
	if agg.Commits == 0 {
		t.Fatal("no commits")
	}
	if agg.Buffer.NVEMCacheHits == 0 {
		t.Fatal("shared NVEM cache never hit")
	}
	if agg.Invalidations == 0 {
		t.Fatal("no coherence invalidations despite shared write traffic")
	}
	if agg.DirtyHandoffs == 0 {
		t.Fatal("no dirty hand-offs despite update transactions")
	}
	if agg.LockMsgs == 0 {
		t.Fatal("global locking produced no messages")
	}
	// Counts sum exactly; the time means are commit-weighted and CPU
	// utilization CPU-weighted (every node has the same CPUs), up to
	// float rounding.
	var sum Result
	var buf buffer.Stats
	parts := make([]PartitionReport, len(agg.Partitions))
	var resp, lockWait, ioWait, cpu float64
	for _, n := range res.Nodes {
		if n.Commits == 0 {
			t.Fatalf("idle node in a balanced cluster: %+v", n)
		}
		sum.Commits += n.Commits
		sum.Aborts += n.Aborts
		sum.Dropped += n.Dropped
		sum.Shed += n.Shed
		sum.LockMsgs += n.LockMsgs
		sum.Invalidations += n.Invalidations
		sum.DirtyHandoffs += n.DirtyHandoffs
		buf = buf.Add(n.Buffer)
		for i, p := range n.Partitions {
			parts[i].Fixes += p.Fixes
			parts[i].MMHits += p.MMHits
			parts[i].NVEMHits += p.NVEMHits
		}
		w := float64(n.Commits)
		resp += w * n.RespMean
		lockWait += w * n.LockWaitMean
		ioWait += w * n.IOWaitMean
		cpu += n.CPUUtil
	}
	if sum.Commits != agg.Commits || sum.Aborts != agg.Aborts || sum.Dropped != agg.Dropped ||
		sum.Shed != agg.Shed || sum.LockMsgs != agg.LockMsgs ||
		sum.Invalidations != agg.Invalidations || sum.DirtyHandoffs != agg.DirtyHandoffs {
		t.Fatalf("node counts do not sum to the aggregate: nodes %+v, aggregate %+v", sum, agg)
	}
	if buf != agg.Buffer {
		t.Fatalf("node buffer stats sum %+v != aggregate %+v", buf, agg.Buffer)
	}
	for i, p := range agg.Partitions {
		if parts[i].Fixes != p.Fixes || parts[i].MMHits != p.MMHits || parts[i].NVEMHits != p.NVEMHits {
			t.Fatalf("partition %s: node sums %+v != aggregate %+v", p.Name, parts[i], p)
		}
	}
	commits := float64(agg.Commits)
	for _, m := range []struct {
		name      string
		got, want float64
	}{
		{"RespMean", agg.RespMean, resp / commits},
		{"LockWaitMean", agg.LockWaitMean, lockWait / commits},
		{"IOWaitMean", agg.IOWaitMean, ioWait / commits},
		{"CPUUtil", agg.CPUUtil, cpu / float64(len(res.Nodes))},
	} {
		if m.want == 0 || math.Abs(m.got-m.want) > 1e-12*math.Abs(m.want) {
			t.Fatalf("aggregate %s = %v, node-weighted mean %v", m.name, m.got, m.want)
		}
	}
	// Throughput must still track the aggregate offered load.
	if math.Abs(agg.Throughput-300) > 25 {
		t.Fatalf("aggregate throughput %v, want ~300", agg.Throughput)
	}
}

// TestGlobalLockMessagesCountedAtSender: a lock request costs its sender
// a message pair and a release one message, counted in the sender's
// window. In a two-node global-locking cluster whose node 1 offers no
// load, node 1 sends nothing and node 0 sends every message, on both
// engines.
func TestGlobalLockMessagesCountedAtSender(t *testing.T) {
	for _, pdes := range []bool{false, true} {
		cfg := dcCluster(t, 2, 200, false)
		idle, err := workload.NewDebitCredit(workload.DefaultDebitCreditConfig(0))
		if err != nil {
			t.Fatal(err)
		}
		cfg.Generators[1] = idle
		cfg.PDES = PDESConfig{Enabled: pdes, Workers: 1}
		res, err := RunCluster(cfg)
		if err != nil {
			t.Fatal(err)
		}
		busy, quiet, all := res.Nodes[0], res.Nodes[1], res.Cluster
		if quiet.Commits != 0 || quiet.LockMsgs != 0 {
			t.Errorf("pdes %v: the idle node committed %d and sent %d lock messages, want 0 and 0", pdes, quiet.Commits, quiet.LockMsgs)
		}
		if busy.LockMsgs != all.LockMsgs || busy.LockMsgs < 2*all.Locks.Requests || all.Locks.Requests == 0 {
			t.Errorf("pdes %v: node 0 sent %d lock messages, cluster %d for %d requests; want node 0 = cluster >= 2 per request",
				pdes, busy.LockMsgs, all.LockMsgs, all.Locks.Requests)
		}
	}
}

// TestGlobalLockingCostsMoreThanLocal: the message pathlength and round
// trips of the global lock manager must show up as higher response time
// than idealized local locking on the same workload.
func TestGlobalLockingCostsMoreThanLocal(t *testing.T) {
	local := dcCluster(t, 2, 200, false)
	local.GlobalLocks = false
	lres, err := RunCluster(local)
	if err != nil {
		t.Fatal(err)
	}
	global := dcCluster(t, 2, 200, false)
	global.InstrLockMsg = 20_000 // exaggerate so the ordering is robust
	gres, err := RunCluster(global)
	if err != nil {
		t.Fatal(err)
	}
	if lres.Cluster.LockMsgs != 0 {
		t.Fatalf("local locking sent %d messages", lres.Cluster.LockMsgs)
	}
	if gres.Cluster.LockMsgs == 0 {
		t.Fatal("global locking sent no messages")
	}
	if gres.Cluster.RespMean <= lres.Cluster.RespMean {
		t.Fatalf("global locking (%.2f ms) not slower than local (%.2f ms)",
			gres.Cluster.RespMean, lres.Cluster.RespMean)
	}
}
