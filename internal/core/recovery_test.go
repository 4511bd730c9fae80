package core

import (
	"math"
	"strings"
	"testing"

	"repro/internal/buffer"
	"repro/internal/storage"
	"repro/internal/workload"
)

// recoveryConfig is dcConfig plus the fuzzy-checkpoint daemon, with the
// log allocation swapped per variant.
func recoveryConfig(t *testing.T, logKind string) Config {
	t.Helper()
	cfg := dcConfig(t, 250)
	cfg.Buffer.CheckpointIntervalMS = 6000
	switch logKind {
	case "disk":
	case "ssd":
		cfg.DiskUnits[1] = storage.DiskUnitConfig{Name: "log", Type: storage.SSD,
			NumControllers: 2, ContrDelay: DefaultContrDelay, TransDelay: DefaultTransDelay}
	case "nvem":
		cfg.Buffer.Log = buffer.LogAlloc{NVEMResident: true}
	default:
		t.Fatalf("unknown log kind %q", logKind)
	}
	return cfg
}

// TestRestartOrderingByLogDevice pins the paper's core recovery claim:
// under an identical workload and checkpoint regime, restart time orders
// NVEM-resident log < SSD log < magnetic-disk log, because the redo log
// scan is device-bound.
func TestRestartOrderingByLogDevice(t *testing.T) {
	restart := func(kind string) *RestartReport {
		res, err := MeasureRestart(recoveryConfig(t, kind), 500)
		if err != nil {
			t.Fatalf("%s: %v", kind, err)
		}
		r := res.Restart
		if r == nil || !r.Recovered {
			t.Fatalf("%s: no completed restart: %+v", kind, r)
		}
		if r.Snapshot.LogPages == 0 {
			t.Fatalf("%s: empty redo log — checkpointing never let log accumulate?", kind)
		}
		return r
	}
	nvem := restart("nvem")
	ssd := restart("ssd")
	disk := restart("disk")
	if !(nvem.RestartMS < ssd.RestartMS && ssd.RestartMS < disk.RestartMS) {
		t.Fatalf("restart ordering violated: nvem=%.1f ssd=%.1f disk=%.1f ms",
			nvem.RestartMS, ssd.RestartMS, disk.RestartMS)
	}
	if !(nvem.EstimateMS < ssd.EstimateMS && ssd.EstimateMS < disk.EstimateMS) {
		t.Fatalf("analytic ordering violated: nvem=%.1f ssd=%.1f disk=%.1f ms",
			nvem.EstimateMS, ssd.EstimateMS, disk.EstimateMS)
	}
}

// TestMeasureRestartBreakdown: the simulated restart decomposes exactly
// into reboot + log scan + redo, the window metrics match a plain Run of
// the same configuration, and the report line renders.
func TestMeasureRestartBreakdown(t *testing.T) {
	cfg := recoveryConfig(t, "disk")
	res, err := MeasureRestart(cfg, 750)
	if err != nil {
		t.Fatal(err)
	}
	r := res.Restart
	if r == nil || !r.Recovered {
		t.Fatalf("no restart report: %+v", r)
	}
	sum := r.RebootMS + r.LogScanMS + r.RedoMS
	if math.Abs(r.RestartMS-sum) > 1e-6 {
		t.Fatalf("restart %.6f != reboot+scan+redo %.6f", r.RestartMS, sum)
	}
	if r.RebootMS != 750 {
		t.Fatalf("reboot %v, want 750", r.RebootMS)
	}
	if r.Snapshot.RedoPages == 0 || r.Snapshot.Resident == 0 {
		t.Fatalf("empty crash snapshot: %+v", r.Snapshot)
	}
	if r.EstimateMS <= r.RebootMS {
		t.Fatalf("estimate %v prices no I/O", r.EstimateMS)
	}
	if !strings.Contains(res.Report(), "recovery:") {
		t.Fatalf("report misses the recovery line:\n%s", res.Report())
	}

	plain, err := Run(recoveryConfig(t, "disk"))
	if err != nil {
		t.Fatal(err)
	}
	if plain.String() != res.String() {
		t.Fatalf("restart measurement perturbed the window metrics:\n%s\nvs\n%s",
			plain.String(), res.String())
	}
}

// TestMeasureRestartValidates covers the error paths.
func TestMeasureRestartValidates(t *testing.T) {
	if _, err := MeasureRestart(Config{}, 0); err == nil {
		t.Fatal("invalid config must error")
	}
	if _, err := MeasureRestart(dcConfig(t, 100), -1); err == nil {
		t.Fatal("negative reboot must error")
	}
}

// failCluster builds a 2-node cluster with checkpointing, a node-0 crash
// mid-window and the commit timeline enabled.
func failCluster(t *testing.T, crashAt float64) ClusterConfig {
	t.Helper()
	cfg := dcCluster(t, 2, 300, true)
	cfg.Base.MeasureMS = 8000
	cfg.Base.Buffer.CheckpointIntervalMS = 1500
	cfg.Failure = FailureConfig{Enabled: true, Node: 0, CrashAtMS: crashAt, RebootMS: 200}
	cfg.TimelineBucketMS = 500
	return cfg
}

// TestClusterFailureValidate covers failure-injection validation.
func TestClusterFailureValidate(t *testing.T) {
	for name, mutate := range map[string]func(*ClusterConfig){
		"node out of range": func(c *ClusterConfig) { c.Failure.Node = 7 },
		"crash before window": func(c *ClusterConfig) {
			c.Failure.CrashAtMS = 0
			c.Failure.Enabled = true
		},
		"crash after window": func(c *ClusterConfig) { c.Failure.CrashAtMS = c.Base.MeasureMS + 1 },
		"negative reboot":    func(c *ClusterConfig) { c.Failure.RebootMS = -1 },
		"negative timeline":  func(c *ClusterConfig) { c.TimelineBucketMS = -1 },
	} {
		cfg := failCluster(t, 1000)
		mutate(&cfg)
		if err := cfg.Validate(); err == nil {
			t.Errorf("%s: Validate passed", name)
		}
	}
}

// TestClusterFailureAvailability: after a mid-window crash the cluster
// keeps committing (survivors absorb rerouted arrivals), throughput dips
// around the outage and ramps back once the node rejoins, and the whole
// run is deterministic.
func TestClusterFailureAvailability(t *testing.T) {
	run := func() *ClusterResult {
		res, err := RunCluster(failCluster(t, 1000))
		if err != nil {
			t.Fatal(err)
		}
		return res
	}
	res := run()
	agg := res.Cluster
	if agg.Restart == nil || !agg.Restart.Recovered {
		t.Fatalf("node 0 never recovered: %+v", agg.Restart)
	}
	if agg.Restart.Node != 0 {
		t.Fatalf("restart report for node %d, want 0", agg.Restart.Node)
	}
	if len(agg.Timeline) == 0 {
		t.Fatal("no commit timeline")
	}
	var total int64
	for _, n := range agg.Timeline {
		total += n
	}
	if total != agg.Commits {
		t.Fatalf("timeline sums to %d commits, aggregate has %d", total, agg.Commits)
	}
	// The crash lands in bucket 2 (1000 ms / 500 ms buckets); the cluster
	// must still commit in every bucket after it — node 1 absorbs the load.
	crashBucket := int(1000 / 500)
	for i := crashBucket; i < len(agg.Timeline); i++ {
		if agg.Timeline[i] == 0 {
			t.Fatalf("bucket %d has no commits — survivors did not absorb the load: %v",
				i, agg.Timeline)
		}
	}
	// Both nodes commit over the window: node 0 before the crash and
	// after rejoining, node 1 throughout.
	for i, n := range res.Nodes {
		if n.Commits == 0 {
			t.Fatalf("node %d committed nothing", i)
		}
	}
	if a, b := run().Report(), res.Report(); a != b {
		t.Fatalf("failure-injection run is nondeterministic:\n%s\nvs\n%s", a, b)
	}
}

// TestCrashMidCheckpointFlush: a crash inside a checkpoint's flush
// abandons that checkpoint. Node 0 checkpoints at every 1,500 ms beat and
// crashes at 3,001 ms, 1 ms into the flush begun at 3,000 ms, while the
// checkpoint begun at 1,500 ms, as the window opened, completed inside the
// window. Checkpoints counts the completed one and not the abandoned one,
// the crash snapshot's redo log runs from the completed one, and the node
// still recovers.
func TestCrashMidCheckpointFlush(t *testing.T) {
	c, err := newCluster(failCluster(t, 1501))
	if err != nil {
		t.Fatal(err)
	}
	n := c.nodes[0]
	type probe struct{ ckpts, ckptWrites, logWrites, logSinceCkpt int64 }
	read := func(p *probe) func() {
		return func() {
			st := n.bm.Stats()
			*p = probe{st.Checkpoints, st.CkptWrites, st.LogWrites, n.bm.LogSinceCkpt()}
		}
	}
	var beforeBeat, atCrash probe
	n.s.Schedule(2999, read(&beforeBeat))
	n.s.Schedule(3001, read(&atCrash)) // fires before the crash at the same instant
	c.runPhases()
	r := n.restartReport()
	c.finish()
	if r == nil || !r.Recovered || r.CrashAtMS != 3001 {
		t.Fatalf("node 0 did not crash at 3001 ms and recover: %+v", r)
	}
	if beforeBeat.ckpts != 1 {
		t.Errorf("before the 3000 ms beat Checkpoints = %d, want 1: the checkpoint begun at 1500 ms completed in the window", beforeBeat.ckpts)
	}
	if atCrash.ckptWrites <= beforeBeat.ckptWrites || atCrash.ckpts != 1 {
		t.Errorf("at the crash the 3000 ms checkpoint issued %d flush writes and Checkpoints = %d; want some writes and 1: a begun checkpoint is not complete",
			atCrash.ckptWrites-beforeBeat.ckptWrites, atCrash.ckpts)
	}
	sinceCompleted := beforeBeat.logSinceCkpt + atCrash.logWrites - beforeBeat.logWrites
	if lp := r.Snapshot.LogPages; lp == 0 || lp != atCrash.logSinceCkpt || lp != sinceCompleted {
		t.Errorf("crash snapshot holds %d log pages; want %d, the log written since the checkpoint that completed",
			lp, sinceCompleted)
	}
}

// TestClusterCrashWithoutRecoveryWindow: a crash so late the node cannot
// finish redo inside the window still reports, unrecovered.
func TestClusterCrashWithoutRecoveryWindow(t *testing.T) {
	cfg := failCluster(t, 7990)
	cfg.Failure.RebootMS = 60_000 // reboot alone outlasts the window
	res, err := RunCluster(cfg)
	if err != nil {
		t.Fatal(err)
	}
	r := res.Cluster.Restart
	if r == nil || r.Recovered {
		t.Fatalf("want an unrecovered restart report, got %+v", r)
	}
	if !strings.Contains(r.String(), "NOT RECOVERED") {
		t.Fatalf("report line misses the unrecovered marker: %s", r)
	}
}

// TestSingleNodeClusterCrashDropsArrivals: with every node down the
// rerouter finds no target and in-window arrivals are dropped.
func TestSingleNodeClusterCrashDropsArrivals(t *testing.T) {
	base := dcConfig(t, 200)
	base.WarmupMS = 1000
	base.MeasureMS = 6000
	base.Buffer.CheckpointIntervalMS = 800
	cfg := ClusterConfig{
		Base:       base,
		NumNodes:   1,
		Generators: []workload.Generator{base.Generator},
		Failure:    FailureConfig{Enabled: true, Node: 0, CrashAtMS: 1000, RebootMS: 100},
	}
	res, err := RunCluster(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if res.Cluster.Dropped == 0 {
		t.Fatal("no arrivals dropped during a single-node outage")
	}
	if res.Cluster.Restart == nil || !res.Cluster.Restart.Recovered {
		t.Fatalf("node never recovered: %+v", res.Cluster.Restart)
	}
}

// TestCrashWakesNoKilledWaiter: node 0 crashes while two of its
// transactions wait for page 0's lock, which a third holds. The crash's
// releases grant the lock to each killed waiter in turn, and no grant may
// wake one of them or credit its wait to the window: under local and
// global locking, on both engines.
func TestCrashWakesNoKilledWaiter(t *testing.T) {
	// Three identical transactions each write page 0 first and then read
	// 100 pages of their own, so whichever locks page 0 first holds it
	// far past the crash at 600 ms while the other two wait.
	long := func(base int64) workload.Tx {
		tx := workload.Tx{Accesses: []workload.Access{access(0, true)}}
		for j := int64(1); j <= 100; j++ {
			tx.Accesses = append(tx.Accesses, access(base+j, false))
		}
		return tx
	}
	for _, global := range []bool{false, true} {
		for _, pdes := range []bool{false, true} {
			gen := &scriptGen{rate: 400, txs: []workload.Tx{long(1000), long(2000), long(3000)}}
			base := scriptConfig(gen)
			base.WarmupMS, base.MeasureMS = 100, 2000
			cfg := ClusterConfig{
				Base:        base,
				NumNodes:    2,
				Generators:  []workload.Generator{gen, &scriptGen{rate: 400}}, // node 1 idles
				GlobalLocks: global,
				Failure:     FailureConfig{Enabled: true, Node: 0, CrashAtMS: 500, RebootMS: 100},
				PDES:        PDESConfig{Enabled: pdes, Workers: 1},
			}
			if err := cfg.Validate(); err != nil {
				t.Fatal(err)
			}
			c, err := newCluster(cfg)
			if err != nil {
				t.Fatal(err)
			}
			n := c.nodes[0]
			// At the crash instant, before the crash, wrap each in-flight
			// record's waiter and grant continuation to count the grants
			// the manager makes to it and the wake events that reach it.
			var recs []*txRun
			grants, killedWakes := 0, 0
			n.s.Schedule(600, func() {
				for r := n.running.head; r != nil; r = r.nextRun {
					recs = append(recs, r)
					resume := r.granted
					r.granted = func() {
						if r.dead {
							killedWakes++
						}
						resume()
					}
					r.Waiter = wakeFunc(func() {
						grants++
						r.Wake()
					})
				}
			})
			c.runPhases()
			c.finish()

			waiters := 0
			for _, r := range recs {
				if !r.dead {
					t.Fatalf("global %v, PDES %v: an in-flight record survived the crash", global, pdes)
				}
				if r.i == 0 && r.waitStart > 0 {
					waiters++
				}
			}
			if len(recs) != 3 || waiters != 2 || grants != 2 {
				t.Fatalf("global %v, PDES %v: %d records in flight at the crash, %d of them waiting, %d grants to them; want 3, 2 and 2",
					global, pdes, len(recs), waiters, grants)
			}
			if killedWakes != 0 || n.win.lockWaitSum != 0 {
				t.Fatalf("global %v, PDES %v: %d wake events reached killed waiters, %v ms of lock wait credited",
					global, pdes, killedWakes, n.win.lockWaitSum)
			}
		}
	}
}
