package core

import (
	"testing"

	"repro/internal/buffer"
	"repro/internal/cc"
	"repro/internal/storage"
)

// TestPoolPoisonInvariance runs the same configurations with and without
// freelist poisoning across every pooled layer — transaction records and
// host operations here, buffer operations, disk operations, lock records —
// and requires byte-identical reports. Poison fills freed records with
// sentinel garbage, so any reset line deleted from any reuse path makes
// the poisoned run's report diverge (or panic on a sentinel state). The
// PDES shared-NVEM cluster adds the barrier delivery records, late
// invalidations included, the remote fix and the coherence hand-off to the
// single-node engine's paths.
func TestPoolPoisonInvariance(t *testing.T) {
	runs := []struct {
		name string
		run  func() string
	}{
		{"single node", func() string {
			res, err := Run(dcConfig(t, 150))
			if err != nil {
				t.Fatal(err)
			}
			return res.Report()
		}},
		{"PDES shared NVEM", func() string {
			c, res, err := runCluster(pdesSharedCluster(t, 3, 300, 2))
			if err != nil {
				t.Fatal(err)
			}
			if lateRecords(c) == 0 {
				t.Fatal("PDES run delivered no late-invalidation record")
			}
			return res.Report()
		}},
	}
	clean := make([]string, len(runs))
	for i, r := range runs {
		clean[i] = r.run()
	}

	poolPoison = true
	buffer.SetPoolPoison(true)
	storage.SetPoolPoison(true)
	cc.SetPoolPoison(true)
	defer func() {
		poolPoison = false
		buffer.SetPoolPoison(false)
		storage.SetPoolPoison(false)
		cc.SetPoolPoison(false)
	}()
	for i, r := range runs {
		if poisoned := r.run(); poisoned != clean[i] {
			t.Fatalf("%s: poisoned run diverges from clean run:\n--- clean ---\n%s\n--- poisoned ---\n%s",
				r.name, clean[i], poisoned)
		}
	}
}

// TestTxRunFreelistRecycles verifies committed transactions return their
// records to the node freelist and that a poisoned recycled record is
// fully re-initialized (the poison-invariance test above proves the
// behavioral side; this pins the mechanism itself).
func TestTxRunFreelistRecycles(t *testing.T) {
	poolPoison = true
	defer func() { poolPoison = false }()

	cfg := dcConfig(t, 150)
	cfg.WarmupMS, cfg.MeasureMS = 1000, 1000
	c, err := newCluster(oneNode(cfg))
	if err != nil {
		t.Fatal(err)
	}
	c.runPhases()
	e := c.nodes[0]
	if e.freeTx == nil {
		t.Fatal("no committed transaction record returned to the freelist")
	}
	if head := e.freeTx; head.page != -1 || head.i != -1 || !head.dead {
		t.Fatalf("freed txRun not poisoned: page=%d i=%d dead=%v", head.page, head.i, head.dead)
	}
	win := e.collect()
	c.finish()
	if win.commits == 0 {
		t.Fatal("run committed nothing; freelist assertion is vacuous")
	}
}
