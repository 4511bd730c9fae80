package experiments

import (
	"fmt"

	"repro/internal/buffer"
	"repro/internal/cc"
	"repro/internal/core"
	"repro/internal/stats"
	"repro/internal/workload"
)

// AblationGroupCommit quantifies the claim of section 4.2: group commit
// permits much higher transaction rates on a single log disk because the
// log data of multiple transactions is written in one I/O — and the same
// rates are reachable without group commit by moving the log to NVEM, which
// is why NV memory "reduces the need for optimizations like group commit".
func AblationGroupCommit(o Options) (*stats.Figure, error) {
	fig := &stats.Figure{
		Title:  "Ablation A1: group commit vs. NV memory on a single log disk (Debit-Credit, NOFORCE)",
		XLabel: "TPS",
		YLabel: "mean response time [ms]",
		X:      o.rates(),
	}
	variants := []struct {
		label string
		mut   func(*core.Config)
	}{
		{"single-log-disk", func(*core.Config) {}},
		{"single-log-disk+group-commit", func(c *core.Config) {
			c.Buffer.GroupCommit = true
			c.Buffer.GroupCommitWaitMS = 5
		}},
		{"log-nvem-no-group-commit", nil}, // built from the NVEM log scheme
	}
	cells, err := sweep(o, len(variants), len(fig.X), func(si, xi int, o Options) (*core.Result, error) {
		v, rate := variants[si], fig.X[xi]
		setup := DCSetup{Rate: rate, DB: DBSpec{Kind: DBRegular},
			Log: LogSpec{Kind: LogDisk, Disks: 1}}
		if v.mut == nil {
			setup.Log = LogSpec{Kind: LogNVEM}
		}
		cfg, err := setup.Build(o)
		if err != nil {
			return nil, err
		}
		if v.mut != nil {
			v.mut(&cfg)
		}
		res, err := core.Run(cfg)
		if err != nil {
			return nil, fmt.Errorf("ablation group-commit %s @%v: %w", v.label, rate, err)
		}
		return res, nil
	})
	if err != nil {
		return nil, err
	}
	labels := labelsOf(len(variants), func(i int) string { return variants[i].label })
	if err := plot(fig, labels, cells, respMean); err != nil {
		return nil, err
	}
	return fig, nil
}

// AblationAsyncReplacement quantifies footnote 3 / section 4.3: writing
// dirty victims asynchronously in software leaves only the read and the log
// write synchronous, considerably reducing the gap to the write-buffer
// configurations — at the cost of a more sophisticated buffer manager.
func AblationAsyncReplacement(o Options) (*stats.Figure, error) {
	fig := &stats.Figure{
		Title:  "Ablation A2: asynchronous buffer replacement (software) vs. write buffer (NV memory)",
		XLabel: "TPS",
		YLabel: "mean response time [ms]",
		X:      o.rates(),
	}
	variants := []struct {
		label string
		db    DBSpec
		log   LogSpec
		async bool
	}{
		{"disk-sync-replacement", DBSpec{Kind: DBRegular}, LogSpec{Kind: LogDisk}, false},
		{"disk-async-replacement", DBSpec{Kind: DBRegular}, LogSpec{Kind: LogDisk}, true},
		{"disk-cache-write-buffer", DBSpec{Kind: DBDiskCacheWB, Size: 500}, LogSpec{Kind: LogDiskWB, Size: 500}, false},
	}
	cells, err := sweep(o, len(variants), len(fig.X), func(si, xi int, o Options) (*core.Result, error) {
		v, rate := variants[si], fig.X[xi]
		cfg, err := DCSetup{Rate: rate, DB: v.db, Log: v.log}.Build(o)
		if err != nil {
			return nil, err
		}
		cfg.Buffer.AsyncReplacement = v.async
		res, err := core.Run(cfg)
		if err != nil {
			return nil, fmt.Errorf("ablation async-replacement %s @%v: %w", v.label, rate, err)
		}
		return res, nil
	})
	if err != nil {
		return nil, err
	}
	labels := labelsOf(len(variants), func(i int) string { return variants[i].label })
	if err := plot(fig, labels, cells, respMean); err != nil {
		return nil, err
	}
	return fig, nil
}

// AblationMigrationModes compares the NVEM-cache migration modes on the
// trace workload; the paper found migrating all pages gives the best NVEM
// hit ratios (section 4.6).
func AblationMigrationModes(o Options) (*stats.Figure, error) {
	fig := &stats.Figure{
		Title:  "Ablation A3: NVEM cache migration modes (trace workload, MM=1000, NVEM=2000)",
		XLabel: "mode(0=all 1=modified 2=unmodified)",
		YLabel: "additional NVEM hit ratio [%] / response [ms]",
		X:      []float64{0, 1, 2},
	}
	modes := []buffer.MigrateMode{buffer.MigrateAll, buffer.MigrateModified, buffer.MigrateUnmodified}
	cells, err := sweep(o, 1, len(modes), func(_, xi int, o Options) (*core.Result, error) {
		cfg, err := TraceSetup{MMBuffer: 1000,
			DB: DBSpec{Kind: DBNVEMCache, Size: 2000}, Log: LogSpec{Kind: LogNVEM}}.Build(o)
		if err != nil {
			return nil, err
		}
		for i := range cfg.Buffer.Partitions {
			cfg.Buffer.Partitions[i].NVEMCacheMode = modes[xi]
		}
		res, err := core.Run(cfg)
		if err != nil {
			return nil, fmt.Errorf("ablation migration mode %v: %w", modes[xi], err)
		}
		return res, nil
	})
	if err != nil {
		return nil, err
	}
	if err := addSeries(fig, "nvem-add-hit-pct", cells[0], nvemAddHitPct); err != nil {
		return nil, err
	}
	if err := addSeries(fig, "resp-ms", cells[0], respMean); err != nil {
		return nil, err
	}
	return fig, nil
}

// Metric extractors local to the clustering ablation.

func fixesPerTx(r *core.Result) float64 {
	if r.Commits == 0 {
		return 0
	}
	return float64(r.Buffer.Fixes) / float64(r.Commits)
}

func lockConflicts(r *core.Result) float64 { return float64(r.Locks.Conflicts) }

// AblationClustering quantifies the BRANCH/TELLER clustering option of
// section 3.1: storing TELLER records in their BRANCH record's page reduces
// the page accesses per transaction from four to three, improves hit ratios
// and (under page-level CC) reduces data contention.
func AblationClustering(o Options) (string, error) {
	out := "Ablation A5: BRANCH/TELLER clustering (Debit-Credit, 500 TPS, disk-based)\n"
	variants := []bool{true, false}
	cells, err := sweep(o, len(variants), 1, func(vi, _ int, o Options) (*core.Result, error) {
		clustered := variants[vi]
		dcc := workload.DefaultDebitCreditConfig(500)
		dcc.ClusterBranchTeller = clustered
		gen, err := workload.NewDebitCredit(dcc)
		if err != nil {
			return nil, err
		}
		cfg := o.baseConfig()
		cfg.Partitions = gen.Partitions()
		cfg.Generator = gen
		cfg.CCModes = make([]cc.Granularity, len(cfg.Partitions))
		for i := range cfg.CCModes {
			cfg.CCModes[i] = cc.PageLevel
		}
		cfg.CCModes[gen.HistoryPartition()] = cc.NoCC
		cfg.DiskUnits = diskUnits(12, 96, 2, 8)
		cfg.Buffer = buffer.Config{BufferSize: 2000, Logging: true}
		if err := place(&cfg, DBSpec{Kind: DBRegular}, LogSpec{Kind: LogDisk}); err != nil {
			return nil, err
		}
		res, err := core.Run(cfg)
		if err != nil {
			return nil, fmt.Errorf("ablation clustering=%v: %w", clustered, err)
		}
		return res, nil
	})
	if err != nil {
		return "", err
	}
	for vi, clustered := range variants {
		label := "clustered"
		if !clustered {
			label = "unclustered"
		}
		c := cells[vi][0]
		out += fmt.Sprintf("  %-11s resp=%s ms  fixes/tx=%s  mmHit=%s%%  lock conflicts=%s\n",
			label, c.fmtMeanCI("%6.2f", respMean), c.fmtMeanCI("%.2f", fixesPerTx),
			c.fmtMeanCI("%.1f", mmHitPct), c.fmtMeanCI("%.0f", lockConflicts))
	}
	out += "Clustering reduces the distinct pages per transaction from four to\n"
	out += "three: the TELLER access always finds its BRANCH page buffered, which\n"
	out += "raises the hit ratio and (with page-level CC) lowers data contention.\n"
	return out, nil
}

// AblationDestagePolicy compares immediate vs. deferred NVEM→disk
// propagation under FORCE, where pages are re-forced frequently and deferred
// destage saves disk writes (the section 3.2 discussion).
func AblationDestagePolicy(o Options) (string, error) {
	out := "Ablation A4: NVEM destage policy under FORCE (Debit-Credit, 500 TPS, NVEM cache 1000)\n"
	variants := []bool{false, true}
	cells, err := sweep(o, len(variants), 1, func(vi, _ int, o Options) (*core.Result, error) {
		cfg, err := DCSetup{Rate: 500, Force: true, MMBuffer: 2000,
			DB: DBSpec{Kind: DBNVEMCache, Size: 1000}, Log: LogSpec{Kind: LogNVEM}}.Build(o)
		if err != nil {
			return nil, err
		}
		cfg.Buffer.NVEMDeferredDestage = variants[vi]
		res, err := core.Run(cfg)
		if err != nil {
			return nil, fmt.Errorf("ablation destage deferred=%v: %w", variants[vi], err)
		}
		return res, nil
	})
	if err != nil {
		return "", err
	}
	for vi, deferred := range variants {
		policy := "immediate"
		if deferred {
			policy = "deferred"
		}
		c := cells[vi][0]
		out += fmt.Sprintf("  %-9s resp=%s ms  async disk writes=%s  evict destages=%s  disk writes=%s\n",
			policy, c.fmtMeanCI("%6.2f", respMean),
			c.fmtMeanCI("%6.0f", func(r *core.Result) float64 { return float64(r.Buffer.AsyncDiskWrites) }),
			c.fmtMeanCI("%5.0f", func(r *core.Result) float64 { return float64(r.Buffer.NVEMEvictWrites) }),
			c.fmtMeanCI("%6.0f", func(r *core.Result) float64 { return float64(r.Units[0].Stats.Writes) }))
	}
	out += "Deferred destage trades disk-write traffic for an extra NVEM transfer\n"
	out += "per eviction; it pays off when forced pages are modified repeatedly.\n"
	return out, nil
}
