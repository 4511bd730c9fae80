package experiments

import (
	"fmt"
	"regexp"
	"sort"
	"strings"

	"repro/internal/stats"
)

// Experiment is one reproducible unit of the paper's evaluation.
type Experiment struct {
	Name  string // id used on the command line, e.g. "fig4.1"
	Title string
	Run   func(o Options) (string, error)
}

// renderer is a figure or table an experiment produces.
type renderer interface{ Render() string }

// one, two and three adapt an experiment function that returns that many
// renderers to Experiment.Run: the output is their renderings in order,
// joined by "\n".
func one[A renderer](f func(Options) (A, error)) func(Options) (string, error) {
	return func(o Options) (string, error) {
		a, err := f(o)
		if err != nil {
			return "", err
		}
		return a.Render(), nil
	}
}

func two[A, B renderer](f func(Options) (A, B, error)) func(Options) (string, error) {
	return func(o Options) (string, error) {
		a, b, err := f(o)
		if err != nil {
			return "", err
		}
		return a.Render() + "\n" + b.Render(), nil
	}
}

func three[A, B, C renderer](f func(Options) (A, B, C, error)) func(Options) (string, error) {
	return func(o Options) (string, error) {
		a, b, c, err := f(o)
		if err != nil {
			return "", err
		}
		return a.Render() + "\n" + b.Render() + "\n" + c.Render(), nil
	}
}

// table42 binds Table42's update strategy.
func table42(force bool) func(Options) (*stats.Table, error) {
	return func(o Options) (*stats.Table, error) { return Table42(o, force) }
}

// All returns every experiment, sorted by name.
func All() []Experiment {
	exps := []Experiment{
		{"fig4.1", "Influence of log file allocation (Debit-Credit, NOFORCE)", one(Fig41)},
		{"fig4.2", "Impact of database allocation (Debit-Credit, NOFORCE)", one(Fig42)},
		{"fig4.3", "FORCE vs. NOFORCE update strategy (Debit-Credit)", one(Fig43)},
		{"fig4.4", "Impact of caching for different main-memory buffer sizes (NOFORCE, 500 TPS)", one(Fig44)},
		{"table4.2a", "MM and 2nd-level cache hit ratios, NOFORCE", one(table42(false))},
		{"table4.2b", "MM and 2nd-level cache hit ratios, FORCE", one(table42(true))},
		{"fig4.5", "Impact of 2nd-level buffer size (NOFORCE, 500 TPS, MM=500)", two(Fig45)},
		{"fig4.6", "Main-memory buffer size for the real-life trace workload", one(Fig46)},
		{"fig4.7", "2nd-level buffer size for the real-life trace workload", one(Fig47)},
		{"fig4.8", "Page- vs. object-locking under lock contention", one(Fig48)},
		{"table2.1", "Storage prices / access times and cost-effectiveness", Table21},
		{"ablation.group-commit", "Group commit vs. NV memory on a single log disk", one(AblationGroupCommit)},
		{"ablation.async-replacement", "Asynchronous buffer replacement vs. write buffer", one(AblationAsyncReplacement)},
		{"ablation.migration-modes", "NVEM cache migration modes on the trace workload", one(AblationMigrationModes)},
		{"ablation.destage-policy", "Immediate vs. deferred NVEM→disk propagation under FORCE", AblationDestagePolicy},
		{"ablation.clustering", "BRANCH/TELLER clustering vs. separate record types", AblationClustering},
		{"recovery.restart", "Restart time after a crash vs. log/database placement", one(RecoveryRestart)},
		{"recovery.checkpoint", "Fuzzy-checkpoint interval: runtime overhead vs. restart time", two(RecoveryCheckpoint)},
		{"recovery.availability", "Cluster throughput dip and ramp-back around a node crash (shared vs. private NVEM)", two(RecoveryAvailability)},
		{"workload.burstiness", "Response time vs. MMPP burst coefficient at fixed mean TPS", two(WorkloadBurstiness)},
		{"workload.spike-crash", "Crash-coincident load spike: recovery-aware admission control on vs. off", two(WorkloadSpikeCrash)},
		{"workload.diurnal", "Diurnal (sinusoidal) rate modulation over a long window", two(WorkloadDiurnal)},
		{"workload.skew", "Access skew (Zipf / hot-spot) vs. NVEM second-level cache size", two(WorkloadSkew)},
		{"workload.multiclass", "Multi-class mix: batch scans vs. short updates sharing the buffer", two(WorkloadMulticlass)},
		{"workload.closedloop", "Closed-loop terminals: response-time knee vs. terminal count", three(WorkloadClosedLoop)},
		{"workload.replay", "Recorded rate-timeline replay vs. Poisson at equal mean rate", one(WorkloadReplay)},
		{"cluster.scaleout", "Multi-node scale-out at fixed aggregate load (shared NVEM vs. disk-only)", two(ClusterScaleout)},
		{"cluster.scaleout64", "64-node scale-up under the conservative parallel engine (PDES)", two(ClusterScaleout64)},
		{"cluster.scaleout256", "256-node scale-up under PDES: shared vs. private NVEM cache coherence", two(ClusterScaleout256)},
		{"cluster.allocation", "Shared vs. private NVEM caches on a 4-node data-sharing cluster", one(ClusterAllocation)},
		{"cluster.locking", "Global vs. local locking under contention (2-node data sharing)", two(ClusterLocking)},
	}
	sort.Slice(exps, func(i, j int) bool { return exps[i].Name < exps[j].Name })
	return exps
}

// Match returns the experiments whose id matches the anchored regular
// expression pattern, in registry order. A plain id like "fig4.1" selects
// that single experiment; "fig4\..*" selects all figures. It is an error
// when the pattern is invalid or matches nothing.
func Match(pattern string) ([]Experiment, error) {
	re, err := regexp.Compile("^(?:" + pattern + ")$")
	if err != nil {
		return nil, fmt.Errorf("experiments: bad pattern %q: %v", pattern, err)
	}
	var out []Experiment
	for _, e := range All() {
		if re.MatchString(e.Name) {
			out = append(out, e)
		}
	}
	if len(out) == 0 {
		return nil, fmt.Errorf("experiments: no experiment matches %q (known: %s)",
			pattern, strings.Join(names(), ", "))
	}
	return out, nil
}

// names lists every experiment id.
func names() []string {
	var out []string
	for _, e := range All() {
		out = append(out, e.Name)
	}
	return out
}
