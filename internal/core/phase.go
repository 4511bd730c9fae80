package core

import (
	"sort"

	"repro/internal/sim"
)

// This file is the engine's run controller. A simulation is no longer a
// hard-coded warmup→measure pair of kernel runs: it is a sorted schedule
// of phase boundaries, each advancing the kernel to a timestamp and then
// performing a transition (open the measurement window, inject a node
// crash, ...). Crash/restart is just one more boundary plus the kernel
// events it schedules, and each node tracks its own lifecycle phase
// (running → crashed → recovering → rejoined-as-running) independently
// of the cluster-wide schedule.

// nodePhase is one node's lifecycle state.
type nodePhase uint8

const (
	// nodeRunning: the node accepts arrivals and executes transactions.
	// A recovered node returns here when it rejoins.
	nodeRunning nodePhase = iota
	// nodeCrashed: volatile state lost; arrivals reroute to survivors.
	nodeCrashed
	// nodeRecovering: reboot finished, redo recovery in progress.
	nodeRecovering
)

func (p nodePhase) String() string {
	switch p {
	case nodeRunning:
		return "running"
	case nodeCrashed:
		return "crashed"
	default:
		return "recovering"
	}
}

// phaseStep is one boundary of the run schedule: advance simulated time
// to at, then run the transition.
type phaseStep struct {
	at  sim.Time
	run func()
}

// phases builds the run schedule: the measurement-window snapshot at the
// end of warm-up, an optional crash injection inside the window, and the
// end-of-run boundary. Steps are sorted by time (stable, so equal-time
// steps keep their declaration order).
func (c *cluster) phases() []phaseStep {
	warmup, failure := c.cfg.Base.WarmupMS, &c.cfg.Failure
	steps := []phaseStep{{at: warmup, run: c.openWindow}}
	if failure.Enabled {
		steps = append(steps, phaseStep{at: warmup + failure.CrashAtMS, run: c.injectCrash})
	}
	steps = append(steps, phaseStep{at: warmup + c.cfg.Base.MeasureMS})
	sort.SliceStable(steps, func(i, j int) bool { return steps[i].at < steps[j].at })
	return steps
}

// runPhases executes the schedule on the interconnect: every event up to
// each boundary fires before the boundary's transition runs (events
// exactly at the boundary included). The coupled engine runs its kernel
// to each boundary; the parallel coordinator advances the per-node
// kernels in lookahead windows between the same boundaries (pdes.go).
func (c *cluster) runPhases() { c.net.run(c.phases()) }

// openWindow starts the measurement window on every node and zeroes the
// cluster-wide lock counters.
func (c *cluster) openWindow() {
	for _, n := range c.nodes {
		n.snapshot()
	}
	if c.glocks != nil {
		c.glocks.ResetStats()
	}
}

// injectCrash fails the configured node at the current instant.
func (c *cluster) injectCrash() {
	c.nodes[c.cfg.Failure.Node].crashNow(c.cfg.Failure.RebootMS)
}
