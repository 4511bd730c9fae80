package main

import (
	"math"
	"slices"
	"time"

	"repro/internal/core"
)

// metricSpec names a reported metric and its unit; directions and bounds
// live in BENCHMARK.json, which the tests keep in step with these lists.
type metricSpec struct{ name, unit string }

// endToEndSpecs are the metrics of an untraced run: host time and memory a
// user of the simulator waits for and pays. Times are in record-machine
// units (see calibrator).
var endToEndSpecs = []metricSpec{
	{"results_per_s", "1/s"},
	{"op_ms.p50", "ms"},
	{"op_ms.p90", "ms"},
	{"setup_s", "s"},
	{"allocs_per_op", "count"},
	{"alloc_mb_per_op", "MB"},
}

// layerSpecs are the metrics of a traced run: host self time per layer,
// the benchmark's spans around its calls into layers, and simulated counts
// that a change meant only to speed the simulator up must not move.
var layerSpecs = func() []metricSpec {
	var out []metricSpec
	for _, l := range layers {
		out = append(out, metricSpec{l + ".self_frac", "ratio"}, metricSpec{l + ".self_us_per_op", "us"})
	}
	return append(out,
		metricSpec{"experiments.build_us", "us"},
		metricSpec{"core.run_ms", "ms"},
		metricSpec{"workload.next_per_op", "count"},
		metricSpec{"workload.next_ns", "ns"},
		metricSpec{"trace.gen_ms", "ms"},
		metricSpec{"pdes.speedup_2w", "ratio"},
		metricSpec{"bench.trace_overhead_frac", "ratio"},
		metricSpec{"bench.machine_factor", "ratio"},
		metricSpec{"gc.cpu_frac", "ratio"},
		metricSpec{"gc.cycles_per_op", "count"},
		metricSpec{"core.resp_ms", "ms"},
		metricSpec{"core.cpu_util", "ratio"},
		metricSpec{"core.lock_wait_ms", "ms"},
		metricSpec{"core.io_wait_ms", "ms"},
		metricSpec{"core.lock_msgs_per_tx", "count"},
		metricSpec{"core.invalidations_per_tx", "count"},
		metricSpec{"buffer.fixes_per_tx", "count"},
		metricSpec{"buffer.mm_hit_pct", "%"},
		metricSpec{"buffer.nvem_hit_pct", "%"},
		metricSpec{"buffer.device_reads_per_tx", "count"},
		metricSpec{"buffer.victim_writes_per_tx", "count"},
		metricSpec{"buffer.log_writes_per_tx", "count"},
		metricSpec{"storage.ios_per_tx", "count"},
		metricSpec{"storage.disk_util_max", "ratio"},
		metricSpec{"cc.requests_per_tx", "count"},
		metricSpec{"cc.conflict_pct", "%"},
		metricSpec{"cc.deadlocks_per_ktx", "count"},
	)
}()

// endToEndMetrics computes the end-to-end metrics from the untraced rounds.
func endToEndMetrics(r *run) map[string]float64 {
	return map[string]float64{
		"results_per_s":   median(r.rates),
		"op_ms.p50":       median(r.opMS),
		"op_ms.p90":       percentile(r.opMS, 0.9),
		"setup_s":         median(r.setupS),
		"allocs_per_op":   ratio(float64(r.mallocs), float64(r.ops)),
		"alloc_mb_per_op": ratio(float64(r.allocBytes)/1e6, float64(r.ops)),
	}
}

// layerMetrics computes the per-layer metrics of a traced run. A layer the
// workload never enters reads 0.
func layerMetrics(r *run) map[string]float64 {
	m := map[string]float64{}
	var total int64
	for _, ns := range r.layerNS {
		total += ns
	}
	ops := float64(r.tracedOps)
	for _, l := range layers {
		m[l+".self_frac"] = ratio(float64(r.layerNS[l]), float64(total))
		m[l+".self_us_per_op"] = ratio(float64(r.layerNS[l])/1e3, ops)
	}
	m["experiments.build_us"] = ratio(seconds(r.tr.durations("experiments.build", true))*1e6, ops)
	m["core.run_ms"] = ratio(seconds(r.tr.durations("core.run", true))*1e3, ops)
	m["workload.next_per_op"] = ratio(float64(r.nextCalls), ops)
	m["workload.next_ns"] = ratio(float64(r.nextNS), float64(r.nextCalls))
	var gen []float64
	for _, d := range r.tr.durations("trace.gen", false) {
		gen = append(gen, float64(d)/1e6)
	}
	m["trace.gen_ms"] = median(gen)
	m["pdes.speedup_2w"] = r.speedup
	m["bench.trace_overhead_frac"] = 0
	if u := median(r.rates); u > 0 {
		m["bench.trace_overhead_frac"] = 1 - median(r.tracedRates)/u
	}
	m["bench.machine_factor"] = median(r.factors)
	m["gc.cpu_frac"] = ratio(r.gcCPU, r.totalCPU)
	m["gc.cycles_per_op"] = ratio(float64(r.gcCycles), ops)
	simCounts(m, r.first)
	return m
}

// simCounts adds the simulated counts of input 0's window result; all read
// 0 for the registry, whose ops return rendered text only.
func simCounts(m map[string]float64, res *core.Result) {
	if res == nil {
		res = &core.Result{}
	}
	tx := float64(res.Commits)
	var ios int64
	var diskMax float64
	for _, u := range res.Units {
		ios += u.Stats.Reads + u.Stats.Writes
		diskMax = max(diskMax, u.DiskUtilization)
	}
	m["core.resp_ms"] = res.RespMean
	m["core.cpu_util"] = res.CPUUtil
	m["core.lock_wait_ms"] = res.LockWaitMean
	m["core.io_wait_ms"] = res.IOWaitMean
	m["core.lock_msgs_per_tx"] = ratio(float64(res.LockMsgs), tx)
	m["core.invalidations_per_tx"] = ratio(float64(res.Invalidations), tx)
	m["buffer.fixes_per_tx"] = ratio(float64(res.Buffer.Fixes), tx)
	m["buffer.mm_hit_pct"] = res.MMHitPct
	m["buffer.nvem_hit_pct"] = res.NVEMAddHitPct
	m["buffer.device_reads_per_tx"] = ratio(float64(res.Buffer.DeviceReads), tx)
	m["buffer.victim_writes_per_tx"] = ratio(float64(res.Buffer.VictimWrites), tx)
	m["buffer.log_writes_per_tx"] = ratio(float64(res.Buffer.LogWrites), tx)
	m["storage.ios_per_tx"] = ratio(float64(ios), tx)
	m["storage.disk_util_max"] = diskMax
	m["cc.requests_per_tx"] = ratio(float64(res.Locks.Requests), tx)
	m["cc.conflict_pct"] = 100 * ratio(float64(res.Locks.Conflicts), float64(res.Locks.Requests))
	m["cc.deadlocks_per_ktx"] = 1000 * ratio(float64(res.Locks.Deadlocks), tx)
}

// ratio is a/b, or 0 when b is 0.
func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

func seconds(ds []time.Duration) float64 {
	var s time.Duration
	for _, d := range ds {
		s += d
	}
	return s.Seconds()
}

// median is the middle value (the mean of the middle two for an even
// count), or 0 for none.
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := slices.Sorted(slices.Values(xs))
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// percentile is the nearest-rank p-quantile, or 0 for none.
func percentile(xs []float64, p float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := slices.Sorted(slices.Values(xs))
	k := int(math.Ceil(p*float64(len(s)))) - 1
	return s[max(k, 0)]
}
