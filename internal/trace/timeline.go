package trace

import "fmt"

// LoadTimeline derives a rate timeline from a trace for trace-driven rate
// replay (workload.ArrivalReplay): the recorded transaction sequence is cut
// into `buckets` equal slices — recorded position standing in for time, as
// the TPSIM-TRACE format carries no timestamps — and each slice's share of
// the total reference volume becomes its rate multiplier. The multipliers
// are normalized to average 1, so feeding them into an ArrivalSpec at some
// mean rate replays the recorded load shape at that rate. Like NewSource,
// it validates the trace unless its last Validate passed.
func LoadTimeline(tr *Trace, buckets int) ([]float64, error) {
	if err := tr.validated(); err != nil {
		return nil, err
	}
	if buckets <= 0 {
		return nil, fmt.Errorf("trace: timeline buckets = %d", buckets)
	}
	n := len(tr.Txs)
	if n < buckets {
		return nil, fmt.Errorf("trace: %d transactions cannot fill %d timeline buckets", n, buckets)
	}
	vol := make([]float64, buckets)
	total := 0.0
	for i := range tr.Txs {
		refs := float64(len(tr.Txs[i].Accesses))
		vol[i*buckets/n] += refs
		total += refs
	}
	mult := make([]float64, buckets)
	for i, v := range vol {
		mult[i] = v * float64(buckets) / total
	}
	return mult, nil
}
