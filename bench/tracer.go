package main

import (
	"encoding/json"
	"os"
	"sync/atomic"
	"time"

	"repro/internal/workload"
)

// span is one call the benchmark made into a layer. Times are offsets from
// the start of the run; parent indexes the enclosing span (-1 for none) and
// op is the op index (-1 during set-up).
type span struct {
	name       string
	start, end time.Duration
	parent     int
	op         int
}

// tracer records spans in memory while on, and wraps workload generators in
// a call counter. A nil or off tracer records nothing and allocates nothing,
// so untraced ops run exactly the code a traced op runs minus the records.
type tracer struct {
	on    bool
	t0    time.Time
	op    int
	spans []span
	open  []int
	calls atomic.Int64 // generator Next calls while on
}

func newTracer() *tracer { return &tracer{t0: time.Now(), op: -1} }

// begin opens a span and returns its id for end; -1 when off.
func (t *tracer) begin(name string) int {
	if t == nil || !t.on {
		return -1
	}
	parent := -1
	if n := len(t.open); n > 0 {
		parent = t.open[n-1]
	}
	t.spans = append(t.spans, span{name: name, start: time.Since(t.t0), parent: parent, op: t.op})
	t.open = append(t.open, len(t.spans)-1)
	return len(t.spans) - 1
}

func (t *tracer) end(id int) {
	if id < 0 {
		return
	}
	t.spans[id].end = time.Since(t.t0)
	t.open = t.open[:len(t.open)-1]
}

func (t *tracer) wrap(g workload.Generator) workload.Generator {
	if t == nil || !t.on {
		return g
	}
	return &countingGen{Generator: g, calls: &t.calls}
}

// durations returns the durations of the spans named name, in order: those
// inside ops, or those of set-up.
func (t *tracer) durations(name string, inOps bool) []time.Duration {
	var out []time.Duration
	for _, s := range t.spans {
		if s.name == name && (s.op >= 0) == inOps {
			out = append(out, s.end-s.start)
		}
	}
	return out
}

// writeChrome writes the spans as Chrome trace-event JSON ("X" complete
// events, microseconds), which Perfetto and chrome://tracing open.
func (t *tracer) writeChrome(path string) error {
	type args struct {
		ID     int `json:"id"`
		Parent int `json:"parent"`
		Op     int `json:"op"`
	}
	type event struct {
		Name string  `json:"name"`
		Ph   string  `json:"ph"`
		Ts   float64 `json:"ts"`
		Dur  float64 `json:"dur"`
		Pid  int     `json:"pid"`
		Tid  int     `json:"tid"`
		Args args    `json:"args"`
	}
	events := make([]event, len(t.spans))
	for i, s := range t.spans {
		events[i] = event{
			Name: s.name, Ph: "X", Pid: 1, Tid: 1,
			Ts:   float64(s.start) / 1e3,
			Dur:  float64(s.end-s.start) / 1e3,
			Args: args{ID: i, Parent: s.parent, Op: s.op},
		}
	}
	data, err := json.Marshal(struct {
		TraceEvents []event `json:"traceEvents"`
	}{events})
	if err != nil {
		return err
	}
	return os.WriteFile(path, data, 0o644)
}
