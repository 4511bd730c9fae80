// Package sim provides a deterministic discrete-event simulation kernel
// that runs continuations. It replaces the DeNet simulation language the
// paper's TPSIM system was written in.
//
// The kernel knows events, not processes: an activity that takes
// simulated time (a delay, a resource service) schedules a continuation on
// the time-ordered event queue and returns, instead of parking a
// goroutine. The model's processes are the callers' pooled state machines
// — a transaction, a host operation, a buffer operation, a disk I/O — each
// of which advances by handing one pre-bound continuation to Schedule or
// Resource.Use. Everything runs on the kernel's own stack, so there are no
// channel hand-offs, no context switches and no cross-goroutine panic
// plumbing on the hot path. Simulations are fully deterministic — events
// with equal timestamps fire in scheduling order, and all randomness comes
// from explicitly seeded generators outside this package.
package sim

import (
	"fmt"
	"math"
)

// Time is simulated time. TPSIM models express it in milliseconds.
type Time = float64

// Sim is a discrete-event simulation instance. It is not safe for concurrent
// use; all interaction must happen from the goroutine that calls Run or from
// within event continuations (which the kernel serializes).
type Sim struct {
	now    Time
	events eventQueue
	seq    uint64
	// firing is the seq horizon at now: a slot (now, seq) has passed iff
	// seq < firing. While an event fires it is that event's seq; once Run
	// returns it is one past the last seq handed out.
	firing uint64
	// next is a lower bound on the earliest pending instant: no event is
	// pending before it. Run, RunAll and Shutdown set it exactly when they
	// return, so Idle costs one comparison. A push made outside Run lowers
	// it. A push made inside Run need not, since it lands at or after the
	// event firing, which lies at or after the bound Run started with:
	// scheduleRelease relies on this to stay small enough to inline, and
	// Resource.Use, its one caller that may run outside Run, lowers the
	// bound itself.
	next Time

	// lane is the ordered delivery lane Deliver appends to: events in
	// nondecreasing (at, seq) order, live from laneHead on. Run merges its
	// head with the queue's.
	lane     []event
	laneHead int
}

// New creates an empty simulation at time zero.
func New() *Sim { return &Sim{next: math.Inf(1)} }

// Now returns the current simulated time.
func (s *Sim) Now() Time { return s.now }

// Schedule runs fn in kernel context at now+delay. delay must be
// non-negative: a negative or NaN delay panics. fn must not block;
// activity that takes simulated time is expressed by scheduling a
// continuation for the remainder.
//
// A zero delay goes through Deliver(Now(), fn), which by its contract fires
// fn exactly where the event queue would. The ordered lane takes it in
// O(1) and spares the queue a burst of events at one instant, such as the
// one write per dirty frame that a fuzzy checkpoint schedules.
func (s *Sim) Schedule(delay Time, fn func()) {
	if delay == 0 {
		s.Deliver(s.now, fn)
		return
	}
	if !(delay > 0) { // negative or NaN: NaN fails every comparison
		panic(fmt.Sprintf("sim: negative delay %v", delay))
	}
	s.seq++
	s.push(event{at: s.now + delay, seq: s.seq, fn: fn})
}

// push adds ev to the event queue and lowers the next-event bound.
func (s *Sim) push(ev event) {
	s.lower(ev.at)
	s.events.Push(ev)
}

// lower lowers the next-event bound to at.
func (s *Sim) lower(at Time) {
	if at < s.next {
		s.next = at
	}
}

// Deliver runs fn in kernel context at the instant at, which must not lie
// before Now or be NaN. The event takes the kernel's next seq, as Schedule
// does, so Deliver(at, fn) fires exactly where Schedule(at-Now(), fn) would
// when the two agree on at. It is the entry point for a caller that hands the kernel
// events already sorted by time, and for Schedule's zero-delay events:
// while at is nondecreasing the event is appended to an ordered lane in
// O(1), and Run merges the lane head with the queue head, so the event
// queue's insert and pop are skipped.
//
// An at below the lane's tail goes to the event queue instead. The PDES
// cluster engine relies on this fallback: it delivers lock traffic
// (LockMsgDelayMS) and coherence traffic (NVEMAccessDelayMS) through one
// lane per node, and where the coherence delay is the longer one — pdes-64
// and cluster.scaleout256 set it to 0.15 ms against 0.1 ms — coherence
// arrivals outlive the window they were delivered for, so the next
// barrier's lock verdicts arrive before them. Appended behind those
// arrivals, the verdicts would fire late, after the clock had passed them:
// without the fallback, cluster.scaleout256's golden output changes.
func (s *Sim) Deliver(at Time, fn func()) {
	if !(at >= s.now) { // before now, or NaN
		panic(fmt.Sprintf("sim: delivery at %v before now %v", at, s.now))
	}
	s.seq++
	ev := event{at: at, seq: s.seq, fn: fn}
	if n := len(s.lane); n > s.laneHead && at < s.lane[n-1].at {
		s.push(ev)
		return
	}
	s.lower(at)
	if s.laneHead > 0 && len(s.lane) == cap(s.lane) {
		// Slide the live events over the spent head slots instead of
		// growing the backing array.
		n := copy(s.lane, s.lane[s.laneHead:])
		clear(s.lane[n:])
		s.lane, s.laneHead = s.lane[:n], 0
	}
	s.lane = append(s.lane, ev)
}

// Reserve takes the kernel's next n seqs, as n calls of Schedule or
// Deliver would, schedules nothing and returns the first of them. Together
// with an instant at ≥ Now() each seq names a slot (at, seq):
// DeliverReserved can fill it later, and the event then fires exactly
// where Deliver(at, fn) in the seq's place would have put it. A slot never
// filled costs nothing, and every other event keeps its place in the
// (at, seq) order. Reserve(0) takes nothing.
func (s *Sim) Reserve(n uint64) uint64 {
	first := s.seq + 1
	s.seq += n
	return first
}

// Passed reports whether the slot (at, seq) has passed: the kernel has
// fired an event that follows it in (at, seq) order — at lies before Now(),
// or at equals Now() and the event firing now, or the last one fired there,
// has a larger seq. Once Run(until) returns, every slot reserved so far at
// or before until has passed.
func (s *Sim) Passed(at Time, seq uint64) bool {
	return at < s.now || (at == s.now && seq < s.firing)
}

// DeliverReserved runs fn in kernel context in the slot (at, seq), whose
// seq Reserve handed out. The event goes to the event queue, which orders
// by (at, seq) whatever the push time, so it fires in the slot's place
// among the events scheduled before and after the reservation. It panics
// if the slot has passed or at is NaN.
func (s *Sim) DeliverReserved(at Time, seq uint64, fn func()) {
	if seq > s.seq || math.IsNaN(at) || s.Passed(at, seq) {
		panic(fmt.Sprintf("sim: reserved slot (%v, %d) has passed or was never reserved (now %v, next seq %d)",
			at, seq, s.now, s.seq+1))
	}
	s.push(event{at: at, seq: seq, fn: fn})
}

// laneFirst reports whether the lane head precedes the queue head in
// (at, seq) order. The lane must not be empty.
func (s *Sim) laneFirst() bool {
	if s.events.Len() == 0 {
		return true
	}
	l, q := &s.lane[s.laneHead], s.events.Peek()
	return l.at < q.at || (l.at == q.at && l.seq < q.seq)
}

// popLane removes and returns the lane head.
func (s *Sim) popLane() event {
	ev := s.lane[s.laneHead]
	s.lane[s.laneHead] = event{} // release fn for GC
	s.laneHead++
	if s.laneHead == len(s.lane) {
		s.lane, s.laneHead = s.lane[:0], 0
	}
	return ev
}

// scheduleRelease schedules fn at now+delay with r released first at fire
// time — the allocation-free backbone of Resource.Use. It leaves the
// next-event bound alone (see next): Use lowers it, because Use may run
// outside Run.
func (s *Sim) scheduleRelease(r *Resource, delay Time, fn func()) {
	s.seq++
	s.events.Push(event{at: s.now + delay, seq: s.seq, fn: fn, release: r})
}

// Idle reports whether no event is pending at or before w: Run(w) would
// fire nothing, and Land(w) may stand in for it. It reads the next-event
// bound, which may lie below the earliest pending instant until the next
// Run returns, so Idle may answer false for a kernel with nothing to do
// but never true for one with work.
func (s *Sim) Idle(w Time) bool { return s.next > w }

// Land does what Run(w) does on an idle kernel (Idle(w)), without looking
// at the queue: the clock lands on w, and every slot reserved so far at or
// before w has passed. w must not lie before Now().
func (s *Sim) Land(w Time) {
	s.now, s.firing = w, s.seq+1
}

// Run executes events until none are pending or the next event would fire
// after the until timestamp. It returns the simulated time at which it
// stopped. Events exactly at until still fire. The clock always lands on
// until (never before, never after): draining early advances now to until
// just as the next-event-too-late exit does, so window-length math via
// Now() stays exact either way.
func (s *Sim) Run(until Time) Time {
	for {
		var ev event
		if s.laneHead < len(s.lane) && s.laneFirst() {
			if at := s.lane[s.laneHead].at; at > until {
				return s.stop(until, at)
			}
			ev = s.popLane()
		} else {
			if s.events.Len() == 0 {
				break
			}
			if at := s.events.Peek().at; at > until {
				return s.stop(until, at)
			}
			ev = s.events.Pop()
		}
		s.now, s.firing = ev.at, ev.seq
		if ev.release != nil {
			ev.release.Release()
		}
		ev.fn()
	}
	if s.now < until {
		s.now = until
	}
	s.firing, s.next = s.seq+1, math.Inf(1)
	return s.now
}

// stop lands the clock on until when the next event, at next, lies past
// it. Every slot reserved so far at until has passed: had it been filled,
// it would have fired before Run returned.
func (s *Sim) stop(until, next Time) Time {
	s.now, s.firing, s.next = until, s.seq+1, next
	return s.now
}

// RunAll executes events until none remain.
func (s *Sim) RunAll() Time {
	for {
		var ev event
		switch {
		case s.laneHead < len(s.lane) && s.laneFirst():
			ev = s.popLane()
		case s.events.Len() > 0:
			ev = s.events.Pop()
		default:
			s.firing, s.next = s.seq+1, math.Inf(1)
			return s.now
		}
		s.now, s.firing = ev.at, ev.seq
		if ev.release != nil {
			ev.release.Release()
		}
		ev.fn()
	}
}

// Shutdown drops all pending events: scheduled continuations, resource
// wake-ups and deliveries are abandoned where they stand. After
// Shutdown the simulation can be inspected but no longer advanced.
func (s *Sim) Shutdown() {
	s.events.Clear()
	s.lane, s.laneHead = nil, 0
	s.next = math.Inf(1)
}
