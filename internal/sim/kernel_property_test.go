package sim

import (
	"fmt"
	"math"
	"math/rand"
	"slices"
	"sort"
	"testing"
)

// This file is the continuation kernel's executable contract: randomized
// programs of schedule, continuation-chain, stored-continuation and
// resource operations are run against three properties the rest of the
// simulator relies on.
//
//  1. Time monotonicity — events fire in non-decreasing simulated time.
//  2. Deterministic FIFO at equal timestamps — events scheduled for the
//     same instant fire in scheduling order, regardless of what other work
//     interleaves.
//  3. Empty-heap termination — RunAll drains every scheduled continuation
//     and stops; nothing fires after Shutdown.
//
// Each program runs three times: once entering its plain events through
// Schedule, once through Deliver, whose ordered lane Run merges with the
// queue, and once through Deliver and reserved slots. Both of the first
// two runs must fire the same events in the same order and report the
// same Pending counts. In the third, a random subset of the deliveries
// becomes a Reserve whose slot DeliverReserved fills at once, from an
// earlier event — possibly one at the slot's own instant — or, when the
// event's body does nothing, never; every filled slot must fire exactly
// where Deliver placed it.
//
// Delays are quantized (multiples of 0.5, with plenty of zeros) to force
// timestamp collisions, which is exactly where property 2 bites — and where
// delivered events tie with queued ones.

// trackRec is one tracked event: the instant it must fire at, and a
// scheduling sequence number that breaks timestamp ties.
type trackRec struct {
	at  Time
	idx int
}

// propTrace is what one program run leaves for the Schedule/Deliver
// comparison: the fired sequence, Pending after each Run cut, and how
// Deliver placed its events.
type propTrace struct {
	fired    []trackRec
	pending  []int
	appended int // deliveries appended to the lane
	fellBack int // out-of-order deliveries pushed to the queue

	// Reserve mode: the events whose slot was never filled, and the filled
	// slots that fired at an instant shared with another event.
	dropped map[int]bool
	filled  map[int]bool
	tied    int
}

// propMode selects how propRun enters a program's plain events.
type propMode int

const (
	viaSchedule propMode = iota
	viaLane              // Deliver
	viaReserve           // Deliver, or Reserve + DeliverReserved
)

// queueKinds are the two representations a kernel's queue starts in: the
// sorted slice New builds, and the calendar queue a large population moves
// to (newCalendarSim).
var queueKinds = []struct {
	name string
	new  func() *Sim
}{
	{"sorted", New},
	{"calendar", newCalendarSim},
}

// propRun drives one randomized program on a fresh kernel from newSim and
// checks all three properties.
func propRun(t *testing.T, seed int64, newSim func() *Sim, mode propMode) propTrace {
	t.Helper()
	rnd := rand.New(rand.NewSource(seed))
	// pick draws the reservation choices, leaving rnd's program intact.
	pick := rand.New(rand.NewSource(-seed))
	s := newSim()
	res := s.NewResource("dev", 1+rnd.Intn(3))

	tr := propTrace{dropped: map[int]bool{}, filled: map[int]bool{}}
	var expected []trackRec
	idx := 0
	last := Time(-1)

	// track registers a continuation scheduled for now+delay and returns the
	// body that must run then.
	track := func(delay Time, body func()) func() {
		rec := trackRec{at: s.Now() + delay, idx: idx}
		idx++
		expected = append(expected, rec)
		return func() {
			if s.Now() < last {
				t.Fatalf("seed %d: time ran backwards: %v after %v", seed, s.Now(), last)
			}
			if s.Now() != rec.at {
				t.Fatalf("seed %d: event fired at %v, scheduled for %v", seed, s.Now(), rec.at)
			}
			last = s.Now()
			tr.fired = append(tr.fired, rec)
			if body != nil {
				body()
			}
		}
	}

	// schedule tracks body as a plain event at now+d and enters it as mode
	// says. inert marks a body that does nothing, so that the reserve mode
	// may leave its slot unfilled without changing the rest of the program.
	schedule := func(d Time, body func(), inert bool) {
		fn := track(d, body)
		rec := idx - 1
		at := s.Now() + d
		if mode == viaSchedule {
			s.Schedule(d, fn)
			return
		}
		if mode == viaReserve {
			switch pick.Intn(4) {
			case 0: // filled at once
				s.DeliverReserved(at, s.Reserve(1), fn)
				tr.filled[rec] = true
				return
			case 1, 2: // filled by an earlier event, scheduled ahead of the
				// reservation so that it precedes the slot even at u == d
				var seq uint64
				u := Time(pick.Intn(int(d/0.5)+1)) * 0.5
				s.Schedule(u, func() { s.DeliverReserved(at, seq, fn) })
				seq = s.Reserve(1)
				tr.filled[rec] = true
				return
			default:
				if inert {
					s.Reserve(1) // never filled
					tr.dropped[rec] = true
					return
				}
			}
		}
		if n := len(s.lane); n > s.laneHead && at < s.lane[n-1].at {
			tr.fellBack++
		} else {
			tr.appended++
		}
		s.Deliver(at, fn)
	}

	delay := func() Time { return Time(rnd.Intn(5)) * 0.5 } // many zero/tied delays

	// op emits one random operation; nested ops spend the remaining budget.
	var op func(budget int)
	op = func(budget int) {
		if budget <= 0 {
			return
		}
		switch rnd.Intn(4) {
		case 0: // plain scheduled event, possibly scheduling more work
			schedule(delay(), func() { op(budget - 1) }, budget == 1)
		case 1: // a random chain of continuations, each scheduling the next
			hops := 1 + rnd.Intn(3)
			var hop func()
			hop = func() {
				if hops == 0 {
					op(budget - 1)
					return
				}
				hops--
				d := delay()
				s.Schedule(d, track(d, hop))
			}
			s.Schedule(delay(), hop)
		case 2: // one event stores a continuation, a strictly later one
			// schedules it at +0
			d := delay()
			var stored func()
			s.Schedule(d, func() { stored = func() { op(budget - 1) } })
			ad := delay()
			s.Schedule(d+ad, func() {
				if stored == nil {
					t.Fatalf("seed %d: the waking event at %v fired before the storing one", seed, s.Now())
				}
				wake := delay()
				s.Schedule(0, stored)
				// The wake-up consumed the stored continuation; re-track a
				// plain event to keep exercising collisions at this instant.
				schedule(wake, nil, true)
			})
		default: // resource usage: untracked interleaved load
			s.Schedule(delay(), func() {
				res.Use(delay(), func() {
					if res.Busy() > res.Capacity() {
						t.Fatalf("seed %d: busy %d > capacity %d", seed, res.Busy(), res.Capacity())
					}
					op(budget - 1)
				})
			})
		}
	}

	for i := 0; i < 20; i++ {
		op(3)
	}
	// Advance in cuts first, between and on the quantized instants, so Run
	// stops at its horizon with deliveries pending.
	for cut := Time(0.25); cut < 6; cut += 0.75 {
		s.Run(cut)
		tr.pending = append(tr.pending, s.Pending())
	}
	s.RunAll()

	// Property 3: the heap drained and every tracked continuation ran,
	// except those whose slot was never filled.
	if s.Pending() != 0 {
		t.Fatalf("seed %d: %d events pending after RunAll", seed, s.Pending())
	}
	expected = slices.DeleteFunc(expected, func(r trackRec) bool { return tr.dropped[r.idx] })
	if len(tr.fired) != len(expected) {
		t.Fatalf("seed %d: fired %d of %d tracked events", seed, len(tr.fired), len(expected))
	}
	if res.QueueLen() != 0 || res.Busy() != 0 {
		t.Fatalf("seed %d: resource not drained: queue=%d busy=%d", seed, res.QueueLen(), res.Busy())
	}

	// Property 2: fired order is exactly (at, scheduling order). Tracked
	// scheduling indices increase with the kernel's internal sequence
	// numbers, so the sorted expectation is the unique legal firing order.
	sort.SliceStable(expected, func(i, j int) bool {
		if expected[i].at != expected[j].at {
			return expected[i].at < expected[j].at
		}
		return expected[i].idx < expected[j].idx
	})
	for i := range expected {
		if tr.fired[i] != expected[i] {
			t.Fatalf("seed %d: event %d fired as (at=%v idx=%d), want (at=%v idx=%d)",
				seed, i, tr.fired[i].at, tr.fired[i].idx, expected[i].at, expected[i].idx)
		}
	}
	for i, r := range tr.fired {
		if tr.filled[r.idx] && (i > 0 && tr.fired[i-1].at == r.at ||
			i+1 < len(tr.fired) && tr.fired[i+1].at == r.at) {
			tr.tied++
		}
	}
	return tr
}

func TestKernelProperties(t *testing.T) {
	appended, fellBack, dropped, filled, tied := 0, 0, 0, 0, 0
	for seed := int64(1); seed <= 100; seed++ {
		for _, q := range queueKinds {
			sched := propRun(t, seed, q.new, viaSchedule)
			lane := propRun(t, seed, q.new, viaLane)
			if !slices.Equal(lane.fired, sched.fired) {
				t.Fatalf("seed %d, %s queue: Deliver and Schedule fired different sequences", seed, q.name)
			}
			if !slices.Equal(lane.pending, sched.pending) {
				t.Fatalf("seed %d, %s queue: Pending after each cut %v with Deliver, %v with Schedule",
					seed, q.name, lane.pending, sched.pending)
			}
			appended += lane.appended
			fellBack += lane.fellBack

			res := propRun(t, seed, q.new, viaReserve)
			want := slices.DeleteFunc(slices.Clone(lane.fired), func(r trackRec) bool { return res.dropped[r.idx] })
			if !slices.Equal(res.fired, want) {
				t.Fatalf("seed %d, %s queue: reserved slots fired differently from Deliver", seed, q.name)
			}
			dropped += len(res.dropped)
			filled += len(res.filled)
			tied += res.tied
		}
	}
	if appended == 0 || fellBack == 0 {
		t.Fatalf("programs never exercised both Deliver paths: %d appended, %d fell back", appended, fellBack)
	}
	if dropped == 0 || filled == 0 || tied == 0 {
		t.Fatalf("reserve runs left %d slots unfilled and filled %d, %d of them tied with another event",
			dropped, filled, tied)
	}
}

// TestDeliverReservedPassedPanics: filling a slot the kernel has already
// moved past panics — one before Now(), and one at the horizon of a
// finished Run, which would have fired inside that Run — whether Run
// returned because the queue drained or because the next event lies
// past the horizon.
func TestDeliverReservedPassedPanics(t *testing.T) {
	for _, later := range []bool{false, true} {
		s := New()
		s.Schedule(2, func() {})
		// Both slots take seqs above the event that fires at 2.
		early, atHorizon := s.Reserve(1), s.Reserve(1)
		if later {
			s.Schedule(5, func() {})
		}
		s.Run(3)
		for _, slot := range []struct {
			at  Time
			seq uint64
		}{{1, early}, {3, atHorizon}} {
			if !s.Passed(slot.at, slot.seq) {
				t.Fatalf("later event %v: slot (%v, %d) has not passed after Run(3)", later, slot.at, slot.seq)
			}
			func() {
				defer func() {
					if recover() == nil {
						t.Fatalf("later event %v: DeliverReserved(%v, %d) after Run(3) did not panic",
							later, slot.at, slot.seq)
					}
				}()
				s.DeliverReserved(slot.at, slot.seq, func() {})
			}()
		}
		// A slot reserved after Run returned, at the horizon itself, is live.
		fired := false
		s.DeliverReserved(3, s.Reserve(1), func() { fired = true })
		s.Run(4)
		if !fired {
			t.Fatalf("later event %v: a slot reserved at the horizon after Run returned did not fire", later)
		}
	}
}

// TestReservedSlotEqualInstant pins the equal-instant edge: while an event
// fires, a slot at its own instant has passed if its seq is lower and is
// live if its seq is higher, and a filled live slot fires in the same
// instant, ahead of the later events there.
func TestReservedSlotEqualInstant(t *testing.T) {
	s := New()
	var order []string
	before := s.Reserve(1)
	s.Schedule(1, func() {
		order = append(order, "first")
		if !s.Passed(1, before) {
			t.Fatal("a lower-seq slot at the firing instant has not passed")
		}
		func() {
			defer func() {
				if recover() == nil {
					t.Fatal("DeliverReserved into a lower-seq slot at the firing instant did not panic")
				}
			}()
			s.DeliverReserved(1, before, func() { order = append(order, "before") })
		}()
	})
	after := s.Reserve(1)
	s.Schedule(1, func() { order = append(order, "last") })
	s.Schedule(0.5, func() {
		if s.Passed(1, after) {
			t.Fatal("a future slot has passed")
		}
		s.DeliverReserved(1, after, func() { order = append(order, "after") })
	})
	s.RunAll()
	if got := fmt.Sprint(order); got != "[first after last]" {
		t.Fatalf("fired %s, want [first after last]", got)
	}
}

// TestCalendarDrainRefill pins the bucket-rotation edge case: draining the
// ring completely and refilling far beyond the old window must re-anchor
// the window (pulling the overflow band back in) without losing events or
// breaking (at, seq) order. The refill count also exceeds twice the initial
// bucket count, forcing a grow-and-redistribute cycle mid-sequence.
func TestCalendarDrainRefill(t *testing.T) {
	q := newCalQueue()
	var seq uint64
	push := func(at Time) {
		seq++
		q.Push(event{at: at, seq: seq})
	}
	popAt := func(want Time) {
		t.Helper()
		ev := q.Pop()
		if ev.at != want {
			t.Fatalf("popped at=%v, want %v", ev.at, want)
		}
	}

	for cycle := 0; cycle < 5; cycle++ {
		// Jump the epoch far past the previous window so the refill starts
		// life entirely in the overflow band.
		base := Time(cycle) * 1e7
		n := 3 * calInitNB // > 2*nb → forces a grow mid-cycle
		for i := n - 1; i >= 0; i-- {
			push(base + Time(i)*0.5)
		}
		for i := 0; i < n; i++ {
			popAt(base + Time(i)*0.5)
		}
		if q.Len() != 0 {
			t.Fatalf("cycle %d: %d events left after drain", cycle, q.Len())
		}
	}
}

// TestRunDrainedClockAdvances pins the sim-clock contract: Run(until) lands
// the clock exactly on until whether it stops because the next event is too
// late or because the queue drained early. Before the fix the drained path
// left Now() at the last event's timestamp, under-counting window lengths.
func TestRunDrainedClockAdvances(t *testing.T) {
	for _, q := range queueKinds {
		s := q.new()
		fired := 0
		s.Schedule(3, func() { fired++ })

		// Queue drains before until: the clock must still advance to until.
		if got := s.Run(10); got != 10 || s.Now() != 10 {
			t.Fatalf("%s queue: Run(10) on a draining queue: returned %v, Now()=%v, want 10", q.name, got, s.Now())
		}
		if fired != 1 {
			t.Fatalf("%s queue: event fired %d times, want 1", q.name, fired)
		}

		// The clock never moves backwards: a shorter Run on an empty queue
		// keeps the later timestamp.
		if got := s.Run(5); got != 10 || s.Now() != 10 {
			t.Fatalf("%s queue: Run(5) after t=10: returned %v, Now()=%v, want 10", q.name, got, s.Now())
		}

		// Early exit (next event after until) still lands exactly on until.
		s.Schedule(7, func() { fired++ })
		if got := s.Run(12); got != 12 || s.Now() != 12 || fired != 1 {
			t.Fatalf("%s queue: Run(12) with event at 17: returned %v, Now()=%v, fired=%d", q.name, got, s.Now(), fired)
		}
		if got := s.RunAll(); got != 17 || fired != 2 {
			t.Fatalf("%s queue: RunAll: returned %v, fired=%d", q.name, got, fired)
		}
	}
}

// TestKernelShutdownCancelsEverything is the cancellation side of the
// contract: Shutdown at an arbitrary cut point drops every pending
// continuation — chained continuations, queued resource waiters, scheduled
// events — and nothing fires afterwards.
func TestKernelShutdownCancelsEverything(t *testing.T) {
	for seed := int64(1); seed <= 20; seed++ {
		rnd := rand.New(rand.NewSource(seed))
		s := New()
		res := s.NewResource("dev", 1)
		firedLate := false
		cut := Time(rnd.Intn(10))
		for i := 0; i < 30; i++ {
			d := Time(rnd.Intn(20)) * 0.75
			switch rnd.Intn(4) {
			case 0:
				s.Schedule(d, func() {
					if s.Now() > cut {
						firedLate = true
					}
				})
			case 1:
				s.Deliver(d, func() {
					if s.Now() > cut {
						firedLate = true
					}
				})
			case 2:
				s.Schedule(d, func() {
					s.Schedule(5, func() {
						if s.Now() > cut {
							firedLate = true
						}
					})
				})
			default:
				s.Schedule(d, func() {
					res.Use(3, func() {
						if s.Now() > cut {
							firedLate = true
						}
					})
				})
			}
		}
		s.Run(cut)
		s.Shutdown()
		if s.Pending() != 0 {
			t.Fatalf("seed %d: pending after shutdown", seed)
		}
		s.RunAll()
		if firedLate {
			t.Fatalf("seed %d: continuation fired after the t=%v shutdown", seed, cut)
		}
	}
}

// earliest returns the instant of the kernel's earliest pending event.
func earliest(s *Sim) (Time, bool) {
	at, ok := Time(0), false
	if s.laneHead < len(s.lane) {
		at, ok = s.lane[s.laneHead].at, true
	}
	if s.events.Len() > 0 {
		if q := s.events.Peek().at; !ok || q < at {
			at = q
		}
		ok = true
	}
	return at, ok
}

// landTrace is what one landRun observed: the fired events as
// "instant/index", Now() after every Run or Land, and Passed for every
// reserved slot at the same points.
type landTrace struct {
	fired  []string
	now    []Time
	passed []bool
	landed int // Run calls that became Land
}

// landRun drives one random program of Schedule, Deliver, Reserve,
// DeliverReserved, Resource.Use, Run and RunAll, ending in Shutdown, on a
// fresh kernel from newSim, and checks after every step, inside events
// included, that the kernel's next-event bound does not exceed its
// earliest pending instant. With land set, each Run(w) on a kernel that
// is Idle(w) becomes Land(w).
func landRun(t *testing.T, seed int64, newSim func() *Sim, land bool) landTrace {
	t.Helper()
	rnd := rand.New(rand.NewSource(seed))
	s := newSim()
	res := s.NewResource("dev", 1+rnd.Intn(2))
	var tr landTrace
	type slot struct {
		at     Time
		seq    uint64
		filled bool
	}
	var slots []*slot
	check := func() {
		if at, ok := earliest(s); ok && s.next > at {
			t.Fatalf("seed %d: next-event bound %v above the earliest pending instant %v", seed, s.next, at)
		}
	}
	delay := func() Time { return Time(rnd.Intn(6)) * 0.5 }
	idx := 0
	var push func(depth int)
	event := func(depth int) func() {
		id := idx
		idx++
		return func() {
			tr.fired = append(tr.fired, fmt.Sprintf("%v/%d", s.Now(), id))
			if depth > 0 && rnd.Intn(2) == 0 {
				push(depth - 1)
				check()
			}
		}
	}
	push = func(depth int) {
		switch rnd.Intn(5) {
		case 0:
			s.Schedule(delay(), event(depth))
		case 4: // a server hold, queued behind the others when all are busy
			res.Use(delay(), event(depth))
		case 1:
			s.Deliver(s.Now()+delay(), event(depth))
		case 2: // a run of slots at one future instant
			at, n := s.Now()+delay(), uint64(rnd.Intn(3))
			for seq := s.Reserve(n); n > 0; seq, n = seq+1, n-1 {
				slots = append(slots, &slot{at: at, seq: seq})
			}
		default: // fill a live slot, if there is one
			var live []*slot
			for _, sl := range slots {
				if !sl.filled && !s.Passed(sl.at, sl.seq) {
					live = append(live, sl)
				}
			}
			if len(live) > 0 {
				sl := live[rnd.Intn(len(live))]
				sl.filled = true
				s.DeliverReserved(sl.at, sl.seq, event(depth))
			}
		}
	}
	for step := 0; step < 150; step++ {
		switch r := rnd.Intn(20); {
		case r < 11:
			push(2)
		case r < 19:
			w := s.Now() + Time(rnd.Intn(5))*0.25
			if land && s.Idle(w) {
				s.Land(w)
				tr.landed++
			} else {
				s.Run(w)
			}
			tr.now = append(tr.now, s.Now())
			for _, sl := range slots {
				tr.passed = append(tr.passed, s.Passed(sl.at, sl.seq))
			}
		default:
			s.RunAll()
		}
		check()
	}
	s.Shutdown()
	if !s.Idle(math.MaxFloat64) {
		t.Fatalf("seed %d: a shut-down kernel is not idle", seed)
	}
	return tr
}

// TestKernelIdleLand is the contract the PDES coordinator's idle-kernel
// skip rests on. Over random programs on both queue kinds, resource holds
// and their hand-offs included, the cached
// next-event bound never exceeds the earliest pending instant, and a
// program that lands every idle kernel instead of running it reads the
// same Now(), the same Passed for every reserved slot, and fires the same
// events in the same order. Idle and Land allocate nothing.
func TestKernelIdleLand(t *testing.T) {
	landed := 0
	for seed := int64(1); seed <= 200; seed++ {
		for _, q := range queueKinds {
			run := landRun(t, seed, q.new, false)
			land := landRun(t, seed, q.new, true)
			if !slices.Equal(land.fired, run.fired) {
				t.Fatalf("seed %d, %s queue: Land fired %v, Run %v", seed, q.name, land.fired, run.fired)
			}
			if !slices.Equal(land.now, run.now) || !slices.Equal(land.passed, run.passed) {
				t.Fatalf("seed %d, %s queue: Land and Run left different clocks or passed slots", seed, q.name)
			}
			landed += land.landed
		}
	}
	if landed == 0 {
		t.Fatal("no program found an idle kernel to land")
	}

	s := New()
	s.Schedule(2, func() {})
	s.Run(1)
	if allocs := testing.AllocsPerRun(100, func() {
		if s.Idle(1.5) {
			s.Land(1.5)
		}
	}); allocs != 0 || s.Now() != 1.5 {
		t.Fatalf("Idle and Land allocate %.1f per call and left the clock at %v; want 0 and 1.5", allocs, s.Now())
	}
}

// TestZeroDelayBurstSkipsQueue pins the zero-delay route: a burst of
// 10,000 zero-delay events at one instant, as a fuzzy checkpoint schedules
// one write per dirty frame, goes through the ordered lane and never into
// the event queue. Events at the same instant that must take the queue —
// scheduled earlier, or filled into reserved slots in the middle of the
// burst — stay in their places: everything fires in seq order.
func TestZeroDelayBurstSkipsQueue(t *testing.T) {
	const burst, early = 10_000, 3
	for _, q := range queueKinds {
		t.Run(q.name, func(t *testing.T) {
			s := q.new()
			var fired []uint64
			queued := 0 // events in the queue that fire at the burst's instant
			// checkQueue fails once the queue holds more than those events.
			checkQueue := func() {
				if n := s.events.Len(); n > queued {
					t.Fatalf("%d events in the queue, want at most the %d queued ones", n, queued)
				}
			}
			record := func(seq uint64) func() {
				return func() {
					checkQueue()
					fired = append(fired, seq)
				}
			}
			s.Schedule(5, func() {
				for i := 0; i < burst; i++ {
					if i%100 == 50 {
						seq := s.Reserve(1)
						s.DeliverReserved(s.Now(), seq, record(seq))
						queued++
						continue
					}
					s.Schedule(0, record(s.seq+1))
				}
				checkQueue()
			})
			for i := 0; i < early; i++ {
				s.Schedule(5, record(s.seq+1))
				queued++
			}
			s.RunAll()
			if len(fired) != burst+early {
				t.Fatalf("%d events fired, want %d", len(fired), burst+early)
			}
			for i := 1; i < len(fired); i++ {
				if fired[i] < fired[i-1] {
					t.Fatalf("event %d fired seq %d after seq %d", i, fired[i], fired[i-1])
				}
			}
			if s.Now() != 5 {
				t.Fatalf("clock at %v after the burst, want 5", s.Now())
			}
		})
	}
}

// TestZeroDelayBehindLaterDelivery pins the fallback: on a kernel whose
// lane holds a later delivery, as a PDES node's lane may, a zero-delay
// event goes to the queue and still fires before that delivery.
func TestZeroDelayBehindLaterDelivery(t *testing.T) {
	for _, q := range queueKinds {
		t.Run(q.name, func(t *testing.T) {
			s := q.new()
			var order []string
			s.Schedule(1, func() {
				s.Deliver(2, func() { order = append(order, "delivered") })
				s.Schedule(0, func() { order = append(order, "zero") })
				if s.events.Len() != 1 {
					t.Fatalf("queue holds %d events, want the zero-delay one", s.events.Len())
				}
			})
			s.RunAll()
			if got := fmt.Sprint(order); got != "[zero delivered]" {
				t.Fatalf("fired %s, want [zero delivered]", got)
			}
		})
	}
}
