package sim

import (
	"math"
	"math/rand"
	"testing"
)

// newCalendarSim builds a kernel whose queue starts in the calendar queue
// instead of the sorted slice and stays there, however few events are
// pending, until Shutdown.
func newCalendarSim() *Sim {
	s := New()
	s.events.cal, s.events.big, s.events.pinned = newCalQueue(), true, true
	return s
}

// queueRig runs one program of pushes and pops through the kernel's
// queue, through the calendar queue on its own and through the reference
// heap, and fails as soon as they disagree.
type queueRig struct {
	tb   testing.TB
	ref  eventHeap
	q    eventQueue
	cal  *calQueue
	seq  uint64   // the last seq handed out
	now  Time     // the instant of the last pop
	held []uint64 // seqs taken for later pushes, as Reserve takes them
	// ups and downs count the queue's moves into the calendar queue and
	// back.
	ups, downs int
}

func newQueueRig(tb testing.TB) *queueRig { return &queueRig{tb: tb, cal: newCalQueue()} }

// Program bytes. A byte's low three bits pick the operation and its high
// five bits give n, 1 to 32.
const (
	opPush    = 0 // push one event at the next byte's instant
	opBurst   = 2 // push 8n events at near, heavily tied instants
	opPop     = 3 // pop n events
	opDrain   = 5 // pop 8n events
	opReserve = 6 // take n seqs for later pushes, as Reserve does
	opFill    = 7 // push the oldest taken seq at the next byte's instant
)

// instant maps b to an instant at or after now: a tie with now, a dense
// quantized near band, a far band beyond the calendar's window, 1e300 and
// up, or math.MaxFloat64.
func (r *queueRig) instant(b byte) Time {
	x := Time(b >> 3)
	switch b & 7 {
	case 0, 1:
		return r.now
	case 2, 3, 4:
		return r.now + x*0.25
	case 5:
		return r.now + 1_000 + x*997
	case 6:
		return math.Max(r.now, 1e300*(1+x/32))
	default:
		return math.MaxFloat64
	}
}

// run decodes data into a program, runs it and pops what is left. It
// checks the queues after every operation, and every pop's event.
func (r *queueRig) run(data []byte) {
	for i := 0; i < len(data); i++ {
		b := data[i]
		n := 1 + int(b>>3)
		var arg byte
		if i+1 < len(data) {
			arg = data[i+1]
		}
		switch b & 7 {
		case opPush, 1:
			r.seq++
			r.push(r.instant(arg), r.seq)
			i++
		case opBurst:
			v := uint32(arg)
			for k := 0; k < 8*n; k++ {
				v = v*1664525 + 1013904223
				r.seq++
				r.push(r.now+Time(v>>26)*0.25, r.seq)
			}
			i++
		case opPop, 4:
			for k := 0; k < n; k++ {
				r.pop()
			}
		case opDrain:
			for k := 0; k < 8*n; k++ {
				r.pop()
			}
		case opReserve:
			for k := 0; k < n; k++ {
				r.seq++
				r.held = append(r.held, r.seq)
			}
		case opFill:
			if len(r.held) > 0 {
				seq := r.held[0]
				r.held = r.held[1:]
				r.push(r.instant(arg), seq)
			}
			i++
		}
		r.check()
	}
	for r.ref.Len() > 0 {
		r.pop()
		r.check()
	}
}

// rigMaxPending caps a program's population: four times sortedMax is
// past both switch points and several calendar regrowths, and the cap
// keeps a fuzzed program whose events all tie, which the calendar scans
// in one bucket, from running for seconds.
const rigMaxPending = 4 * sortedMax

// push pushes (at, seq) unless the population is at rigMaxPending.
func (r *queueRig) push(at Time, seq uint64) {
	if r.ref.Len() >= rigMaxPending {
		return
	}
	e := event{at: at, seq: seq}
	big := r.q.big
	r.ref.Push(e)
	r.q.Push(e)
	r.cal.Push(e)
	if !big && r.q.big {
		r.ups++
	}
}

func (r *queueRig) pop() {
	if r.ref.Len() == 0 {
		return
	}
	big := r.q.big
	want, got, cal := r.ref.Pop(), r.q.Pop(), r.cal.Pop()
	if got.at != want.at || got.seq != want.seq || cal.at != want.at || cal.seq != want.seq {
		r.tb.Fatalf("pop diverged: heap (%v, %d), queue (%v, %d), calendar (%v, %d)",
			want.at, want.seq, got.at, got.seq, cal.at, cal.seq)
	}
	if big && !r.q.big {
		r.downs++
	}
	r.now = want.at
}

// check compares Len and Peek with the heap's, and the queue's
// representation with its population: the sorted slice never holds more
// than sortedMax events, and the calendar queue never fewer than
// sortedMin.
func (r *queueRig) check() {
	n := r.ref.Len()
	if r.q.Len() != n || r.cal.Len() != n {
		r.tb.Fatalf("length diverged: heap %d, queue %d, calendar %d", n, r.q.Len(), r.cal.Len())
	}
	if r.q.big && n < sortedMin || !r.q.big && n > sortedMax {
		r.tb.Fatalf("%d events pending with the calendar queue in use %v", n, r.q.big)
	}
	if n == 0 {
		return
	}
	want, got, cal := r.ref.Peek(), r.q.Peek(), r.cal.Peek()
	if got.at != want.at || got.seq != want.seq || cal.at != want.at || cal.seq != want.seq {
		r.tb.Fatalf("peek diverged: heap (%v, %d), queue (%v, %d), calendar (%v, %d)",
			want.at, want.seq, got.at, got.seq, cal.at, cal.seq)
	}
}

// crossingProgram returns a program whose population climbs past
// sortedMax and falls below sortedMin cycles times. Its pushes tie with
// the current instant or land in a quantized near band, and some go to
// the far band, to 1e300 and beyond, or to math.MaxFloat64; a fifth of
// them push a seq taken earlier, as DeliverReserved does.
func crossingProgram(rnd *rand.Rand, cycles int) []byte {
	var p []byte
	pending, held := 0, 0
	push := func() {
		// The instant byte's low three bits pick instant's band: 6 is
		// 1e300 and up, 7 math.MaxFloat64, 5 the far band, 0 a tie and 2
		// the near band.
		var at byte
		switch x := rnd.Intn(400); {
		case x == 0:
			at = 6 | byte(rnd.Intn(32))<<3
		case x == 1:
			at = 7
		case x < 40:
			at = 5 | byte(rnd.Intn(32))<<3
		case x < 140:
			at = 0
		default:
			at = 2 | byte(rnd.Intn(32))<<3
		}
		switch {
		case held > 0 && rnd.Intn(5) == 0:
			p = append(p, opFill, at)
			held--
		case rnd.Intn(10) == 0:
			p = append(p, opReserve|byte(rnd.Intn(4))<<3)
			held += 1 + int(p[len(p)-1]>>3)
			return
		default:
			p = append(p, opPush, at)
		}
		pending++
	}
	pop := func() {
		p = append(p, opPop)
		if pending > 0 {
			pending--
		}
	}
	for c := 0; c < cycles; c++ {
		for pending <= sortedMax+rnd.Intn(64) {
			if rnd.Intn(4) == 0 {
				pop()
			} else {
				push()
			}
		}
		for pending >= sortedMin-rnd.Intn(24) {
			if rnd.Intn(4) == 0 {
				push()
			} else {
				pop()
			}
		}
	}
	return p
}

// TestQueueDifferential runs randomized event programs through the
// binary heap, the kernel's queue and the calendar queue on its own, and
// demands identical (at, seq) pops and the same Peek and Len after every
// step. Each program carries the queue past sortedMax and back below
// sortedMin again and again, with heavy timestamp ties, a far-future band
// (the calendar's overflow heap and window advances, up to
// math.MaxFloat64) and pushes of seqs taken earlier.
func TestQueueDifferential(t *testing.T) {
	for seed := int64(1); seed <= 60; seed++ {
		r := newQueueRig(t)
		r.run(crossingProgram(rand.New(rand.NewSource(seed)), 5))
		if r.ups < 5 || r.downs < 5 {
			t.Fatalf("seed %d: the queue moved into the calendar queue %d times and back %d times, want 5 each",
				seed, r.ups, r.downs)
		}
	}
}

// FuzzEventQueue decodes its input into a push/pop program (see run) and
// checks the kernel's queue and the calendar queue against the heap after
// every step.
func FuzzEventQueue(f *testing.F) {
	f.Add(crossingProgram(rand.New(rand.NewSource(1)), 2))
	f.Add([]byte{opBurst | 31<<3, 9, opDrain | 20<<3, opBurst | 15<<3, 200, opReserve | 3<<3,
		opFill, 6, opPush, 7, opFill, 0, opDrain | 31<<3})
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) > 1024 {
			data = data[:1024]
		}
		newQueueRig(t).run(data)
	})
}

// TestCalendarWindowAnchored: a move into the calendar queue starts its
// window at the earliest event. A move back drains the calendar by
// popping, which leaves its window at the latest event it held, here one
// far out; had the next move kept that window, every nearer event would
// have crowded into its first bucket, and each pop would scan them all.
func TestCalendarWindowAnchored(t *testing.T) {
	var q eventQueue
	var seq uint64
	fill := func(base Time) {
		for q.Len() <= sortedMax {
			seq++
			q.Push(event{at: base + Time(seq%50)*0.1, seq: seq})
		}
	}
	fill(0)
	seq++
	q.Push(event{at: 1e6, seq: seq})
	for q.big {
		q.Pop()
	}
	now := q.Peek().at
	fill(now)
	if first := q.Peek().at; q.cal.curBid != q.cal.bidOf(first) {
		t.Fatalf("window starts at bucket %d, want %d, the earliest event's", q.cal.curBid, q.cal.bidOf(first))
	}
}

// TestFarFutureEvents: events at 1e300 and at math.MaxFloat64 fire in
// (at, seq) order on both representations, and Run to a horizon before
// them returns. A bid clamped to math.MaxInt64 used to overflow the
// calendar queue's window end, so the far events never drained and its
// scan for the minimum never ended.
func TestFarFutureEvents(t *testing.T) {
	for _, n := range []int{3, 200} {
		for _, q := range queueKinds {
			s := q.new()
			var fired []int
			ats := make([]Time, n)
			for i := range ats {
				ats[i] = 1e300 * Time(1+i%5)
				if i%3 == 0 {
					ats[i] = math.MaxFloat64
				}
				s.Schedule(ats[i], func() { fired = append(fired, i) })
			}
			if got := s.Run(10); got != 10 || len(fired) != 0 {
				t.Fatalf("%d events, %s: Run(10) returned %v with %d fired", n, q.name, got, len(fired))
			}
			s.RunAll()
			if len(fired) != n {
				t.Fatalf("%d events, %s: %d fired", n, q.name, len(fired))
			}
			for k := 1; k < n; k++ {
				a, b := fired[k-1], fired[k]
				if ats[a] > ats[b] || ats[a] == ats[b] && a > b {
					t.Fatalf("%d events, %s: event %d at %v fired after event %d at %v", n, q.name, b, ats[b], a, ats[a])
				}
			}
		}
	}
}

// TestNaNInstantPanics: a NaN delay or instant panics as a negative one
// does. It fails every comparison, so it would pass a check for a value
// below zero or before now and corrupt the (at, seq) order.
func TestNaNInstantPanics(t *testing.T) {
	nan := math.NaN()
	calls := []struct {
		name string
		call func(s *Sim)
	}{
		{"Schedule", func(s *Sim) { s.Schedule(nan, func() {}) }},
		{"Deliver", func(s *Sim) { s.Deliver(nan, func() {}) }},
		{"DeliverReserved", func(s *Sim) { s.DeliverReserved(nan, s.Reserve(1), func() {}) }},
		{"Resource.Use", func(s *Sim) { s.NewResource("dev", 1).Use(nan, func() {}) }},
	}
	for _, c := range calls {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("%s with NaN did not panic", c.name)
				}
			}()
			c.call(New())
		}()
	}
}
