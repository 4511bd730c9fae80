package sim

// calQueue is a calendar queue (Brown, CACM 1988): a power-of-two ring of
// time buckets of equal width, scanned in time order, with a binary-heap
// overflow band for events beyond the ring's window. For the simulator's
// workloads — dense near-future timer populations with a thin far-future
// tail (checkpoints, phase boundaries) — enqueue and dequeue are O(1)
// amortized, versus O(log n) for the heap it replaces.
//
// Bucket assignment is by integer bucket id, bid(at) = ⌊at/width⌋, a pure
// function of the timestamp. The window covers bids [curBid, curBid+nb);
// bucket id b lives at ring slot b&mask. Everything with a bid at or past
// the window's end waits in the overflow heap and is drained into the ring
// as curBid advances. Because curBid only ever advances to the bid of a
// popped minimum, every live ring event has bid ≥ curBid, so one ring slot
// holds exactly one bid and the first nonempty slot from curBid holds the
// queue's minimum (bid is monotone in at: bid(a) < bid(b) ⟹ a < b).
//
// Width self-tunes from the smoothed nonzero inter-pop gap, checked every
// calCheckMask+1 pops; the ring re-lays out (rare, O(n)) when the width is
// off by 4× either way or when ring occupancy exceeds 2 events per bucket.
type calQueue struct {
	width    Time      // bucket width in simulated time
	nb       int       // number of ring buckets (power of two)
	mask     int64     // nb - 1
	curBid   int64     // bucket id at the start of the window
	buckets  [][]event // ring storage; slot caps persist across pops
	inWin    int       // events currently in the ring
	overflow eventHeap // far-future band: bid ≥ curBid+nb

	lastAt  Time // timestamp of the most recent pop
	gapEWMA Time // smoothed nonzero inter-pop gap
	gapInit bool
	pops    uint64

	memo calMemo
}

// calMemo caches the minimum located by the last scan so the kernel's
// Peek-then-Pop pattern costs one scan per event. Any Push invalidates it.
type calMemo struct {
	valid bool
	slot  int // ring slot the minimum lives in
	i     int // its position within that slot
	ev    event
}

const (
	calInitWidth = 1.0  // ms; adapts after the first width check
	calInitNB    = 64   // initial ring size
	calMinWidth  = 1e-9 // width floor against zero-gap degenerate programs
	calCheckMask = 1023 // width checked every 1024 pops
	// calMaxBid guards the at/width → int64 conversion: anything mapping
	// this far out is clamped to this one bid. It lies far enough below
	// math.MaxInt64 that the end of a window reaching it, curBid+nb, cannot
	// overflow, so clamped events drain from the overflow band like any
	// other; and clamping keeps bid nondecreasing in at, so they share one
	// bucket, whose scan pops them in (at, seq) order.
	calMaxBid  = int64(1) << 62
	calMaxBidF = float64(calMaxBid)
)

func newCalQueue() *calQueue {
	return &calQueue{
		width:   calInitWidth,
		nb:      calInitNB,
		mask:    calInitNB - 1,
		buckets: make([][]event, calInitNB),
	}
}

// Len reports the number of pending events.
func (q *calQueue) Len() int { return q.inWin + q.overflow.Len() }

func (q *calQueue) bidOf(at Time) int64 {
	f := at / q.width
	if f >= calMaxBidF {
		return calMaxBid
	}
	return int64(f)
}

// place appends an in-window event to its ring slot. Bids below curBid
// (impossible under the kernel's non-negative-delay contract, but cheap to
// tolerate) are clamped into the current bucket, which the scan visits
// first, so such an event still pops in correct (at, seq) order.
func (q *calQueue) place(e event, bid int64) {
	if bid < q.curBid {
		bid = q.curBid
	}
	slot := int(bid & q.mask)
	q.buckets[slot] = append(q.buckets[slot], e)
	q.inWin++
}

// Push inserts an event.
func (q *calQueue) Push(e event) {
	q.memo.valid = false
	if bid := q.bidOf(e.at); bid-q.curBid >= int64(q.nb) {
		q.overflow.Push(e)
	} else {
		q.place(e, bid)
	}
	if q.inWin > 2*q.nb {
		q.relayout(q.width, q.nb*2)
	}
}

// findMin locates the earliest event and memoizes its position. The queue
// must not be empty.
func (q *calQueue) findMin() {
	if q.inWin == 0 {
		// Ring empty: re-anchor the window at the overflow's head and pull
		// the near band in.
		q.curBid = q.bidOf(q.overflow.Peek().at)
		q.drainOverflow()
	}
	for b := q.curBid; ; b++ {
		slot := int(b & q.mask)
		bucket := q.buckets[slot]
		if len(bucket) == 0 {
			continue
		}
		mi := 0
		for i := 1; i < len(bucket); i++ {
			if bucket[i].at < bucket[mi].at ||
				(bucket[i].at == bucket[mi].at && bucket[i].seq < bucket[mi].seq) {
				mi = i
			}
		}
		q.memo = calMemo{valid: true, slot: slot, i: mi, ev: bucket[mi]}
		return
	}
}

// Peek returns the earliest event without removing it. It must not be
// called on an empty queue.
func (q *calQueue) Peek() event {
	if !q.memo.valid {
		q.findMin()
	}
	return q.memo.ev
}

// Pop removes and returns the earliest event. It must not be called on an
// empty queue.
func (q *calQueue) Pop() event {
	if !q.memo.valid {
		q.findMin()
	}
	m := q.memo
	q.memo.valid = false

	bucket := q.buckets[m.slot]
	n := len(bucket) - 1
	bucket[m.i] = bucket[n]
	bucket[n] = event{} // release fn for GC
	q.buckets[m.slot] = bucket[:n]
	q.inWin--

	if bid := q.bidOf(m.ev.at); bid > q.curBid {
		q.curBid = bid
		q.drainOverflow()
	}

	// Width feedback: smooth the nonzero inter-pop gap and occasionally
	// re-lay out if the configured width has drifted 4× off the target of
	// ~3 gaps per bucket.
	if gap := m.ev.at - q.lastAt; gap > 0 {
		if !q.gapInit {
			q.gapEWMA, q.gapInit = gap, true
		} else {
			q.gapEWMA += (gap - q.gapEWMA) / 16
		}
	}
	q.lastAt = m.ev.at
	q.pops++
	if q.pops&calCheckMask == 0 && q.gapInit {
		target := 3 * q.gapEWMA
		if target < calMinWidth {
			target = calMinWidth
		}
		if q.width > 4*target || 4*q.width < target {
			q.relayout(target, q.sizeFor(q.Len()))
		}
	}
	return m.ev
}

// drainOverflow moves overflow events whose bid entered the window into
// the ring. Call after any curBid advance.
func (q *calQueue) drainOverflow() {
	lim := q.curBid + int64(q.nb)
	for q.overflow.Len() > 0 {
		bid := q.bidOf(q.overflow.Peek().at)
		if bid >= lim {
			return
		}
		q.place(q.overflow.Pop(), bid)
	}
}

// sizeFor picks a ring size for n live events: the next power of two ≥ n,
// floored at calInitNB.
func (q *calQueue) sizeFor(n int) int {
	nb := calInitNB
	for nb < n {
		nb *= 2
	}
	return nb
}

// relayout rebuilds the ring with a new width and bucket count,
// redistributing every live event. O(n); triggered rarely (occupancy
// growth or a 4× width drift at a 1024-pop checkpoint).
func (q *calQueue) relayout(width Time, nb int) {
	all := make([]event, 0, q.Len())
	for i := range q.buckets {
		all = append(all, q.buckets[i]...)
	}
	all = append(all, q.overflow.items...)
	q.overflow.items = q.overflow.items[:0]

	q.width = width
	q.nb = nb
	q.mask = int64(nb - 1)
	q.buckets = make([][]event, nb)
	q.inWin = 0
	q.memo.valid = false

	minAt := q.lastAt
	if len(all) > 0 {
		minAt = all[0].at
		for _, e := range all[1:] {
			if e.at < minAt {
				minAt = e.at
			}
		}
	}
	q.curBid = q.bidOf(minAt)
	lim := q.curBid + int64(q.nb)
	for _, e := range all {
		if bid := q.bidOf(e.at); bid >= lim {
			q.overflow.Push(e)
		} else {
			q.place(e, bid)
		}
	}
}
