package sim

import "slices"

// eventQueue is the kernel's pending-event set. It orders strictly by
// (at, seq), which is the kernel's determinism contract: any two exact
// (at, seq) queues fed the same pushes produce the same pop sequence, so
// the representation below never shows in a run's output.
//
// A kernel holds few events: a few dozen in the experiments, two dozen in
// a PDES node. While at most sortedMax are pending they sit in one slice
// sorted by descending (at, seq), whose last element is the minimum: Peek
// and Pop read the tail, and Push scans from the tail and shifts the
// earlier events up by one. Past sortedMax every event moves into the
// calendar queue, which keeps O(1) operations for large populations; when
// a calendar pop leaves fewer than sortedMin, every event moves back. The
// gap between the two switch points puts more than sortedMax-sortedMin
// pushes or pops between two O(n) moves.
type eventQueue struct {
	// sorted holds the pending events in descending (at, seq) order while
	// the calendar queue is not in use, and nothing while it is.
	sorted []event
	// cal holds the pending events while big is set. It is built at the
	// first move and kept, with its buckets, for later ones.
	cal *calQueue
	big bool
	// pinned keeps the events in the calendar queue whatever their number.
	// Only tests set it, to run whole kernel programs on the calendar
	// queue.
	pinned bool
}

const (
	sortedMax = 128 // a push past this many pending events moves them into the calendar queue
	sortedMin = 32  // a calendar pop that leaves fewer moves them back
)

// precedes reports whether a comes before b in (at, seq) order.
func precedes(a, b *event) bool {
	return a.at < b.at || (a.at == b.at && a.seq < b.seq)
}

// Len reports the number of pending events.
func (q *eventQueue) Len() int {
	if q.big {
		return q.cal.Len()
	}
	return len(q.sorted)
}

// Push inserts an event.
func (q *eventQueue) Push(e event) {
	if q.big {
		q.cal.Push(e)
		return
	}
	n := len(q.sorted)
	if n == sortedMax {
		q.toCalendar()
		q.cal.Push(e)
		return
	}
	i := n
	for i > 0 && precedes(&q.sorted[i-1], &e) {
		i--
	}
	q.sorted = append(q.sorted, e)
	if i < n {
		copy(q.sorted[i+1:], q.sorted[i:n])
		q.sorted[i] = e
	}
}

// Peek returns the (at, seq)-minimum without removing it. It must not be
// called on an empty queue.
func (q *eventQueue) Peek() event {
	if q.big {
		return q.cal.Peek()
	}
	return q.sorted[len(q.sorted)-1]
}

// Pop removes and returns the (at, seq)-minimum. It must not be called on
// an empty queue.
func (q *eventQueue) Pop() event {
	if q.big {
		e := q.cal.Pop()
		if q.cal.Len() < sortedMin && !q.pinned {
			q.toSorted()
		}
		return e
	}
	n := len(q.sorted) - 1
	e := q.sorted[n]
	q.sorted[n] = event{} // release fn for GC
	q.sorted = q.sorted[:n]
	return e
}

// toCalendar moves every event from the sorted slice into the calendar
// queue. The calendar is empty, so its window may start anywhere: it
// starts at the earliest event, as a relayout would start it. Left where
// the last move back put it, at the latest event it then held, the
// window would lie past the events now arriving and crowd them all into
// its first bucket.
func (q *eventQueue) toCalendar() {
	if q.cal == nil {
		q.cal = newCalQueue()
	}
	q.cal.curBid = q.cal.bidOf(q.sorted[len(q.sorted)-1].at)
	for _, e := range q.sorted {
		q.cal.Push(e)
	}
	clear(q.sorted) // release fns for GC
	q.sorted = q.sorted[:0]
	q.big = true
}

// toSorted moves every event from the calendar queue back into the sorted
// slice: the calendar pops them in ascending order, and the slice keeps
// them descending.
func (q *eventQueue) toSorted() {
	n := q.cal.Len()
	q.sorted = slices.Grow(q.sorted[:0], n)[:n]
	for i := n - 1; i >= 0; i-- {
		q.sorted[i] = q.cal.Pop()
	}
	q.big = false
}

// Clear drops every pending event.
func (q *eventQueue) Clear() { *q = eventQueue{} }
