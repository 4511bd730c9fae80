package sim

// event is a scheduled occurrence in the simulation. Events with equal
// timestamps fire in scheduling order (seq), which keeps runs deterministic.
// release, when non-nil, is a resource the kernel releases immediately
// before running fn: carrying it in the event spares the hot acquire → hold
// → release → continue pattern (Resource.Use) a wrapper closure allocation
// per operation.
type event struct {
	at      Time
	seq     uint64
	fn      func()
	release *Resource
}

// eventHeap is a binary min-heap ordered by (at, seq). It is implemented
// directly (rather than via container/heap) to avoid interface boxing on the
// simulator's hottest path.
type eventHeap struct {
	items []event
}

// Len reports the number of pending events.
func (h *eventHeap) Len() int { return len(h.items) }

// Push inserts an event.
func (h *eventHeap) Push(e event) {
	h.items = append(h.items, e)
	h.up(len(h.items) - 1)
}

// Peek returns the earliest event without removing it. It must not be called
// on an empty heap.
func (h *eventHeap) Peek() event { return h.items[0] }

// Pop removes and returns the earliest event. It must not be called on an
// empty heap.
func (h *eventHeap) Pop() event {
	top := h.items[0]
	n := len(h.items) - 1
	h.items[0] = h.items[n]
	h.items[n] = event{} // release fn for GC
	h.items = h.items[:n]
	if n > 0 {
		h.down(0)
	}
	return top
}

func (h *eventHeap) less(i, j int) bool {
	a, b := &h.items[i], &h.items[j]
	if a.at != b.at {
		return a.at < b.at
	}
	return a.seq < b.seq
}

func (h *eventHeap) up(i int) {
	for i > 0 {
		parent := (i - 1) / 2
		if !h.less(i, parent) {
			break
		}
		h.items[i], h.items[parent] = h.items[parent], h.items[i]
		i = parent
	}
}

func (h *eventHeap) down(i int) {
	n := len(h.items)
	for {
		l, r := 2*i+1, 2*i+2
		smallest := i
		if l < n && h.less(l, smallest) {
			smallest = l
		}
		if r < n && h.less(r, smallest) {
			smallest = r
		}
		if smallest == i {
			return
		}
		h.items[i], h.items[smallest] = h.items[smallest], h.items[i]
		i = smallest
	}
}
