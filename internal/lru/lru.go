// Package lru provides the least-recently-used cache structure underlying
// every caching level of TPSIM: the main-memory database buffer, the NVEM
// second-level cache, and the disk-controller caches. It supports the
// predicate-based victim search non-volatile disk caches need ("replace the
// least recently accessed unmodified page", section 3.3).
package lru

import (
	"math"
	"math/bits"

	"repro/internal/hashtab"
)

// node is a doubly-linked-list element. index 0 is a sentinel.
type node[K comparable, V any] struct {
	key        K
	value      V
	prev, next int
}

// Cache is an LRU cache with O(1) Get/Put/Remove and ordered scans. The
// zero value is not usable; call New.
type Cache[K comparable, V any] struct {
	capacity int
	nodes    []node[K, V]             // nodes[0] is the sentinel of the circular list
	index    *hashtab.Table[K, int32] // node numbers by their nodes' keys
	free     []int

	// Membership tracking (Track): every resident key counts once in
	// column col of tally, and onInsert runs after each new key enters.
	tally    *Tally[K]
	col      int
	onInsert func(K)
}

// Tally is an exact count of resident keys per hash slot, kept for the
// caches tracked into it, with a fingerprint of the keys it counts. Each
// tracked cache counts into one column, and several caches may share a
// column. An entry packs the count of a column's keys in the slot into its
// low bits and the XOR of their fingerprints into the rest. A key's
// fingerprint is the top bits of its hash, which the slot index does not
// use; the bits just above the index follow it too closely under a
// multiplicative hash (on a 64-node cluster they left 2.8 times as many
// peers without the page to probe). So an entry is zero exactly when its
// count is, and an entry that counts one key carries that key's
// fingerprint: a zero entry, or a one-key entry with another fingerprint,
// proves that no cache of the column holds the key looked up (Absent); two
// or more keys say only that it may be resident. The table is slot-major:
// the entries of one slot for every column are adjacent, so reading a
// key's entries for all columns touches one contiguous row.
type Tally[K comparable] struct {
	entries   []uint16 // entries[slot*cols + col]
	cols      int
	mask      uint64 // the slot index: hash & mask
	countBits uint8  // low bits of an entry that hold its count
	fpShift   uint8  // 48 + countBits: the hash's top 16 − countBits bits remain
	counts    uint16 // the count field: 1<<countBits - 1
	hash      func(K) uint64
}

// NewTally returns a tally of cols columns and at least slots hash slots
// (rounded up to a power of two), placing key k in slot hash(k) mod slots.
// most is the largest count one entry must hold: the caches sharing a
// column hold at most most keys between them. It sets the split: the
// count takes the fewest bits that hold most, and the fingerprint the
// other 16 − that, none at 65535.
func NewTally[K comparable](slots, cols, most int, hash func(K) uint64) *Tally[K] {
	if slots <= 0 || cols <= 0 || most <= 0 {
		panic("lru: non-positive tally dimensions")
	}
	if most > math.MaxUint16 {
		panic("lru: tally counts past 65535")
	}
	n := 1
	for n < slots {
		n *= 2
	}
	cb := bits.Len(uint(most))
	return &Tally[K]{
		entries:   make([]uint16, n*cols),
		cols:      cols,
		mask:      uint64(n - 1),
		countBits: uint8(cb),
		fpShift:   uint8(48 + cb),
		counts:    uint16(1<<cb - 1),
		hash:      hash,
	}
}

// place returns k's slot and its fingerprint, the hash's top 16 −
// countBits bits, moved above the count field (none at 16 count bits,
// where the shift reaches 64).
func (t *Tally[K]) place(k K) (slot int, fp uint16) {
	h := t.hash(k)
	return int(h & t.mask), uint16(h>>t.fpShift) << t.countBits
}

// Row returns k's slot, one entry per column, and alone, the entry of a
// column whose caches hold k and no other key of the slot.
func (t *Tally[K]) Row(k K) (row []uint16, alone uint16) {
	slot, fp := t.place(k)
	i := slot * t.cols
	return t.entries[i : i+t.cols : i+t.cols], 1 | fp
}

// Absent reports whether entry e, read in the row of a key whose alone
// entry Row returned, proves that the column's caches do not hold the key:
// e counts no key, or one key with another fingerprint.
func (t *Tally[K]) Absent(e, alone uint16) bool {
	return e == 0 || e != alone && e&t.counts == 1
}

// Column returns a copy of column col: one entry per slot.
func (t *Tally[K]) Column(col int) []uint16 {
	out := make([]uint16, len(t.entries)/t.cols)
	for i := range out {
		out[i] = t.entries[i*t.cols+col]
	}
	return out
}

// Count adds k to entries, a column of this tally's geometry (Column), as
// tracking adds a key that enters a cache. A recount that starts from a
// zeroed column must reproduce the column's entries.
func (t *Tally[K]) Count(entries []uint16, k K) {
	slot, fp := t.place(k)
	t.fold(&entries[slot], fp)
}

// fold counts one more key of fingerprint fp into entry e.
func (t *Tally[K]) fold(e *uint16, fp uint16) {
	if *e&t.counts == t.counts {
		panic("lru: tally count overflow")
	}
	*e = (*e + 1) ^ fp
}

func (t *Tally[K]) add(col int, k K) {
	slot, fp := t.place(k)
	t.fold(&t.entries[slot*t.cols+col], fp)
}

// sub uncounts a resident key: the count is at least 1, so the decrement
// leaves the fingerprint bits alone, and the XOR takes k's fingerprint out.
func (t *Tally[K]) sub(col int, k K) {
	slot, fp := t.place(k)
	e := &t.entries[slot*t.cols+col]
	*e = (*e - 1) ^ fp
}

// Track counts c's keys into column col of t from now on — the keys
// already resident included — and calls onInsert(k) after every insertion
// of a new key k. Replacing a present key's value, recency changes and
// Update are not insertions. onInsert must not modify c.
func (c *Cache[K, V]) Track(t *Tally[K], col int, onInsert func(K)) {
	if c.tally != nil {
		panic("lru: cache already tracked")
	}
	c.tally, c.col, c.onInsert = t, col, onInsert
	for i := c.nodes[0].next; i != 0; i = c.nodes[i].next {
		t.add(col, c.nodes[i].key)
	}
}

// New creates an LRU cache holding at most capacity entries. Its index
// places key k by hash(k), which must spread its low bits well. capacity
// must be positive.
func New[K comparable, V any](capacity int, hash func(K) uint64) *Cache[K, V] {
	if capacity <= 0 {
		panic("lru: non-positive capacity")
	}
	// Put adds a key before it evicts, so a full cache briefly holds one
	// node and one indexed key more than its capacity. Sized for that, the
	// node array and the index never grow.
	c := &Cache[K, V]{
		capacity: capacity,
		nodes:    make([]node[K, V], 1, capacity+2),
	}
	c.index = hashtab.New(capacity+1, hash, c.keyOf)
	c.nodes[0].prev = 0
	c.nodes[0].next = 0
	return c
}

// keyOf returns the key of node i.
func (c *Cache[K, V]) keyOf(i int32) K { return c.nodes[i].key }

// Len returns the number of cached entries.
func (c *Cache[K, V]) Len() int { return c.index.Len() }

// Cap returns the capacity.
func (c *Cache[K, V]) Cap() int { return c.capacity }

func (c *Cache[K, V]) unlink(i int) {
	n := &c.nodes[i]
	c.nodes[n.prev].next = n.next
	c.nodes[n.next].prev = n.prev
}

// pushFront links node i as most recently used.
func (c *Cache[K, V]) pushFront(i int) {
	head := &c.nodes[0]
	n := &c.nodes[i]
	n.prev = 0
	n.next = head.next
	c.nodes[head.next].prev = i
	head.next = i
}

// Get returns the value for k and marks it most recently used.
func (c *Cache[K, V]) Get(k K) (V, bool) {
	i, ok := c.index.Get(k)
	if !ok {
		var zero V
		return zero, false
	}
	c.unlink(int(i))
	c.pushFront(int(i))
	return c.nodes[i].value, true
}

// Peek returns the value for k without affecting recency.
func (c *Cache[K, V]) Peek(k K) (V, bool) {
	i, ok := c.index.Get(k)
	if !ok {
		var zero V
		return zero, false
	}
	return c.nodes[i].value, true
}

// Touch marks k most recently used if present.
func (c *Cache[K, V]) Touch(k K) bool {
	i, ok := c.index.Get(k)
	if !ok {
		return false
	}
	c.unlink(int(i))
	c.pushFront(int(i))
	return true
}

// Update replaces the value for k (keeping its recency) if present.
func (c *Cache[K, V]) Update(k K, v V) bool {
	i, ok := c.index.Get(k)
	if !ok {
		return false
	}
	c.nodes[i].value = v
	return true
}

// Put inserts k as most recently used. If k is present its value is
// replaced. If the cache is full, the least recently used entry is evicted
// and returned with evicted=true.
func (c *Cache[K, V]) Put(k K, v V) (evictedK K, evictedV V, evicted bool) {
	slot, found := c.index.Insert(k)
	if found {
		i := int(*slot)
		c.nodes[i].value = v
		c.unlink(i)
		c.pushFront(i)
		return
	}
	var i int
	if len(c.free) > 0 {
		i = c.free[len(c.free)-1]
		c.free = c.free[:len(c.free)-1]
	} else {
		c.nodes = append(c.nodes, node[K, V]{})
		i = len(c.nodes) - 1
	}
	c.nodes[i].key = k
	c.nodes[i].value = v
	*slot = int32(i)
	if c.index.Len() > c.capacity {
		tail := c.nodes[0].prev
		evictedK = c.nodes[tail].key
		evictedV = c.nodes[tail].value
		evicted = true
		c.index.Delete(evictedK)
		c.release(tail)
	}
	c.pushFront(i)
	if c.tally != nil {
		c.tally.add(c.col, k)
		c.onInsert(k)
	}
	return
}

// release frees node i, whose key has left the index.
func (c *Cache[K, V]) release(i int) {
	c.unlink(i)
	if c.tally != nil {
		c.tally.sub(c.col, c.nodes[i].key)
	}
	var zeroK K
	var zeroV V
	c.nodes[i].key = zeroK
	c.nodes[i].value = zeroV
	c.free = append(c.free, i)
}

// Remove deletes k, returning its value.
func (c *Cache[K, V]) Remove(k K) (V, bool) {
	i, ok := c.index.Delete(k)
	if !ok {
		var zero V
		return zero, false
	}
	v := c.nodes[i].value
	c.release(int(i))
	return v, true
}

// Clear removes every entry, as if each were removed in turn: a tracked
// cache uncounts them and stays tracked.
func (c *Cache[K, V]) Clear() {
	for i := c.nodes[0].next; i != 0; {
		next := c.nodes[i].next
		c.index.Delete(c.nodes[i].key)
		c.release(i)
		i = next
	}
}

// FindOldest scans from least to most recently used and returns the first
// key whose entry satisfies pred. Used by non-volatile disk caches to find
// the least recently used clean frame.
func (c *Cache[K, V]) FindOldest(pred func(K, V) bool) (K, bool) {
	for i := c.nodes[0].prev; i != 0; i = c.nodes[i].prev {
		if pred(c.nodes[i].key, c.nodes[i].value) {
			return c.nodes[i].key, true
		}
	}
	var zero K
	return zero, false
}

// Oldest returns the least recently used key.
func (c *Cache[K, V]) Oldest() (K, bool) {
	tail := c.nodes[0].prev
	if tail == 0 {
		var zero K
		return zero, false
	}
	return c.nodes[tail].key, true
}

// Each calls fn for every entry from most to least recently used, stopping
// if fn returns false.
func (c *Cache[K, V]) Each(fn func(K, V) bool) {
	for i := c.nodes[0].next; i != 0; i = c.nodes[i].next {
		if !fn(c.nodes[i].key, c.nodes[i].value) {
			return
		}
	}
}
