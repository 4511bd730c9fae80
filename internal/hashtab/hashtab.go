// Package hashtab provides the open-addressing hash index behind the two
// lookups every simulated page reference makes: the LRU caches' page index
// (one buffer fix) and the lock manager's granule table (one page lock).
// Both used to be Go maps keyed by 16-byte structs, and hashing those keys
// dominated the replay of the real-life trace.
//
// A Table indexes values that carry their own keys: a cache's node number,
// whose node holds the page key, or a lock entry, which holds its granule.
// A slot stores only the value and its key's 32-bit hash code, so the
// slots stay small and a probe compares keys only when the codes match.
// Slots are a power of two in number and collisions probe linearly.
// Growing and deleting move slots by their cached codes and never call the
// hash function again. Deletion shifts the rest of the probe chain back
// (Knuth, TAOCP vol. 3, §6.4, Algorithm R), so the table keeps no
// tombstones and a chain never outgrows its live keys.
//
// A Table has no iteration. The slot a key lands in depends on its hash
// and on the order of earlier inserts and deletes, so an iteration order
// would be neither stable nor obvious; detlint's maporder rule, which
// guards Go map ranges, cannot see one either. Callers that need their
// keys in order keep them themselves.
package hashtab

// Table is an open-addressing hash index of values of type V by the keys
// of type K they carry. The zero value is not usable; call New.
type Table[K comparable, V any] struct {
	slots []slot[V]
	mask  uint32
	n     int // occupied slots
	limit int // occupied slots that fill the table to its maximum load
	hash  func(K) uint64
	key   func(V) K
}

type slot[V any] struct {
	code uint32 // the key's hash code; 0 marks an empty slot
	val  V
}

// minSlots is the smallest table allocated.
const minSlots = 8

// New returns a table with room for n values before it first grows. A
// value v is stored under key(v), placed by the low 32 bits of its hash,
// so hash must spread its low bits well.
func New[K comparable, V any](n int, hash func(K) uint64, key func(V) K) *Table[K, V] {
	size := minSlots
	for maxKeys(size) < n {
		size *= 2
	}
	t := &Table[K, V]{hash: hash, key: key}
	t.alloc(size)
	return t
}

// maxKeys is how many keys a table of size slots holds at its maximum load
// of 3/4.
func maxKeys(size int) int { return size / 4 * 3 }

func (t *Table[K, V]) alloc(size int) {
	t.slots = make([]slot[V], size)
	t.mask = uint32(size - 1)
	t.limit = maxKeys(size)
}

// Len returns the number of values in the table.
func (t *Table[K, V]) Len() int { return t.n }

// code returns k's hash code: the low 32 bits of its hash, with 0 read as
// 1 so that 0 can mark an empty slot.
func (t *Table[K, V]) code(k K) uint32 {
	c := uint32(t.hash(k))
	if c == 0 {
		c = 1
	}
	return c
}

// Get returns the value stored under k and whether there is one.
func (t *Table[K, V]) Get(k K) (V, bool) {
	c := t.code(k)
	for i := c & t.mask; ; i = (i + 1) & t.mask {
		s := &t.slots[i]
		if s.code == c && t.key(s.val) == k {
			return s.val, true
		}
		if s.code == 0 {
			var zero V
			return zero, false
		}
	}
}

// Insert finds the value stored under k, or makes room for one, and
// returns a pointer to it and whether it was already there. Room made for
// k holds the zero value: the caller must store a value whose key is k
// through the pointer before it calls the table again. The pointer stays
// valid until the next Insert or Delete. Making room in a full table
// doubles it first.
func (t *Table[K, V]) Insert(k K) (v *V, found bool) {
	c := t.code(k)
	i := c & t.mask
	for ; t.slots[i].code != 0; i = (i + 1) & t.mask {
		if s := &t.slots[i]; s.code == c && t.key(s.val) == k {
			return &s.val, true
		}
	}
	if t.n == t.limit {
		t.grow()
		i = t.free(c)
	}
	t.n++
	s := &t.slots[i]
	s.code = c
	return &s.val, false
}

// free returns the first empty slot of code's probe chain.
func (t *Table[K, V]) free(code uint32) uint32 {
	i := code & t.mask
	for t.slots[i].code != 0 {
		i = (i + 1) & t.mask
	}
	return i
}

// grow doubles the table, placing every value by its cached code.
func (t *Table[K, V]) grow() {
	old := t.slots
	t.alloc(2 * len(old))
	for _, s := range old {
		if s.code != 0 {
			t.slots[t.free(s.code)] = s
		}
	}
}

// Delete removes the value stored under k and returns it and whether there
// was one. Each later value of k's probe chain that may sit in the
// vacated slot moves back into it, so every remaining value stays
// reachable from its home slot without a gap.
func (t *Table[K, V]) Delete(k K) (V, bool) {
	c := t.code(k)
	i := c & t.mask
	for {
		s := &t.slots[i]
		if s.code == 0 {
			var zero V
			return zero, false
		}
		if s.code == c && t.key(s.val) == k {
			break
		}
		i = (i + 1) & t.mask
	}
	v := t.slots[i].val
	for j := (i + 1) & t.mask; t.slots[j].code != 0; j = (j + 1) & t.mask {
		// The value at j may fill the hole at i unless its home slot lies
		// cyclically in (i, j]: then moving it would put it before its home.
		home := t.slots[j].code & t.mask
		if (j-home)&t.mask >= (j-i)&t.mask {
			t.slots[i] = t.slots[j]
			i = j
		}
	}
	t.slots[i] = slot[V]{}
	t.n--
	return v, true
}
