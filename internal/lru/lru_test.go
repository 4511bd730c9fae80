package lru

import (
	"slices"
	"testing"
	"testing/quick"
)

// hashOf is the test caches' index hash: a multiplicative mix that spreads
// small integer keys over the index.
func hashOf[K ~int | ~uint8 | ~uint16](k K) uint64 {
	h := uint64(k) * 0x9e3779b97f4a7c15
	return h ^ h>>29
}

func TestBasicPutGet(t *testing.T) {
	c := New[int, string](2, hashOf[int])
	c.Put(1, "a")
	c.Put(2, "b")
	if v, ok := c.Get(1); !ok || v != "a" {
		t.Fatalf("get 1 = %q %v", v, ok)
	}
	if c.Len() != 2 || c.Cap() != 2 {
		t.Fatalf("len/cap = %d/%d", c.Len(), c.Cap())
	}
}

func TestEvictsLRU(t *testing.T) {
	c := New[int, string](2, hashOf[int])
	c.Put(1, "a")
	c.Put(2, "b")
	ek, ev, evicted := c.Put(3, "c")
	if !evicted || ek != 1 || ev != "a" {
		t.Fatalf("evicted %v %q %v, want 1 a true", ek, ev, evicted)
	}
	if _, ok := c.Get(1); ok {
		t.Fatal("evicted entry still present")
	}
}

func TestGetRefreshesRecency(t *testing.T) {
	c := New[int, string](2, hashOf[int])
	c.Put(1, "a")
	c.Put(2, "b")
	c.Get(1) // 2 is now LRU
	ek, _, evicted := c.Put(3, "c")
	if !evicted || ek != 2 {
		t.Fatalf("evicted %v, want 2", ek)
	}
}

func TestPeekDoesNotRefresh(t *testing.T) {
	c := New[int, string](2, hashOf[int])
	c.Put(1, "a")
	c.Put(2, "b")
	c.Peek(1) // recency unchanged: 1 is still LRU
	ek, _, _ := c.Put(3, "c")
	if ek != 1 {
		t.Fatalf("evicted %v, want 1", ek)
	}
}

func TestTouch(t *testing.T) {
	c := New[int, string](2, hashOf[int])
	c.Put(1, "a")
	c.Put(2, "b")
	if !c.Touch(1) {
		t.Fatal("touch existing failed")
	}
	if c.Touch(9) {
		t.Fatal("touch missing succeeded")
	}
	ek, _, _ := c.Put(3, "c")
	if ek != 2 {
		t.Fatalf("evicted %v, want 2 after touch", ek)
	}
}

func TestUpdate(t *testing.T) {
	c := New[int, string](2, hashOf[int])
	c.Put(1, "a")
	if !c.Update(1, "a2") {
		t.Fatal("update failed")
	}
	if v, _ := c.Peek(1); v != "a2" {
		t.Fatalf("value = %q", v)
	}
	if c.Update(9, "x") {
		t.Fatal("update of missing key succeeded")
	}
}

func TestPutExistingReplaces(t *testing.T) {
	c := New[int, string](2, hashOf[int])
	c.Put(1, "a")
	c.Put(2, "b")
	_, _, evicted := c.Put(1, "a2")
	if evicted {
		t.Fatal("replacing must not evict")
	}
	if v, _ := c.Get(1); v != "a2" {
		t.Fatalf("value = %q", v)
	}
}

func TestRemove(t *testing.T) {
	c := New[int, string](2, hashOf[int])
	c.Put(1, "a")
	if v, ok := c.Remove(1); !ok || v != "a" {
		t.Fatalf("remove = %q %v", v, ok)
	}
	if _, ok := c.Remove(1); ok {
		t.Fatal("double remove succeeded")
	}
	if c.Len() != 0 {
		t.Fatalf("len = %d", c.Len())
	}
	// Slot reuse after remove.
	c.Put(2, "b")
	c.Put(3, "c")
	if c.Len() != 2 {
		t.Fatalf("len = %d after reuse", c.Len())
	}
}

func TestFindOldest(t *testing.T) {
	c := New[int, bool](4, hashOf[int])
	c.Put(1, true)  // dirty
	c.Put(2, false) // clean
	c.Put(3, true)
	c.Put(4, false)
	// Oldest clean entry is 2.
	k, ok := c.FindOldest(func(_ int, dirty bool) bool { return !dirty })
	if !ok || k != 2 {
		t.Fatalf("oldest clean = %v %v, want 2", k, ok)
	}
	// Oldest overall is 1.
	if k, ok := c.Oldest(); !ok || k != 1 {
		t.Fatalf("oldest = %v", k)
	}
	// No entry matching.
	if _, ok := c.FindOldest(func(int, bool) bool { return false }); ok {
		t.Fatal("found nonexistent entry")
	}
}

func TestOldestEmpty(t *testing.T) {
	c := New[int, int](1, hashOf[int])
	if _, ok := c.Oldest(); ok {
		t.Fatal("oldest on empty cache")
	}
}

func TestEachOrder(t *testing.T) {
	c := New[int, int](3, hashOf[int])
	c.Put(1, 0)
	c.Put(2, 0)
	c.Put(3, 0)
	c.Get(1) // order MRU→LRU: 1, 3, 2
	var got []int
	c.Each(func(k, _ int) bool { got = append(got, k); return true })
	want := []int{1, 3, 2}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("order = %v, want %v", got, want)
		}
	}
	// Early stop.
	var first []int
	c.Each(func(k, _ int) bool { first = append(first, k); return false })
	if len(first) != 1 {
		t.Fatalf("early stop visited %d", len(first))
	}
}

func TestCapacityOnePanicsZero(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic for capacity 0")
		}
	}()
	New[int, int](0, hashOf[int])
}

func TestCapacityOne(t *testing.T) {
	c := New[int, int](1, hashOf[int])
	c.Put(1, 10)
	ek, _, evicted := c.Put(2, 20)
	if !evicted || ek != 1 {
		t.Fatalf("evicted = %v %v", ek, evicted)
	}
	if v, ok := c.Get(2); !ok || v != 20 {
		t.Fatalf("get = %v %v", v, ok)
	}
}

// Property: the cache behaves identically to a naive reference
// implementation under random Put/Get/Remove sequences.
func TestMatchesReferenceModel(t *testing.T) {
	type op struct {
		Kind uint8
		Key  uint8
	}
	f := func(ops []op) bool {
		c := New[uint8, int](4, hashOf[uint8])
		// Reference: slice ordered MRU first.
		type entry struct {
			k uint8
			v int
		}
		var ref []entry
		find := func(k uint8) int {
			for i := range ref {
				if ref[i].k == k {
					return i
				}
			}
			return -1
		}
		val := 0
		for _, o := range ops {
			k := o.Key % 8
			switch o.Kind % 3 {
			case 0: // Put
				val++
				if i := find(k); i >= 0 {
					ref = append(ref[:i], ref[i+1:]...)
				} else if len(ref) == 4 {
					ref = ref[:3]
				}
				ref = append([]entry{{k, val}}, ref...)
				c.Put(k, val)
			case 1: // Get
				gotV, gotOK := c.Get(k)
				i := find(k)
				if (i >= 0) != gotOK {
					return false
				}
				if i >= 0 {
					if gotV != ref[i].v {
						return false
					}
					e := ref[i]
					ref = append(ref[:i], ref[i+1:]...)
					ref = append([]entry{e}, ref...)
				}
			case 2: // Remove
				_, gotOK := c.Remove(k)
				i := find(k)
				if (i >= 0) != gotOK {
					return false
				}
				if i >= 0 {
					ref = append(ref[:i], ref[i+1:]...)
				}
			}
			if c.Len() != len(ref) {
				return false
			}
		}
		// Final order check.
		var order []uint8
		c.Each(func(k uint8, _ int) bool { order = append(order, k); return true })
		if len(order) != len(ref) {
			return false
		}
		for i := range ref {
			if order[i] != ref[i].k {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}

// TestTallyMatchesRecount is the membership entries' property test: random
// Put/Get/Touch/Update/Remove/Clear sequences with evictions run on caches
// tracked into one tally — two sharing column 0, as a node's main memory
// and private NVEM cache do, where the split leaves room for both — and
// after every step each slot's entry in each column must equal a recount
// of the column's resident keys: their count in the low bits and the XOR
// of their fingerprints, the top bits of their hashes, in the rest.
// It runs on tallies whose largest counts give 1, 4, 5 and 16 count bits,
// the last with no fingerprint. The insert notification must fire exactly
// once per insertion of a key that was not resident, and never otherwise.
func TestTallyMatchesRecount(t *testing.T) {
	const slots = 8 // far fewer than the key space, so slots collide
	type op struct {
		Kind  uint8
		Cache uint8
		Key   uint16
	}
	for _, tc := range []struct {
		most, countBits int
		caps, cols      []int // each cache's capacity and column
	}{
		{most: 1, countBits: 1, caps: []int{1, 1}, cols: []int{0, 1}},
		{most: 8, countBits: 4, caps: []int{5, 3, 4}, cols: []int{0, 0, 1}},
		{most: 31, countBits: 5, caps: []int{5, 3, 4}, cols: []int{0, 0, 1}},
		{most: 65535, countBits: 16, caps: []int{5, 3, 4}, cols: []int{0, 0, 1}},
	} {
		// recount builds column col's entries from its caches' keys.
		recount := func(caches []*Cache[uint16, int], col int) []uint16 {
			counts, fps := make([]int, slots), make([]int, slots)
			for i, c := range caches {
				if tc.cols[i] != col {
					continue
				}
				c.Each(func(k uint16, _ int) bool {
					h := hashOf(k)
					counts[h%slots]++
					fps[h%slots] ^= int(h >> (64 - (16 - tc.countBits)))
					return true
				})
			}
			want := make([]uint16, slots)
			for s := range want {
				want[s] = uint16(counts[s] | fps[s]<<tc.countBits)
			}
			return want
		}
		f := func(ops []op) bool {
			tally := NewTally[uint16](slots, 2, tc.most, hashOf[uint16])
			if int(tally.countBits) != tc.countBits {
				t.Fatalf("largest count %d: %d count bits, want %d", tc.most, tally.countBits, tc.countBits)
			}
			var caches []*Cache[uint16, int]
			for _, n := range tc.caps {
				caches = append(caches, New[uint16, int](n, hashOf[uint16]))
			}
			var notified []uint16
			for i, c := range caches {
				if i == len(caches)-1 {
					// Tracking starts on a non-empty cache: its keys count in.
					c.Put(1, 0)
					c.Put(9, 0)
				}
				ci := i
				c.Track(tally, tc.cols[i], func(k uint16) {
					if _, ok := caches[ci].Peek(k); !ok {
						t.Errorf("notified of key %d before it was resident", k)
					}
					notified = append(notified, k)
				})
			}
			for step, o := range ops {
				c := caches[int(o.Cache)%len(caches)]
				k := o.Key % 24
				_, present := c.Peek(k)
				notified = notified[:0]
				switch o.Kind % 7 {
				case 0, 1: // Put, often enough to keep the caches full
					c.Put(k, step)
				case 2:
					c.Get(k)
				case 3:
					c.Touch(k)
				case 4:
					c.Update(k, step)
				case 5:
					c.Remove(k)
				default:
					if o.Key%8 == 0 { // rarely: drop everything
						c.Clear()
					} else {
						c.Remove(k)
					}
				}
				wantNote := o.Kind%7 <= 1 && !present
				if wantNote != (len(notified) == 1) || len(notified) > 1 || wantNote && notified[0] != k {
					t.Logf("step %d: op %d on key %d (resident %v) notified %v", step, o.Kind%7, k, present, notified)
					return false
				}
				for col := 0; col < 2; col++ {
					if got, want := tally.Column(col), recount(caches, col); !slices.Equal(got, want) {
						t.Logf("largest count %d, step %d: column %d reads %#04x, recount %#04x", tc.most, step, col, got, want)
						return false
					}
				}
			}
			return true
		}
		if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
			t.Fatalf("largest count %d: %v", tc.most, err)
		}
	}
}

// TestTrackTwicePanics: a cache counts into one column only.
func TestTrackTwicePanics(t *testing.T) {
	tally := NewTally[int](4, 1, 2, func(k int) uint64 { return uint64(k) })
	c := New[int, int](2, hashOf[int])
	c.Track(tally, 0, func(int) {})
	defer func() {
		if recover() == nil {
			t.Fatal("second Track did not panic")
		}
	}()
	c.Track(tally, 0, func(int) {})
}

// TestTallyOverflowPanics: a tally split for counts up to 3 holds three
// keys in one slot, and a fourth, which would carry into the fingerprint
// bits, panics.
func TestTallyOverflowPanics(t *testing.T) {
	tally := NewTally[int](1, 1, 3, hashOf[int])
	c := New[int, int](4, hashOf[int])
	c.Track(tally, 0, func(int) {})
	for k := range 3 {
		c.Put(k, 0)
	}
	if got := tally.Column(0)[0] & tally.counts; got != 3 {
		t.Fatalf("three keys count %d", got)
	}
	defer func() {
		if recover() == nil {
			t.Fatal("a fourth key in the slot did not panic")
		}
	}()
	c.Put(3, 0)
}
