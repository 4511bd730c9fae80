package hashtab

import (
	"math/rand"
	"testing"
)

// mixHash spreads keys over the whole table.
func mixHash(k uint16) uint64 {
	h := uint64(k) * 0x9e3779b97f4a7c15
	return h ^ h>>29
}

// tailHash gives every key one of the four highest codes, so every home
// slot is one of the table's last four and every chain wraps around.
func tailHash(k uint16) uint64 { return uint64(^uint32(0) - uint32(k%4)) }

// lumpHash gives keys a handful of home slots, among them the code 0 that
// the table reads as 1, so chains run long and interleave.
func lumpHash(k uint16) uint64 { return uint64(k%5) * 3 }

// entry is the tests' value: it carries its key k.
type entry struct {
	k uint16
	v int
}

func keyOf(e entry) uint16 { return e.k }

// table returns an empty test table under hash h with room for n values.
func table(n int, h func(uint16) uint64) *Table[uint16, entry] {
	return New[uint16, entry](n, h, keyOf)
}

// store sets k's value to v, which must be new, as a caller does after
// Insert made room for it.
func store(tab *Table[uint16, entry], k uint16, v int) {
	p, found := tab.Insert(k)
	if found {
		panic("key already present")
	}
	*p = entry{k, v}
}

var hashes = []struct {
	name string
	fn   func(uint16) uint64
}{
	{"mix", mixHash},
	{"tail", tailHash},
	{"lump", lumpHash},
}

// check verifies that t holds exactly the keys of ref, with their values,
// and that every key of t is reachable from its home slot: no empty slot
// lies between a key's home and the slot it sits in.
func check(t *testing.T, tab *Table[uint16, entry], ref map[uint16]int, keys int) {
	t.Helper()
	if tab.Len() != len(ref) {
		t.Fatalf("Len() = %d, reference holds %d", tab.Len(), len(ref))
	}
	for k := 0; k < keys; k++ {
		got, ok := tab.Get(uint16(k))
		want, wantOK := ref[uint16(k)]
		if ok != wantOK || got.v != want || (ok && got.k != uint16(k)) {
			t.Fatalf("Get(%d) = %+v, %v; reference %d, %v", k, got, ok, want, wantOK)
		}
	}
	occupied := 0
	for i, s := range tab.slots {
		if s.code == 0 {
			continue
		}
		occupied++
		for j := s.code & tab.mask; j != uint32(i); j = (j + 1) & tab.mask {
			if tab.slots[j].code == 0 {
				t.Fatalf("key %d in slot %d is cut off from its home %d by the empty slot %d",
					s.val.k, i, s.code&tab.mask, j)
			}
		}
	}
	if occupied != len(ref) {
		t.Fatalf("%d slots occupied, reference holds %d keys", occupied, len(ref))
	}
}

// TestDifferential runs random inserts, lookups and deletes against a Go
// map, from an empty table that grows, under hashes that spread keys,
// wrap every chain around the table's end, or pile keys onto a few homes.
func TestDifferential(t *testing.T) {
	const keys = 300
	for _, h := range hashes {
		t.Run(h.name, func(t *testing.T) {
			for seed := int64(1); seed <= 20; seed++ {
				rnd := rand.New(rand.NewSource(seed))
				tab := table(0, h.fn)
				ref := map[uint16]int{}
				for op := 0; op < 2000; op++ {
					k := uint16(rnd.Intn(keys))
					switch r := rnd.Intn(10); {
					case r < 5:
						v, found := tab.Insert(k)
						_, want := ref[k]
						if found != want {
							t.Fatalf("seed %d: Insert(%d) found = %v, reference %v", seed, k, found, want)
						}
						if !found && *v != (entry{}) {
							t.Fatalf("seed %d: room for key %d holds %+v, want the zero value", seed, k, *v)
						}
						*v = entry{k, op}
						ref[k] = op
					case r < 8:
						want, wantOK := ref[k]
						if got, ok := tab.Delete(k); ok != wantOK || got.v != want {
							t.Fatalf("seed %d: Delete(%d) = %+v, %v; reference %d, %v", seed, k, got, ok, want, wantOK)
						}
						delete(ref, k)
					default:
						got, ok := tab.Get(k)
						want, wantOK := ref[k]
						if ok != wantOK || got.v != want {
							t.Fatalf("seed %d: Get(%d) = %+v, %v; reference %d, %v", seed, k, got, ok, want, wantOK)
						}
					}
					if op%97 == 0 {
						check(t, tab, ref, keys)
					}
				}
				check(t, tab, ref, keys)
			}
		})
	}
}

// TestDeleteMidChain deletes each position of one long chain that wraps
// around the table's end, with keys of a later home interleaved, and
// checks that every other key stays reachable.
func TestDeleteMidChain(t *testing.T) {
	for victim := uint16(0); victim < 12; victim++ {
		tab := table(0, tailHash)
		ref := map[uint16]int{}
		for k := uint16(0); k < 12; k++ {
			store(tab, k, int(k))
			ref[k] = int(k)
		}
		if len(tab.slots) != 16 {
			t.Fatalf("12 keys in %d slots, want 16", len(tab.slots))
		}
		tab.Delete(victim)
		delete(ref, victim)
		check(t, tab, ref, 12)
		// A deleted key is gone, and adding it back finds it again.
		if _, ok := tab.Get(victim); ok {
			t.Fatalf("deleted key %d still found", victim)
		}
		store(tab, victim, 99)
		ref[victim] = 99
		check(t, tab, ref, 12)
	}
}

// TestFullChurn keeps a table at the size an LRU cache gives it, holding
// its full capacity, and replaces one key after another, as a full cache
// does on every miss: it must never grow and never lose a key.
func TestFullChurn(t *testing.T) {
	const capacity, keys = 24, 200
	for _, h := range hashes {
		t.Run(h.name, func(t *testing.T) {
			rnd := rand.New(rand.NewSource(7))
			tab := table(capacity+1, h.fn)
			size := len(tab.slots)
			ref := map[uint16]int{}
			var resident []uint16
			for k := uint16(0); len(resident) < capacity; k++ {
				store(tab, k, int(k))
				ref[k] = int(k)
				resident = append(resident, k)
			}
			for op := 0; op < 5000; op++ {
				k := uint16(rnd.Intn(keys))
				if _, ok := ref[k]; ok {
					continue
				}
				// Insert, then evict, as lru.Cache.Put does.
				store(tab, k, op)
				ref[k] = op
				i := rnd.Intn(len(resident))
				if _, ok := tab.Delete(resident[i]); !ok {
					t.Fatalf("resident key %d not found", resident[i])
				}
				delete(ref, resident[i])
				resident[i] = k
				if op%101 == 0 {
					check(t, tab, ref, keys)
				}
			}
			check(t, tab, ref, keys)
			if len(tab.slots) != size {
				t.Fatalf("table grew from %d to %d slots at constant occupancy", size, len(tab.slots))
			}
		})
	}
}

// TestGrowth fills a table from empty far past its first size, as a lock
// table does, and checks every doubling keeps every key and its value.
func TestGrowth(t *testing.T) {
	for _, h := range hashes {
		tab := table(0, h.fn)
		ref := map[uint16]int{}
		sizes := map[int]bool{}
		for k := uint16(0); k < 1000; k++ {
			store(tab, k, int(k)+1)
			ref[k] = int(k) + 1
			sizes[len(tab.slots)] = true
			if tab.n > tab.limit {
				t.Fatalf("%s: %d keys in %d slots exceed the maximum load", h.name, tab.n, len(tab.slots))
			}
		}
		check(t, tab, ref, 1000)
		if len(sizes) < 7 || len(tab.slots) != 2048 {
			t.Fatalf("%s: grew through %d sizes to %d slots, want 8…2048", h.name, len(sizes), len(tab.slots))
		}
		for k := uint16(0); k < 1000; k += 2 {
			tab.Delete(k)
			delete(ref, k)
		}
		check(t, tab, ref, 1000)
	}
}

// TestNewSizesForRoom checks that New(n) holds n keys without growing.
func TestNewSizesForRoom(t *testing.T) {
	for n := 0; n < 200; n++ {
		tab := table(n, mixHash)
		size := len(tab.slots)
		for k := 0; k < n; k++ {
			store(tab, uint16(k), k)
		}
		if len(tab.slots) != size {
			t.Fatalf("New(%d): grew from %d to %d slots", n, size, len(tab.slots))
		}
	}
}

// TestDeleteClearsSlot checks that a deleted key's value is dropped, so a
// table of pointers does not keep freed objects alive.
func TestDeleteClearsSlot(t *testing.T) {
	tab := New[uint16, *entry](0, lumpHash, func(e *entry) uint16 { return e.k })
	for k := uint16(0); k < 6; k++ {
		v, _ := tab.Insert(k)
		*v = &entry{k: k}
	}
	for k := uint16(0); k < 6; k++ {
		tab.Delete(k)
	}
	for i, s := range tab.slots {
		if s != (slot[*entry]{}) {
			t.Fatalf("slot %d not cleared after every key was deleted: %+v", i, s)
		}
	}
}

// FuzzTable runs the operations a byte string spells against a Go map:
// the first byte picks the hash, then each pair of bytes is one op (its
// low two bits: insert, delete or get) and one key.
func FuzzTable(f *testing.F) {
	f.Add([]byte{0, 0, 1, 0, 2, 1, 1, 2, 3, 8, 1})
	f.Add([]byte{1, 0, 0, 0, 1, 0, 2, 0, 3, 1, 1, 2, 0})
	f.Add([]byte{2, 0, 0, 0, 5, 0, 10, 1, 5, 2, 10, 0, 15})
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) == 0 {
			return
		}
		tab := table(0, hashes[int(data[0])%len(hashes)].fn)
		ref := map[uint16]int{}
		for i := 1; i+1 < len(data); i += 2 {
			k := uint16(data[i+1])
			switch data[i] % 4 {
			case 0, 3:
				v, found := tab.Insert(k)
				if _, want := ref[k]; found != want {
					t.Fatalf("op %d: Insert(%d) found = %v, reference %v", i, k, found, want)
				}
				*v = entry{k, i}
				ref[k] = i
			case 1:
				want, wantOK := ref[k]
				if got, ok := tab.Delete(k); ok != wantOK || got.v != want {
					t.Fatalf("op %d: Delete(%d) = %+v, %v; reference %d, %v", i, k, got, ok, want, wantOK)
				}
				delete(ref, k)
			case 2:
				got, ok := tab.Get(k)
				if want, wantOK := ref[k]; ok != wantOK || got.v != want {
					t.Fatalf("op %d: Get(%d) = %+v, %v; reference %d, %v", i, k, got, ok, want, wantOK)
				}
			}
		}
		check(t, tab, ref, 256)
	})
}
