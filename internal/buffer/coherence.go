package buffer

// This file holds the multi-node data-sharing support: a cluster-shared
// NVEM second-level cache and the buffer-coherence hook the cluster
// invokes when a remote node modifies a page. The coherence rule is
// write-invalidate: before a node fixes a page for writing, every other
// node's main-memory copy is dropped; the single current version of a
// dirty copy is handed off to the shared NVEM cache (or its NVEM home /
// disk), so the writer — and any later reader — finds it there instead
// of reading a stale disk copy.

import (
	"fmt"
	"math"

	"repro/internal/lru"
	"repro/internal/storage"
)

// SharedNVEMCache is an NVEM second-level database cache shared by every
// node of a data-sharing cluster: a page destaged into it by one node is
// hittable by all others. Construct it once and hand it to each node's
// manager via NewShared; the managers then operate on the one cache under
// their usual migration and destage policies.
type SharedNVEMCache struct {
	cache *lru.Cache[storage.PageKey, nvemFrame]
}

// NewSharedNVEMCache allocates the cluster-shared cache.
func NewSharedNVEMCache(frames int) (*SharedNVEMCache, error) {
	if frames <= 0 {
		return nil, fmt.Errorf("buffer: shared NVEM cache size %d", frames)
	}
	return &SharedNVEMCache{cache: lru.New[storage.PageKey, nvemFrame](frames, storage.PageHash)}, nil
}

// Residency is an exact count, per hash slot, of the pages each node of
// a cluster holds where Invalidate finds them: in main memory, or in the
// node's private NVEM cache, with the XOR of their fingerprints (an
// lru.Tally entry). An entry that counts no page, or one page with
// another fingerprint, proves a node lacks the page (Absent); Holds
// confirms any other. The entries of one slot for all nodes are adjacent,
// so finding the holders of a page reads one row.
type Residency struct {
	t *lru.Tally[storage.PageKey]
}

// NewResidency sizes a residency table for nodes nodes holding at most
// frames pages each, four slots per frame. Counts alone read nonzero for
// about one peer in 17 that lacks the page: 3.64 false probes per
// invalidation over 63 peers on a 64-node cluster of 500 frames each. The
// fingerprint bits a count up to frames leaves (7 at 500 frames) cut that
// to 0.125. It returns nil when frames exceeds 65535, the largest count
// an entry holds.
func NewResidency(nodes, frames int) *Residency {
	if frames > math.MaxUint16 {
		return nil
	}
	return &Residency{t: lru.NewTally[storage.PageKey](4*frames, nodes, frames, storage.PageHash)}
}

// Row returns the entries of key's slot, one per node, and alone, the
// entry of a node that holds key and no other page of the slot.
func (r *Residency) Row(key storage.PageKey) (row []uint16, alone uint16) { return r.t.Row(key) }

// Absent reports whether entry e of key's row proves that its node lacks
// key, given the alone entry Row returned with the row.
func (r *Residency) Absent(e, alone uint16) bool { return r.t.Absent(e, alone) }

// Track counts the pages m holds into column node of r and calls onInsert
// whenever a page enters main memory or the private NVEM cache — whenever
// m may start to hold a page it did not hold before. The manager's frames
// must fit r's sizing.
func (m *Manager) Track(r *Residency, node int, onInsert func(storage.PageKey)) {
	m.mm.Track(r.t, node, onInsert)
	if m.nvemCache != nil && !m.sharedNVEM {
		m.nvemCache.Track(r.t, node, onInsert)
	}
}

// VerifyResidency recounts the pages m holds against column node of r,
// count and fingerprint bits alike, and reports the first slot whose entry
// disagrees — a debug hook for the residency tests (including
// cross-package ones).
func (m *Manager) VerifyResidency(r *Residency, node int) error {
	got := r.t.Column(node)
	want := make([]uint16, len(got))
	m.mm.Each(func(k storage.PageKey, _ frame) bool {
		r.t.Count(want, k)
		return true
	})
	if m.nvemCache != nil && !m.sharedNVEM {
		m.nvemCache.Each(func(k storage.PageKey, _ nvemFrame) bool {
			r.t.Count(want, k)
			return true
		})
	}
	for slot := range got {
		if got[slot] != want[slot] {
			return fmt.Errorf("buffer: node %d slot %d reads %#04x, its pages give %#04x", node, slot, got[slot], want[slot])
		}
	}
	return nil
}

// Holds reports whether Invalidate would find a copy of key to drop.
func (m *Manager) Holds(key storage.PageKey) bool {
	if _, ok := m.mm.Peek(key); ok {
		return true
	}
	if m.nvemCache != nil && !m.sharedNVEM {
		_, ok := m.nvemCache.Peek(key)
		return ok
	}
	return false
}

// Invalidate drops this node's copies of key because a remote node is
// about to modify the page. A private NVEM-cache copy is stale after the
// remote write and is dropped alongside the main-memory frame; a
// cluster-shared cache copy is the single global version and stays. A
// clean main-memory copy is simply discarded. A dirty copy is the only
// current version, so it is handed off before the remote write proceeds:
// into the cluster-shared NVEM cache when the partition uses it (the disk
// update then follows the cache's destage policy), back to its NVEM home
// for NVEM-resident partitions, or asynchronously to disk — never into a
// private cache, where the remote writer could not hit it. The hand-off
// transfer time is charged to this node in the background — the remote
// writer is not delayed by it. Reports whether a main-memory copy existed
// and whether it was dirty.
func (m *Manager) Invalidate(key storage.PageKey) (had, dirty bool) {
	f, ok := m.mm.Peek(key)
	if m.nvemCache != nil && !m.sharedNVEM {
		if cf, inCache := m.nvemCache.Remove(key); inCache {
			if cf.dirty && !(ok && f.dirty) {
				// Deferred destage left the current version here (no
				// newer dirty main-memory copy exists); it must reach
				// disk before the stale disk copy is read, paying the
				// same NVEM→MM transfer as an LRU eviction.
				m.destageFromNVEM(key)
			}
		}
	}
	if !ok {
		return false, false
	}
	m.mm.Remove(key)
	if !f.dirty {
		return true, false
	}
	a := m.alloc(key.Partition)
	switch {
	case a.NVEMResident:
		// Write the current version back to its NVEM home.
		m.handoff()
	case a.NVEMCache && m.sharedNVEM:
		m.insertNVEM(key, true)
		if !m.cfg.NVEMDeferredDestage {
			m.asyncWrite(key, false)
		}
		m.handoff()
	default:
		m.asyncWrite(key, false)
	}
	return true, true
}

// handoff charges a dirty hand-off's NVEM transfer to this node in the
// background on a pooled op: one +0 event, then the CPU-synchronous
// transfer.
func (m *Manager) handoff() {
	op := m.getOp()
	op.wb = false
	op.state = axHandoff
	m.sim.Schedule(0, op.step)
}
