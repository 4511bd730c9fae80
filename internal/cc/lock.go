// Package cc implements TPSIM's concurrency-control component: strict
// two-phase locking with long read/write locks, FCFS lock queues with
// upgrade priority, and wait-for-graph deadlock detection performed on every
// denied request, aborting the requester that closes the cycle (section
// 3.2). Lock granularity (none, page or object level) is chosen per
// partition by the engine.
//
// The manager hashes only granules. A transaction's own lock state — the
// entries it holds, the one it waits on — lives in its Txn, which the
// caller owns and hands to every call, as the transaction control block
// carries its lock list in Gray and Reuter's lock manager (Transaction
// Processing: Concepts and Techniques, 1993, ch. 8).
package cc

import (
	"cmp"
	"fmt"
	"slices"

	"repro/internal/hashtab"
)

// Mode is a lock mode.
type Mode uint8

// Lock modes. Write conflicts with everything; Read is shared.
const (
	Read Mode = iota
	Write
)

func (m Mode) String() string {
	if m == Read {
		return "R"
	}
	return "W"
}

// Granularity is the per-partition concurrency-control choice (CCmode in
// Table 3.3).
type Granularity uint8

// Granularity values.
const (
	NoCC Granularity = iota // accesses synchronized elsewhere (latches)
	PageLevel
	ObjectLevel
)

func (g Granularity) String() string {
	switch g {
	case NoCC:
		return "none"
	case PageLevel:
		return "page"
	case ObjectLevel:
		return "object"
	default:
		return fmt.Sprintf("Granularity(%d)", uint8(g))
	}
}

// UnmarshalText sets g to the granularity whose String() is text.
func (g *Granularity) UnmarshalText(text []byte) error {
	for v := range ObjectLevel + 1 {
		if v.String() == string(text) {
			*g = v
			return nil
		}
	}
	return fmt.Errorf("unknown cc mode %q", text)
}

// Granule identifies a lockable unit: a page or an object of a partition.
type Granule struct {
	Partition int
	ID        int64
}

// granuleHash places granules in the lock table, mixing them as
// storage.PageHash mixes page keys.
func granuleHash(g Granule) uint64 {
	h := (uint64(g.ID) ^ uint64(g.Partition)<<48) * 0x9e3779b97f4a7c15
	return h ^ h>>29
}

// Result is the outcome of an Acquire call.
type Result uint8

// Acquire outcomes.
const (
	Granted  Result = iota // lock held; proceed
	Wait                   // queued; the manager wakes the Txn's Waiter later
	Deadlock               // request would close a cycle; caller must abort
)

// Waiter is woken when the manager grants a transaction's queued request.
type Waiter interface {
	// Wake runs when the queued request is granted: the transaction now
	// holds the lock and may proceed.
	Wake()
}

// Txn is one transaction's lock state, owned by the caller: the entries it
// holds, in acquisition order, the entry its queued request waits on, the
// stamp of the last deadlock search that visited it, and the Waiter the
// manager wakes on a grant. The zero value holds nothing and waits on
// nothing; set Waiter before a request may wait. A Txn is used with one
// manager, and after ReleaseAll it may acquire again as if fresh.
type Txn struct {
	Waiter Waiter

	held    []*lockEntry // taken from and returned to Manager.freeHeld
	waitsOn *lockEntry   // never freed while the request is queued
	dlStamp uint64       // the Manager.dlSearch that last visited it
}

// request is one queued lock request.
type request struct {
	txn     *Txn
	mode    Mode
	upgrade bool
}

// holder is one granted lock on a granule. Holder sets are small (usually a
// handful of readers or one writer), so a slice beats a map allocation on
// the per-transaction hot path.
type holder struct {
	txn  *Txn
	mode Mode
}

// lockEntry is the state of one granule's lock.
type lockEntry struct {
	granule Granule
	holders []holder
	queue   []request
}

// granuleOf returns e's granule, its key in the lock table.
func granuleOf(e *lockEntry) Granule { return e.granule }

// compareEntries orders entries by granule, (Partition, ID) — the
// deterministic lock release order.
func compareEntries(a, b *lockEntry) int {
	if c := cmp.Compare(a.granule.Partition, b.granule.Partition); c != 0 {
		return c
	}
	return cmp.Compare(a.granule.ID, b.granule.ID)
}

func (e *lockEntry) compatible(txn *Txn, mode Mode) bool {
	for _, h := range e.holders {
		if h.txn == txn {
			continue
		}
		if mode == Write || h.mode == Write {
			return false
		}
	}
	return true
}

// heldMode returns txn's hold on the entry, if any.
func (e *lockEntry) heldMode(txn *Txn) (Mode, bool) {
	for _, h := range e.holders {
		if h.txn == txn {
			return h.mode, true
		}
	}
	return 0, false
}

// setHolder grants or upgrades txn's hold on the entry and reports whether
// the hold is new (false for an upgrade).
func (e *lockEntry) setHolder(txn *Txn, mode Mode) bool {
	for i := range e.holders {
		if e.holders[i].txn == txn {
			e.holders[i].mode = mode
			return false
		}
	}
	e.holders = append(e.holders, holder{txn: txn, mode: mode})
	return true
}

// removeHolder drops txn from the entry's holders, preserving order.
func (e *lockEntry) removeHolder(txn *Txn) {
	for i := range e.holders {
		if e.holders[i].txn == txn {
			e.holders = append(e.holders[:i], e.holders[i+1:]...)
			return
		}
	}
}

// Stats are the lock manager's counters (the paper's "lock behavior"
// statistics).
type Stats struct {
	Requests  int64
	Conflicts int64 // requests that had to wait
	Deadlocks int64
	Upgrades  int64
}

// Add returns s+o field-wise; cluster aggregation sums per-node stats
// with it. Keep it in sync when adding counters.
func (s Stats) Add(o Stats) Stats {
	return Stats{
		Requests:  s.Requests + o.Requests,
		Conflicts: s.Conflicts + o.Conflicts,
		Deadlocks: s.Deadlocks + o.Deadlocks,
		Upgrades:  s.Upgrades + o.Upgrades,
	}
}

// Manager is the lock manager. It is engine-agnostic: when a queued request
// is eventually granted, it wakes the transaction's Waiter (the engine
// resumes the waiting transaction's continuation there).
//
// A request finds the caller's hold through the granule's entry, whose
// holder set is small, so its cost does not grow with the transaction's
// lock count. A Txn's held list points at the entries it holds, in
// acquisition order; it is read only at ReleaseAll, which needs no lookup
// to release them. A hold's mode lives in the entry alone. Holders and
// queued requests point at their Txn, so a grant, a deadlock search and a
// release reach a transaction's state without a lookup.
type Manager struct {
	locks *hashtab.Table[Granule, *lockEntry]
	stats Stats

	// Freelists for the two per-request allocations of the steady state:
	// granule lock records (pushed when a granule's entry empties, popped
	// on first conflict-free use of a new granule) and per-transaction
	// held-lock lists (pushed at ReleaseAll, popped at a transaction's
	// first grant). Recycled objects follow the pool reset contract:
	// freeing poisons (under poolPoison), popping resets — see DESIGN.md
	// §13.
	freeEntries []*lockEntry
	freeHeld    [][]*lockEntry

	// Reusable scratch for ReleaseAll: the released entries with queued
	// requests.
	queued []*lockEntry

	// wouldDeadlock's search count, which stamps the transactions a search
	// has visited (Txn.dlStamp), and its reusable stack.
	dlSearch uint64
	dlStack  []*Txn
}

// poolPoison, when true, overwrites freed pool objects with sentinel
// garbage so a missing reset line surfaces as corrupt state in tests
// instead of a silent metric skew in production. Tests flip it; the
// default build pays nothing.
var poolPoison = false

// SetPoolPoison toggles freelist poisoning — a debug hook for the
// pool-contract tests (including cross-package ones); never enable it in
// production runs.
func SetPoolPoison(on bool) { poolPoison = on }

// NewManager creates a lock manager.
func NewManager() *Manager {
	return &Manager{locks: hashtab.New(0, granuleHash, granuleOf)}
}

// Stats returns a copy of the counters.
func (m *Manager) Stats() Stats { return m.stats }

// ResetStats zeroes the counters, so they cover a measurement window
// opened now.
func (m *Manager) ResetStats() { m.stats = Stats{} }

// Acquire requests g in the given mode for txn.
//
//   - Granted: the lock is held (strict 2PL: it stays held until ReleaseAll).
//   - Wait: the request conflicts and is queued FCFS (upgrades are placed
//     ahead of non-upgrades); txn.Waiter is woken when it is granted.
//   - Deadlock: granting would close a wait-for cycle; the request is NOT
//     queued and the caller must abort txn (the paper aborts the transaction
//     causing the deadlock).
//
// A transaction may wait for at most one lock at a time.
func (m *Manager) Acquire(txn *Txn, g Granule, mode Mode) Result {
	m.stats.Requests++
	if txn.waitsOn != nil {
		panic("cc: a transaction acquiring while already waiting")
	}

	slot, found := m.locks.Insert(g)
	if !found {
		*slot = m.newEntry(g)
	}
	e := *slot
	held, holdsIt := e.heldMode(txn)
	if holdsIt && (held == Write || mode == Read) {
		return Granted // already sufficient
	}

	upgrade := holdsIt && held == Read && mode == Write
	if upgrade {
		m.stats.Upgrades++
	}

	if e.compatible(txn, mode) && (len(e.queue) == 0 || upgrade) {
		// Upgrades may bypass the queue: the upgrader already holds Read,
		// so queued conflicting requests cannot run anyway.
		m.grant(txn, e, mode)
		return Granted
	}

	// Denied: deadlock check before queueing (section 3.2: "deadlock checks
	// are performed for every denied lock request").
	m.stats.Conflicts++
	if m.wouldDeadlock(txn, e, upgrade) {
		m.stats.Deadlocks++
		return Deadlock
	}

	req := request{txn: txn, mode: mode, upgrade: upgrade}
	if upgrade {
		// Upgrades queue ahead of non-upgrade requests.
		pos := 0
		for pos < len(e.queue) && e.queue[pos].upgrade {
			pos++
		}
		e.queue = append(e.queue, request{})
		copy(e.queue[pos+1:], e.queue[pos:])
		e.queue[pos] = req
	} else {
		e.queue = append(e.queue, req)
	}
	txn.waitsOn = e
	return Wait
}

// newEntry pops a recycled granule record off the freelist (resetting it
// per the pool contract) or allocates a fresh one, for granule g.
func (m *Manager) newEntry(g Granule) *lockEntry {
	n := len(m.freeEntries)
	if n == 0 {
		return &lockEntry{granule: g}
	}
	e := m.freeEntries[n-1]
	m.freeEntries[n-1] = nil
	m.freeEntries = m.freeEntries[:n-1]
	e.granule = g
	e.holders = e.holders[:0]
	e.queue = e.queue[:0]
	return e
}

// freeEntry returns an emptied granule record to the freelist. Under
// poolPoison its granule and the backing arrays beyond their (zero)
// length are filled with sentinel garbage, so a deleted reset line in
// newEntry is caught by the pool-contract tests rather than leaking a
// stale granule or stale holders.
func (m *Manager) freeEntry(e *lockEntry) {
	if poolPoison {
		e.granule = Granule{Partition: -1, ID: -1}
		h := e.holders[:cap(e.holders)]
		for i := range h {
			h[i] = holder{mode: ^Mode(0)}
		}
		e.holders = h
		q := e.queue[:cap(e.queue)]
		for i := range q {
			q[i] = request{mode: ^Mode(0), upgrade: true}
		}
		e.queue = q
	}
	m.freeEntries = append(m.freeEntries, e)
}

// grant records txn as holding e's granule in mode.
func (m *Manager) grant(txn *Txn, e *lockEntry, mode Mode) {
	if !e.setHolder(txn, mode) {
		return // an upgrade: e is already on txn's list
	}
	if txn.held == nil {
		// First lock of the transaction: reuse a released list.
		if n := len(m.freeHeld); n > 0 {
			txn.held = m.freeHeld[n-1]
			m.freeHeld[n-1] = nil
			m.freeHeld = m.freeHeld[:n-1]
		}
	}
	txn.held = append(txn.held, e)
}

// ReleaseAll releases every lock txn holds (commit phase 2 or abort) and
// grants any now-compatible queued requests. If txn is still waiting for a
// lock (abort while blocked), the queued request is removed first.
//
// The holds drop in acquisition order, and an entry left with neither
// holders nor waiters is freed at once. Only the entries with queued
// requests are dispatched, in sorted granule order, NOT acquisition order:
// their grants decide which waiter is scheduled first, so another
// order would make whole simulation runs nondeterministic under
// contention. A dispatch reads and changes only its own entry and the
// granted transactions' lists, so dropping every hold first grants the
// same requests as releasing entry by entry in sorted order. Afterwards
// txn holds nothing and waits on nothing.
func (m *Manager) ReleaseAll(txn *Txn) {
	if e := txn.waitsOn; e != nil {
		m.removeWaiter(txn, e)
	}
	locks := txn.held
	txn.held = nil
	queued := m.queued[:0]
	for _, e := range locks {
		e.removeHolder(txn)
		switch {
		case len(e.queue) > 0:
			queued = append(queued, e)
		case len(e.holders) == 0:
			m.locks.Delete(e.granule)
			m.freeEntry(e)
		}
	}
	// The list holds each granule once, so any sort yields the same order.
	slices.SortFunc(queued, compareEntries)
	for _, e := range queued {
		m.dispatch(e)
	}
	clear(queued)
	m.queued = queued[:0]
	if cap(locks) > 0 {
		// A recycled list keeps no pointers: the entries just released may
		// be freed and reused for other granules.
		clear(locks)
		m.freeHeld = append(m.freeHeld, locks[:0])
	}
}

// removeWaiter deletes txn's queued request on e and re-dispatches (removing
// a waiter can unblock requests behind it).
func (m *Manager) removeWaiter(txn *Txn, e *lockEntry) {
	txn.waitsOn = nil
	for i := range e.queue {
		if e.queue[i].txn == txn {
			e.queue = append(e.queue[:i], e.queue[i+1:]...)
			break
		}
	}
	m.dispatch(e)
}

// dispatch grants queued requests from the head while they are compatible,
// waking each granted transaction's Waiter, and garbage-collects empty
// entries.
func (m *Manager) dispatch(e *lockEntry) {
	for len(e.queue) > 0 {
		head := e.queue[0]
		if head.upgrade {
			// Grantable only when the upgrader is the sole holder.
			if len(e.holders) != 1 || e.holders[0].txn != head.txn {
				break
			}
		} else if !e.compatible(head.txn, head.mode) {
			break
		}
		// Pop by copy-down, not reslicing, so the queue's backing array
		// keeps its front capacity across the entry's recycled lifetimes.
		copy(e.queue, e.queue[1:])
		e.queue[len(e.queue)-1] = request{}
		e.queue = e.queue[:len(e.queue)-1]
		head.txn.waitsOn = nil
		m.grant(head.txn, e, head.mode)
		head.txn.Waiter.Wake()
	}
	if len(e.holders) == 0 && len(e.queue) == 0 {
		m.locks.Delete(e.granule)
		m.freeEntry(e)
	}
}

// wouldDeadlock reports whether txn waiting on e would close a cycle in the
// wait-for graph. The requester waits for the lock's current holders and,
// unless it is an upgrade, for every already-queued waiter.
func (m *Manager) wouldDeadlock(txn *Txn, e *lockEntry, upgrade bool) bool {
	// Iterative depth-first search over "t waits for u" edges looking for
	// txn, on a stack reused across calls (a deadlock check runs on every
	// denied request, so per-check allocation would dominate contended
	// workloads). Reachability is order-independent, so the stack
	// discipline returns the same verdict as the recursive formulation. A
	// transaction is visited when its stamp equals this search's number;
	// every search takes a new number, so stamps left by earlier searches
	// never need clearing.
	m.dlSearch++
	st := m.dlStack[:0]
	// Direct blockers of the hypothetical request.
	for _, h := range e.holders {
		if h.txn != txn {
			st = append(st, h.txn)
		}
	}
	if !upgrade {
		for _, q := range e.queue {
			if q.txn != txn {
				st = append(st, q.txn)
			}
		}
	}
	found := false
	for len(st) > 0 {
		t := st[len(st)-1]
		st = st[:len(st)-1]
		if t == txn {
			found = true
			break
		}
		if t.dlStamp == m.dlSearch {
			continue
		}
		t.dlStamp = m.dlSearch
		we := t.waitsOn
		if we == nil {
			continue
		}
		for _, h := range we.holders {
			if h.txn != t {
				st = append(st, h.txn)
			}
		}
		for _, q := range we.queue {
			if q.txn != t {
				st = append(st, q.txn)
			}
		}
	}
	m.dlStack = st[:0]
	return found
}
