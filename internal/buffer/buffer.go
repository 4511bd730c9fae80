// Package buffer implements TPSIM's buffer manager (BM, section 3.2): the
// global-LRU main-memory database buffer, the NVEM second-level database
// cache with its migration modes and NOFORCE single-copy management, the
// NVEM write buffer, logging, and the FORCE/NOFORCE update strategies.
package buffer

import (
	"fmt"
	"slices"

	"repro/internal/lru"
	"repro/internal/sim"
	"repro/internal/storage"
)

// Host is the buffer manager's view of the computing module. The engine
// implements it: CPU overhead per I/O (InstrIO) and the CPU-synchronous
// NVEM page transfer (InstrNVEM + NVEM delay with the CPU held). All
// delay-charging methods are continuation-style: they run k once the
// charged simulated time has elapsed.
type Host interface {
	// IOOverhead charges the CPU overhead of one I/O, then runs k.
	IOOverhead(k func())
	// SyncDeviceIO charges the I/O overhead and reads or writes key on
	// unit with the CPU held (AccessMode=synchronous, Table 3.3); once the
	// device completes, the CPU is released and k runs.
	SyncDeviceIO(unit *storage.DiskUnit, key storage.PageKey, write bool, k func())
	// NVEMTransfer performs one page transfer between main memory and NVEM
	// with the CPU held (synchronous access, section 2), then runs k.
	NVEMTransfer(k func())
	// Sim returns the simulation the module runs in. The manager schedules
	// its pooled operations and the checkpoint daemon on it.
	Sim() *sim.Sim
}

// RemoteNVEMCache routes shared-NVEM-cache operations over a cluster
// interconnect instead of touching the cache structure directly. The
// parallel engine implements it with lookahead messages: a Probe's verdict
// arrives NVEMAccessDelayMS later on the requesting node, and a Put is a
// one-way insert applied at the same latency. A manager built by NewShared
// with a bus never touches the shared cache from its own kernel — the
// cluster coordinator applies the operations through ApplySharedProbe and
// ApplySharedPut while every kernel is quiescent.
type RemoteNVEMCache interface {
	// Probe looks key up in the shared cache; k runs on the requesting
	// node once the verdict arrives. Under NOFORCE a hit removes the
	// cached copy (single-copy promotion) and reports whether it carried
	// a deferred-destage modification; under FORCE the copy stays and its
	// recency is refreshed.
	Probe(key storage.PageKey, k func(hit, dirty bool))
	// Put inserts key into the shared cache (one-way).
	Put(key storage.PageKey, dirty bool)
}

// Stats are the buffer manager's counters.
type Stats struct {
	Fixes         int64 // page requests
	MMHits        int64 // satisfied in the main-memory buffer
	ResidentFixes int64 // fixes to MM-resident partitions (always hits)
	NVEMCacheHits int64 // MM misses satisfied in the NVEM cache
	NVEMReads     int64 // MM misses to NVEM-resident partitions
	DeviceReads   int64 // MM misses served by a disk-unit

	VictimWrites    int64 // dirty victims written synchronously to a device
	VictimAsync     int64 // dirty victims written by asynchronous replacement
	VictimToWB      int64 // dirty victims absorbed by the NVEM write buffer
	VictimToNVEM    int64 // victims migrated into the NVEM cache
	CleanDrops      int64 // clean victims dropped without migration
	WBFullSync      int64 // write-buffer-full fallbacks to synchronous writes
	AsyncDiskWrites int64 // asynchronous disk updates started
	NVEMEvictWrites int64 // deferred destages triggered by NVEM eviction

	ForceWrites  int64 // pages forced at commit (FORCE)
	LogWrites    int64 // physical log page writes
	GroupCommits int64 // log groups flushed (group commit)

	Checkpoints int64 // fuzzy checkpoints completed by the daemon
	CkptWrites  int64 // dirty pages flushed by checkpoints
}

// Add returns s+o field-wise; cluster aggregation sums per-node stats
// with it. Keep it in sync when adding counters.
func (s Stats) Add(o Stats) Stats {
	return Stats{
		Fixes:           s.Fixes + o.Fixes,
		MMHits:          s.MMHits + o.MMHits,
		ResidentFixes:   s.ResidentFixes + o.ResidentFixes,
		NVEMCacheHits:   s.NVEMCacheHits + o.NVEMCacheHits,
		NVEMReads:       s.NVEMReads + o.NVEMReads,
		DeviceReads:     s.DeviceReads + o.DeviceReads,
		VictimWrites:    s.VictimWrites + o.VictimWrites,
		VictimAsync:     s.VictimAsync + o.VictimAsync,
		VictimToWB:      s.VictimToWB + o.VictimToWB,
		VictimToNVEM:    s.VictimToNVEM + o.VictimToNVEM,
		CleanDrops:      s.CleanDrops + o.CleanDrops,
		WBFullSync:      s.WBFullSync + o.WBFullSync,
		AsyncDiskWrites: s.AsyncDiskWrites + o.AsyncDiskWrites,
		NVEMEvictWrites: s.NVEMEvictWrites + o.NVEMEvictWrites,
		ForceWrites:     s.ForceWrites + o.ForceWrites,
		LogWrites:       s.LogWrites + o.LogWrites,
		GroupCommits:    s.GroupCommits + o.GroupCommits,
		Checkpoints:     s.Checkpoints + o.Checkpoints,
		CkptWrites:      s.CkptWrites + o.CkptWrites,
	}
}

// PartitionStats is the per-partition hit breakdown.
type PartitionStats struct {
	Fixes    int64
	MMHits   int64
	NVEMHits int64
}

// frame is a main-memory buffer frame.
type frame struct {
	dirty bool
}

// nvemFrame is an NVEM-cache frame; dirty is only possible under deferred
// destage (otherwise the disk write started when the page entered NVEM).
type nvemFrame struct {
	dirty bool
}

// Manager is the buffer manager.
type Manager struct {
	cfg   Config
	host  Host
	units []*storage.DiskUnit
	nvem  *storage.NVEM

	// allocs places every page: the partitions' allocations, then a last
	// row, logPartition, made from the log's. It is the manager's own copy,
	// so the row never lands in a slice the caller shares.
	allocs []PartitionAlloc

	mm         *lru.Cache[storage.PageKey, frame]
	nvemCache  *lru.Cache[storage.PageKey, nvemFrame]
	sharedNVEM bool // the NVEM cache is the cluster-shared one, not private

	// Remote mode (NewShared with a bus): shared-cache operations travel
	// over the interconnect instead of touching the structure. nvemCache
	// stays nil so no node-side path can reach the shared structure by
	// accident; remoteShared is only dereferenced by the ApplyShared* entry
	// points the cluster coordinator calls at barriers.
	remote       RemoteNVEMCache
	remoteShared *SharedNVEMCache

	wbInUse int

	logPartition int
	logNext      int64
	gcWaiters    []func()

	// Checkpoint / recovery bookkeeping (checkpoint.go). ckptGen fences
	// daemon incarnations: StopCheckpoints bumps it, stale ticks exit.
	logSinceCkpt int64
	ckptGen      int

	stats     Stats
	partStats []PartitionStats

	// Zero-allocation machinery for the steady-state paths: the kernel the
	// manager schedules on, the pooled operation records replacing per-call
	// continuation closures, recycled group-commit waiter buffers, the
	// checkpoint dirty-key scratch, and the shared countdown of the
	// checkpoint flush in flight. The manager belongs to one kernel, so
	// none of it needs synchronization.
	sim      *sim.Sim
	freeOps  *bufOp
	gcFree   [][]func()
	ckptKeys []storage.PageKey
	// ckptRemaining/ckptFinish track the one (non-overlapping) checkpoint
	// flush in flight; stale flush ops are fenced by their gen snapshot.
	ckptRemaining int
	ckptFinish    func()
}

// poolPoison, when true, fills freed bufOps with sentinel garbage so a
// missing reset in an issue path surfaces in the pool-contract tests.
var poolPoison = false

// SetPoolPoison toggles freelist poisoning — a debug hook for the
// pool-contract tests (including cross-package ones); never enable it in
// production runs.
func SetPoolPoison(on bool) { poolPoison = on }

// bufOp stages. Each value names the action taken when step next fires;
// issue sites set the state (and any successor via the documented flow)
// before handing step to a host, device or kernel continuation slot.
const (
	ioIssue      uint8 = iota // I/O overhead charged: read or write io, continue in then
	opDone                    // fix or log write complete: run the caller's continuation
	fxFetch                   // victim disposed: fetch (or remote-probe) the page
	fxMigrated                // victim's NVEM transfer done: insert, then fetch
	fxNVEMTouch               // NVEM-hit transfer done: FORCE recency, then done
	fcLoop                    // force next eligible page of the commit set
	fcNVEM                    // force transfer done: insert into the NVEM cache
	fcAfter                   // one force write durable: clean the frame, loop
	wbStored                  // page absorbed in the write buffer: start destage
	axEvict                   // NVEM-evict destage: page passes through MM first
	axWriteStart              // async disk update: charge the I/O overhead
	axHandoff                 // coherence hand-off: charge the NVEM transfer
	axDone                    // background op done: release WB frame if any
	ckFlush                   // checkpoint flush of one page: write it home
	ckDone                    // one checkpoint page durable: count down
	gcOpen                    // group opened: wait out the group-commit window
	gcFlush                   // window over: write the group's single log page
	gcDone                    // group log write durable: wake every waiter
)

// bufOp is one in-flight buffer-manager operation — a fix miss, an
// asynchronous write or coherence hand-off, a force/checkpoint/log write
// or a commit group — pooled on the manager's freelist. step is bound once
// at allocation and the state field selects the next stage, replacing the
// per-call closure chains: event order, RNG-draw order and statistics
// order are identical to the closure formulation. probe, bound alongside
// step in remote mode, takes a remote shared-cache probe's verdict.
type bufOp struct {
	m   *Manager
	key storage.PageKey
	// io is the page of the access in flight: the victim being disposed
	// of, a page on its way home, or the page being read. write gives the
	// direction of the device access ioIssue makes, and then the state
	// after that access or after the write buffer absorbs the page.
	io          storage.PageKey
	write       bool
	then        uint8
	k           func()
	ps          *PartitionStats
	keys        []storage.PageKey // ForcePages commit set (caller-owned)
	waiters     []func()          // group-commit waiters being flushed
	i           int               // ForcePages cursor
	gen         int               // checkpoint generation fence
	nvemHit     bool
	victimDirty bool
	wb          bool // async write must release a write-buffer frame
	state       uint8
	step        func()
	probe       func(hit, dirty bool)
	next        *bufOp // freelist link
}

// getOp pops a recycled op or allocates one with its continuations bound.
func (m *Manager) getOp() *bufOp {
	op := m.freeOps
	if op == nil {
		op = &bufOp{m: m}
		op.step = op.run
		if m.remote != nil {
			op.probe = op.onProbe
		}
		return op
	}
	m.freeOps = op.next
	op.next = nil
	return op
}

// putOp returns a finished op to the freelist, dropping its references.
func (m *Manager) putOp(op *bufOp) {
	op.k, op.ps, op.keys, op.waiters = nil, nil, nil, nil
	if poolPoison {
		op.key = storage.PageKey{Partition: -1, Page: -1}
		op.io = storage.PageKey{Partition: -1, Page: -1}
		op.i, op.gen = -1, -1
		op.nvemHit, op.victimDirty, op.wb, op.write = true, true, true, true
		op.state, op.then = 0xff, 0xff
	}
	op.next = m.freeOps
	m.freeOps = op
}

// run advances the operation by one stage. It is the single continuation
// handed out for every pooled path; sync stages tail-call it directly.
func (op *bufOp) run() {
	m := op.m
	switch op.state {
	case ioIssue:
		op.state = op.then
		u := m.unitOf(op.io.Partition)
		if op.write {
			u.Write(op.io, op.step)
		} else {
			u.Read(op.io, op.step)
		}
	case opDone:
		k := op.k
		m.putOp(op)
		k()

	case fxFetch:
		a := m.alloc(op.key.Partition)
		switch {
		case a.NVEMResident:
			m.stats.NVEMReads++
			op.state = opDone
			m.host.NVEMTransfer(op.step)
		case a.NVEMCache && m.remote != nil:
			// The shared cache sits across the interconnect: its verdict
			// arrives NVEMAccessDelayMS later and resumes the fix in
			// onProbe.
			m.remote.Probe(op.key, op.probe)
		case op.nvemHit:
			m.stats.NVEMCacheHits++
			op.ps.NVEMHits++
			op.state = fxNVEMTouch
			m.host.NVEMTransfer(op.step)
		default:
			op.readPage()
		}
	case fxMigrated:
		m.insertNVEM(op.io, op.victimDirty)
		if op.victimDirty && !m.cfg.NVEMDeferredDestage {
			m.asyncWrite(op.io, false)
		}
		op.state = fxFetch
		op.run()
	case fxNVEMTouch:
		if m.cfg.Force {
			// FORCE: replication is unavoidable (section 3.2); keep the
			// NVEM copy, refresh its recency.
			m.nvemCache.Touch(op.key)
		}
		op.state = opDone
		op.run()

	case fcLoop:
		for op.i < len(op.keys) {
			key := op.keys[op.i]
			op.i++
			a := m.alloc(key.Partition)
			if a.MMResident {
				continue // memory-resident partitions use NOFORCE propagation
			}
			f, inMM := m.mm.Peek(key)
			if inMM && !f.dirty {
				continue // already forced by an earlier access of this txn
			}
			if !inMM {
				continue // replaced earlier; written out during replacement
			}
			m.stats.ForceWrites++
			op.key = key
			if a.NVEMCache {
				// Force into the NVEM cache; MM copy stays (replication).
				// Deferred destage pays off exactly here: re-forced pages
				// overwrite their dirty NVEM copy without another disk write.
				op.state = fcNVEM
				m.host.NVEMTransfer(op.step)
			} else {
				op.writeHome(key, fcAfter)
			}
			return
		}
		op.state = opDone
		op.run()
	case fcNVEM:
		m.insertNVEM(op.key, true)
		if !m.cfg.NVEMDeferredDestage {
			m.asyncWrite(op.key, false)
		}
		op.state = fcAfter
		op.run()
	case fcAfter:
		m.mm.Update(op.key, frame{dirty: false})
		op.state = fcLoop
		op.run()

	case wbStored:
		m.asyncWrite(op.io, true)
		op.state = op.then
		op.run()

	case axEvict:
		op.state = axWriteStart
		m.host.NVEMTransfer(op.step)
	case axWriteStart:
		m.stats.AsyncDiskWrites++
		op.issueIO(op.key, true, axDone)
	case axHandoff:
		op.state = axDone
		m.host.NVEMTransfer(op.step)
	case axDone:
		if op.wb {
			m.wbInUse--
		}
		m.putOp(op)

	case ckFlush:
		op.writeHome(op.key, ckDone)
	case ckDone:
		gen := op.gen
		m.putOp(op)
		if m.ckptGen != gen {
			return // checkpointing was stopped while this flush was in flight
		}
		m.ckptRemaining--
		if m.ckptRemaining == 0 {
			m.ckptFinish()
		}

	case gcOpen:
		op.state = gcFlush
		m.sim.Schedule(m.cfg.GroupCommitWaitMS, op.step)
	case gcFlush:
		op.waiters = m.gcWaiters
		m.gcWaiters = nil
		m.stats.GroupCommits++
		// One I/O carries the whole group's log data.
		op.writeLogPage(gcDone)
	case gcDone:
		ws := op.waiters
		op.waiters = nil
		for i, w := range ws {
			m.sim.Schedule(0, w)
			ws[i] = nil
		}
		if cap(ws) > 0 {
			m.gcFree = append(m.gcFree, ws[:0])
		}
		m.putOp(op)

	default:
		panic(fmt.Sprintf("buffer: bufOp in invalid state %d", op.state))
	}
}

// writeHome sends the write of key to its home by allocation and
// continues in state next once the write stops delaying the op: an NVEM
// transfer for an NVEM-resident page; the NVEM write buffer, which absorbs
// the page and updates its disk copy in the background; otherwise, and
// when every write-buffer frame still awaits its disk update (the
// saturation behaviour of a full non-volatile disk cache), the disk unit
// in the partition's access mode.
func (op *bufOp) writeHome(key storage.PageKey, next uint8) {
	m := op.m
	a := m.alloc(key.Partition)
	switch {
	case a.NVEMResident:
		op.state = next
		m.host.NVEMTransfer(op.step)
	case a.NVEMWriteBuffer && m.wbInUse < m.cfg.NVEMWriteBufferSize:
		m.wbInUse++
		op.io, op.then = key, next
		op.state = wbStored
		m.host.NVEMTransfer(op.step)
	case a.NVEMWriteBuffer:
		m.stats.WBFullSync++
		fallthrough
	default:
		op.deviceIO(key, true, next)
	}
}

// deviceIO reads or writes key on its disk unit and continues in state
// next: with the CPU held for the whole access for a partition with
// SyncAccess, otherwise after the I/O overhead.
func (op *bufOp) deviceIO(key storage.PageKey, write bool, next uint8) {
	m := op.m
	if !m.alloc(key.Partition).SyncAccess {
		op.issueIO(key, write, next)
		return
	}
	op.state = next
	m.host.SyncDeviceIO(m.unitOf(key.Partition), key, write, op.step)
}

// issueIO charges the I/O overhead; ioIssue then reads or writes key on
// its disk unit and continues in state next.
func (op *bufOp) issueIO(key storage.PageKey, write bool, next uint8) {
	op.io, op.write, op.then = key, write, next
	op.state = ioIssue
	op.m.host.IOOverhead(op.step)
}

// onProbe resumes a remote fix with the shared cache's verdict. Under
// NOFORCE a hit promotes the copy's deferred-destage modification with the
// page; if the frame was replaced while the probe was in flight the page
// went out clean, so the promoted modification reaches disk on its own.
func (op *bufOp) onProbe(hit, dirty bool) {
	m := op.m
	if dirty {
		if _, ok := m.mm.Peek(op.key); ok {
			m.mm.Update(op.key, frame{dirty: true})
		} else {
			m.asyncWrite(op.key, false)
		}
	}
	if hit {
		m.stats.NVEMCacheHits++
		op.ps.NVEMHits++
		op.state = opDone
		m.host.NVEMTransfer(op.step)
		return
	}
	op.readPage()
}

// readPage reads the missed page from its disk unit; opDone continues.
func (op *bufOp) readPage() {
	op.m.stats.DeviceReads++
	op.deviceIO(op.key, false, opDone)
}

// asyncWrite starts a pooled background disk update of key: one +0 event
// (its slot in the event order is pinned by the goldens), the per-I/O CPU
// overhead, then the device write. wb marks a write-buffer destage, whose completion
// releases the buffered frame.
func (m *Manager) asyncWrite(key storage.PageKey, wb bool) {
	op := m.getOp()
	op.key, op.wb = key, wb
	op.state = axWriteStart
	m.sim.Schedule(0, op.step)
}

// NewShared builds a buffer manager. units must cover every DiskUnit index
// in the configuration; nvem may be nil when cfg.UsesNVEM() is false. With
// a nil shared the NVEM second-level cache is private to the manager;
// otherwise it is the cluster-shared cache, cfg still validates as usual
// (cfg.NVEMCacheSize sizes the allocation check) and the shared cache's
// capacity wins.
//
// With a nil bus the manager operates on the shared cache directly. With
// a bus — the lookahead interconnect of a parallel (PDES) cluster — every
// shared-cache operation travels through it instead of touching the
// structure, and the cluster coordinator applies it at a barrier via
// ApplySharedProbe / ApplySharedPut; shared is then kept only for those
// entry points and for occupancy reporting.
func NewShared(cfg Config, partitionNames []string, units []*storage.DiskUnit,
	nvem *storage.NVEM, host Host, shared *SharedNVEMCache, bus RemoteNVEMCache) (*Manager, error) {
	if err := cfg.Validate(partitionNames, len(units)); err != nil {
		return nil, err
	}
	if cfg.UsesNVEM() && nvem == nil {
		return nil, fmt.Errorf("buffer: configuration uses NVEM but no NVEM store given")
	}
	// Clip makes append copy: cluster nodes share cfg.Partitions.
	allocs := append(slices.Clip(cfg.Partitions), PartitionAlloc{
		NVEMResident: cfg.Log.NVEMResident, DiskUnit: cfg.Log.DiskUnit, NVEMWriteBuffer: cfg.Log.NVEMWriteBuffer,
	})
	m := &Manager{
		cfg:          cfg,
		host:         host,
		units:        units,
		nvem:         nvem,
		allocs:       allocs,
		mm:           lru.New[storage.PageKey, frame](cfg.BufferSize, storage.PageHash),
		logPartition: len(cfg.Partitions),
		partStats:    make([]PartitionStats, len(cfg.Partitions)),
		sim:          host.Sim(),
	}
	switch {
	case bus != nil:
		if shared == nil {
			return nil, fmt.Errorf("buffer: remote NVEM bus without a shared cache")
		}
		m.remote = bus
		m.remoteShared = shared
		m.sharedNVEM = true
	case shared != nil:
		m.nvemCache = shared.cache
		m.sharedNVEM = true
	case cfg.NVEMCacheSize > 0:
		m.nvemCache = lru.New[storage.PageKey, nvemFrame](cfg.NVEMCacheSize, storage.PageHash)
	}
	if cfg.CheckpointIntervalMS > 0 {
		m.startCheckpointDaemon()
	}
	return m, nil
}

// Stats returns a copy of the global counters.
func (m *Manager) Stats() Stats { return m.stats }

// ResetStats zeroes the global and per-partition counters, so they cover
// a measurement window opened now.
func (m *Manager) ResetStats() {
	m.stats = Stats{}
	clear(m.partStats)
}

// PartitionStats returns a copy of the per-partition counters.
func (m *Manager) PartitionStats() []PartitionStats {
	out := make([]PartitionStats, len(m.partStats))
	copy(out, m.partStats)
	return out
}

// MMLen returns the number of occupied main-memory frames.
func (m *Manager) MMLen() int { return m.mm.Len() }

// alloc returns the partition's allocation, the log's for logPartition.
func (m *Manager) alloc(partition int) *PartitionAlloc { return &m.allocs[partition] }

// unitOf returns the disk-unit backing the partition or the log.
func (m *Manager) unitOf(partition int) *storage.DiskUnit {
	return m.units[m.alloc(partition).DiskUnit]
}

// Fix brings the page into the main-memory buffer and marks it dirty if
// write is set, then runs k. It delays k for whatever the storage
// hierarchy charges: nothing on an MM hit, an NVEM transfer on
// an NVEM hit, or a device read (plus a possible synchronous victim
// write-back) on a full miss. TPSIM replaces synchronously — asynchronous
// replacement is exactly the optimization the paper shows NV memory makes
// unnecessary (footnote 3).
func (m *Manager) Fix(key storage.PageKey, write bool, k func()) {
	m.stats.Fixes++
	ps := &m.partStats[key.Partition]
	ps.Fixes++
	a := m.alloc(key.Partition)

	if a.MMResident {
		// Memory-resident partitions: 100% hit ratio, NOFORCE propagation.
		m.stats.MMHits++
		m.stats.ResidentFixes++
		ps.MMHits++
		k()
		return
	}

	if f, ok := m.mm.Get(key); ok {
		m.stats.MMHits++
		ps.MMHits++
		if write && !f.dirty {
			m.mm.Update(key, frame{dirty: true})
		}
		k()
		return
	}

	// Main-memory miss. Probe the NVEM cache before replacing: under
	// NOFORCE the requested page leaves the NVEM cache as it migrates up,
	// which keeps MM+NVEM an exact aggregate LRU — the victim migrating
	// down must never evict the page being promoted. A shared cache across
	// the interconnect (remote mode, no local nvemCache) is probed from
	// fxFetch instead, once the victim is disposed: the probe travels as a
	// message and its verdict resumes the fix (onProbe).
	nvemHit, nvemDirty := false, false
	if a.NVEMCache && m.nvemCache != nil {
		_, nvemHit = m.nvemCache.Peek(key) // FORCE refreshes recency in fxNVEMTouch
	}
	if nvemHit && !m.cfg.Force {
		// NOFORCE: a page lives in at most one of MM and NVEM. Under
		// deferred destage a dirty NVEM copy promotes to a dirty MM frame
		// so the pending modification is not lost.
		f, _ := m.nvemCache.Remove(key)
		nvemDirty = f.dirty
	}

	// Victim selection and registration of the new page happen atomically
	// (no simulated time in between): a concurrent fixer can neither steal
	// the freed slot (which would make the later Put silently drop a dirty
	// LRU page) nor start a duplicate fetch of the same page (fetch
	// coalescing — this yields the paper's 95% HISTORY hit ratio, one miss
	// per blocking factor). The victim's write-back and the page transfer
	// are paid afterwards.
	victim, victimDirty, haveVictim := m.reserveFrame()
	m.mm.Put(key, frame{dirty: write || nvemDirty})
	op := m.getOp()
	op.key, op.k, op.ps = key, k, ps
	op.nvemHit = nvemHit
	op.state = fxFetch
	if haveVictim {
		op.io, op.victimDirty = victim, victimDirty
		m.disposeVictimOp(op)
		return
	}
	op.run()
}

// disposeVictimOp routes the victim op.io according to its partition's
// allocation: into the NVEM cache, dropped when clean, written in the
// background under asynchronous replacement, or else written home; op
// continues at fxFetch once the victim stops delaying the fixer. A page
// migrating into the NVEM cache under immediate propagation (the paper's
// simple scheme, section 3.2) starts its disk write right away and
// asynchronously, so NVEM frames are always replaceable without delay —
// eviction is a drop. Under deferred destage the page stays dirty in NVEM
// and the disk write happens only when NVEM evicts it (paying an extra
// NVEM→MM transfer then), saving disk writes for re-modified pages.
func (m *Manager) disposeVictimOp(op *bufOp) {
	key, dirty := op.io, op.victimDirty
	a := m.alloc(key.Partition)

	if a.NVEMCache {
		migrate := a.NVEMCacheMode == MigrateAll ||
			(dirty && a.NVEMCacheMode == MigrateModified) ||
			(!dirty && a.NVEMCacheMode == MigrateUnmodified)
		if migrate {
			m.stats.VictimToNVEM++
			op.state = fxMigrated
			m.host.NVEMTransfer(op.step)
			return
		}
	}

	if !dirty {
		if !a.NVEMResident {
			m.stats.CleanDrops++
		}
		op.run()
		return
	}

	switch {
	case a.NVEMResident:
		// Written back to its NVEM home (synchronous, fast).
	case a.NVEMWriteBuffer && m.wbInUse < m.cfg.NVEMWriteBufferSize:
		m.stats.VictimToWB++
	case m.cfg.AsyncReplacement && !a.NVEMWriteBuffer:
		// Footnote 3's software optimization: the replacement write happens
		// in the background; only the read delays the transaction.
		m.stats.VictimAsync++
		m.asyncWrite(key, false)
		op.run()
		return
	default:
		// A device write before the read can proceed, to the disk or as
		// the write buffer's fallback (the transaction waits for it either
		// way; SyncAccess additionally holds the CPU).
		m.stats.VictimWrites++
	}
	op.writeHome(key, fxFetch)
}

// ApplySharedProbe resolves one remote Probe against the cluster-shared
// cache. The coordinator calls it at a barrier (kernels quiescent) in
// message-arrival order, which makes the examination equivalent to one at
// the arrival instant. Under FORCE a hit keeps the copy and refreshes its
// recency; under NOFORCE the copy leaves the cache as it promotes
// (single-copy management), carrying its deferred-destage dirty bit.
func (m *Manager) ApplySharedProbe(key storage.PageKey) (hit, dirty bool) {
	c := m.remoteShared.cache
	f, ok := c.Peek(key)
	if !ok {
		return false, false
	}
	if m.cfg.Force {
		c.Touch(key)
		return true, false
	}
	c.Remove(key)
	return true, f.dirty
}

// ApplySharedPut resolves one remote Put against the cluster-shared
// cache, on the sending node's manager so an evicted deferred-dirty frame
// destages through that node's (quiescent) kernel — mirroring the coupled
// mode, where whoever's insert triggers the eviction pays the destage.
func (m *Manager) ApplySharedPut(key storage.PageKey, dirty bool) {
	m.putNVEMInto(m.remoteShared.cache, key, dirty)
}

// reserveFrame removes a victim frame when the buffer is full, returning
// its identity for later disposal. Under FORCE the oldest clean frame is
// preferred (there almost always is one — footnote 7); under NOFORCE strict
// LRU is used.
func (m *Manager) reserveFrame() (victim storage.PageKey, dirty, haveVictim bool) {
	if m.mm.Len() < m.mm.Cap() {
		return storage.PageKey{}, false, false
	}
	var ok bool
	if m.cfg.Force {
		victim, ok = m.mm.FindOldest(func(_ storage.PageKey, f frame) bool { return !f.dirty })
	}
	if !ok {
		victim, ok = m.mm.Oldest()
	}
	if !ok {
		return storage.PageKey{}, false, false // capacity > 0; defensive
	}
	f, _ := m.mm.Remove(victim)
	return victim, f.dirty, true
}

// insertNVEM routes an NVEM-cache insert: over the interconnect in remote
// mode, directly into the (private or shared) cache structure otherwise.
func (m *Manager) insertNVEM(key storage.PageKey, dirty bool) {
	if m.remote != nil {
		m.remote.Put(key, dirty)
		return
	}
	m.putNVEMInto(m.nvemCache, key, dirty)
}

// putNVEMInto inserts into the node-local cache or, from ApplySharedPut,
// the coordinator-applied shared cache, destaging an evicted
// deferred-dirty page in the background.
func (m *Manager) putNVEMInto(c *lru.Cache[storage.PageKey, nvemFrame], key storage.PageKey, dirty bool) {
	if !m.cfg.NVEMDeferredDestage {
		dirty = false // disk copy is (being made) current
	}
	evictedKey, evictedFrame, evicted := c.Put(key, nvemFrame{dirty: dirty})
	if !evicted || !evictedFrame.dirty {
		return
	}
	m.destageFromNVEM(evictedKey)
}

// destageFromNVEM starts the deferred destage of a dirty NVEM frame that
// is leaving the cache: the page must pass through main memory on its way
// to disk (section 2: NVEM↔disk transfers go through the accessing
// system), then the asynchronous disk write.
func (m *Manager) destageFromNVEM(key storage.PageKey) {
	m.stats.NVEMEvictWrites++
	op := m.getOp()
	op.key, op.wb = key, false
	op.state = axEvict
	m.sim.Schedule(0, op.step)
}

// ForcePages implements commit phase 1 under FORCE: every page the
// transaction modified is written to non-volatile storage, and its
// main-memory copy becomes clean but stays buffered (replication with the
// NVEM cache is accepted, section 3.2). Pages already replaced from the
// buffer were written out at replacement and are skipped. k runs once every
// force write has completed.
func (m *Manager) ForcePages(keys []storage.PageKey, k func()) {
	if !m.cfg.Force {
		k()
		return
	}
	op := m.getOp()
	op.k, op.keys, op.i = k, keys, 0
	op.state = fcLoop
	op.run()
}

// WriteLog implements the commit log write: one page per update transaction
// (section 3.2), appended sequentially and routed by the log allocation,
// with k running once the write is durable. Under group commit the caller
// joins the open group and k waits for the group's single shared log write.
func (m *Manager) WriteLog(k func()) {
	if !m.cfg.Logging {
		k()
		return
	}
	if !m.cfg.GroupCommit {
		m.writeLog(k)
		return
	}
	if m.gcWaiters == nil {
		if n := len(m.gcFree); n > 0 {
			m.gcWaiters = m.gcFree[n-1]
			m.gcFree[n-1] = nil
			m.gcFree = m.gcFree[:n-1]
		}
	}
	m.gcWaiters = append(m.gcWaiters, k)
	if len(m.gcWaiters) == 1 {
		// Group leader: open the group (one +0 event, whose slot in the
		// event order the goldens pin) and flush it after the group window.
		op := m.getOp()
		op.state = gcOpen
		m.sim.Schedule(0, op.step)
	}
}

// writeLog writes one log page on an op of its own, then runs k.
func (m *Manager) writeLog(k func()) {
	op := m.getOp()
	op.k = k
	op.writeLogPage(opDone)
}

// writeLogPage appends one physical log page, written home by the log
// allocation, and continues in state next.
func (op *bufOp) writeLogPage(next uint8) {
	m := op.m
	m.stats.LogWrites++
	m.logSinceCkpt++
	key := storage.PageKey{Partition: m.logPartition, Page: m.logNext}
	m.logNext++
	op.writeHome(key, next)
}
