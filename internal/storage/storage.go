// Package storage implements TPSIM's external device models (section 3.3):
// disk-units — regular disks, disks with volatile or non-volatile caches,
// and solid-state disks — plus the non-volatile extended memory (NVEM)
// store. Disk-units consist of one or more controllers (with an average page
// service time), a page transmission delay, and one or more disk servers;
// caching inside the controller follows the IBM 3990 management described in
// the paper.
package storage

import (
	"fmt"

	"repro/internal/lru"
	"repro/internal/rng"
	"repro/internal/sim"
)

// PageKey identifies a database page globally: partition index and page
// number within the partition. The log is modelled as its own partition.
type PageKey struct {
	Partition int
	Page      int64
}

// PageHash is the one hash of page keys: it places pages in the LRU
// caches' indexes and in the cluster's residency tally.
func PageHash(k PageKey) uint64 {
	h := (uint64(k.Page) ^ uint64(k.Partition)<<48) * 0x9e3779b97f4a7c15
	return h ^ h>>29
}

// DiskUnitType selects the disk-unit variant (parameter DiskUnitType of
// Table 3.4).
type DiskUnitType uint8

// Disk-unit variants.
const (
	Regular       DiskUnitType = iota // plain magnetic disks
	VolatileCache                     // disk cache; write I/Os always hit the disk
	NVCache                           // non-volatile disk cache; writes satisfied in cache
	SSD                               // entire data in non-volatile semiconductor memory
)

func (t DiskUnitType) String() string {
	switch t {
	case Regular:
		return "regular"
	case VolatileCache:
		return "volatile-cache"
	case NVCache:
		return "nv-cache"
	case SSD:
		return "ssd"
	default:
		return fmt.Sprintf("DiskUnitType(%d)", uint8(t))
	}
}

// UnmarshalText sets t to the disk-unit type whose String() is text.
func (t *DiskUnitType) UnmarshalText(text []byte) error {
	for v := range SSD + 1 {
		if v.String() == string(text) {
			*t = v
			return nil
		}
	}
	return fmt.Errorf("unknown disk unit type %q", text)
}

// DiskUnitConfig are the per-disk-unit parameters of Table 3.4.
type DiskUnitConfig struct {
	Name           string       `json:"name"`
	Type           DiskUnitType `json:"type"`
	NumControllers int          `json:"numControllers"` // disk controllers
	ContrDelay     float64      `json:"contrDelayMS"`   // average controller service time per page (ms)
	TransDelay     float64      `json:"transDelayMS"`   // transmission time per page (ms), fixed
	NumDisks       int          `json:"numDisks"`       // disk servers (partition striped uniformly)
	DiskDelay      float64      `json:"diskDelayMS"`    // average disk access time per page (ms)
	CacheSize      int          `json:"cacheSize"`      // disk-cache / write-buffer frames (cache types)

	// WriteBufferOnly configures a non-volatile cache used solely for
	// logging: no LRU read caching, the cache acts purely as a write buffer
	// (section 3.3, log allocation).
	WriteBufferOnly bool `json:"writeBufferOnly"`
}

// Validate checks the configuration.
func (c *DiskUnitConfig) Validate() error {
	if c.NumControllers <= 0 {
		return fmt.Errorf("storage: %s: NumControllers = %d", c.Name, c.NumControllers)
	}
	if c.ContrDelay < 0 || c.TransDelay < 0 {
		return fmt.Errorf("storage: %s: negative controller/transmission delay", c.Name)
	}
	switch c.Type {
	case Regular, VolatileCache, NVCache:
		if c.NumDisks <= 0 {
			return fmt.Errorf("storage: %s: NumDisks = %d", c.Name, c.NumDisks)
		}
		if c.DiskDelay <= 0 {
			return fmt.Errorf("storage: %s: DiskDelay = %v", c.Name, c.DiskDelay)
		}
	case SSD:
		// SSDs keep all data in semiconductor store; no disk servers needed.
	default:
		return fmt.Errorf("storage: %s: unknown type %d", c.Name, c.Type)
	}
	if (c.Type == VolatileCache || c.Type == NVCache) && c.CacheSize <= 0 {
		return fmt.Errorf("storage: %s: cache type needs CacheSize > 0", c.Name)
	}
	if c.WriteBufferOnly && c.Type != NVCache {
		return fmt.Errorf("storage: %s: WriteBufferOnly requires a non-volatile cache", c.Name)
	}
	return nil
}

// DiskUnitStats are the per-unit counters the simulation reports.
type DiskUnitStats struct {
	Reads          int64 // read I/Os issued to the unit
	Writes         int64 // write I/Os issued to the unit
	ReadHits       int64 // reads satisfied in the disk cache
	WriteHits      int64 // writes finding the page in the cache
	CacheWrites    int64 // writes satisfied at cache speed (nv caches)
	SyncDiskWrites int64 // writes forced to disk speed (all frames dirty)
	Destages       int64 // asynchronous cache→disk updates started
	DiskAccesses   int64 // physical disk server accesses (any reason)
}

// cacheFrame is a disk-cache entry: dirty means its disk copy is not yet
// current (destage in flight).
type cacheFrame struct {
	dirty bool
}

// DiskUnit models one disk-unit: a set of controllers and disk servers with
// an optional controller cache.
type DiskUnit struct {
	cfg         DiskUnitConfig
	sim         *sim.Sim
	rnd         *rng.Stream
	controllers *sim.Resource
	disks       *sim.Resource // nil for SSD
	cache       *lru.Cache[PageKey, cacheFrame]
	stats       DiskUnitStats

	// freeOps recycles diskOp records so the steady-state I/O path does
	// not allocate. The unit belongs to one kernel, so a plain intrusive
	// list needs no synchronization.
	freeOps *diskOp
}

// poolPoison, when true, fills freed diskOps with sentinel garbage so a
// missing reset in the issue path surfaces in the pool-contract tests.
var poolPoison = false

// SetPoolPoison toggles freelist poisoning — a debug hook for the
// pool-contract tests (including cross-package ones); never enable it in
// production runs.
func SetPoolPoison(on bool) { poolPoison = on }

// diskOp stages: state names the action to take when step next fires.
const (
	opPass       uint8 = iota // controller service done: transmission, then after
	opFinish                  // run the caller's continuation
	opDisk                    // one disk access, then the continuation directly
	opInsert                  // read miss: disk access, then insert a clean frame
	opInsertDone              // disk access done: insert clean frame, continuation
	opVolWrite                // volatile-cache write: refresh hit, then disk
	opNVStore                 // nv-cache write: store dirty frame, destage, continuation
	opDestage                 // destage scheduled: perform the disk access
	opDestDone                // destage disk access done: mark frame clean
)

// diskOp is one in-flight I/O of a unit, pooled on the unit's freelist. It
// replaces the nested per-stage closures of the naive formulation: step is
// bound once to run at first allocation, and the state field selects the
// next stage, so an arbitrary number of I/Os reuse the same records with
// zero steady-state allocation. Schedule and RNG-draw order are identical
// to the closure formulation — stage boundaries and Exp draws happen at
// the same event positions.
type diskOp struct {
	u     *DiskUnit
	key   PageKey
	k     func()
	state uint8
	after uint8 // state to enter once the controller pass completes
	step  func()
	next  *diskOp // freelist link
}

// getOp pops a recycled op or allocates one with its step bound.
func (u *DiskUnit) getOp() *diskOp {
	op := u.freeOps
	if op == nil {
		op = &diskOp{u: u}
		op.step = op.run
		return op
	}
	u.freeOps = op.next
	op.next = nil
	return op
}

// putOp returns a finished op to the freelist, dropping its references.
func (u *DiskUnit) putOp(op *diskOp) {
	op.k = nil
	if poolPoison {
		op.key = PageKey{Partition: -1, Page: -1}
		op.state, op.after = 0xff, 0xff
	}
	op.next = u.freeOps
	u.freeOps = op
}

// pass starts an I/O with a controller pass: controller service plus the
// page transmission, then the after stage (the channel-oriented interface
// the closure-based controllerPass used to model).
func (u *DiskUnit) pass(key PageKey, k func(), after uint8) {
	op := u.getOp()
	op.key, op.k = key, k
	op.state, op.after = opPass, after
	u.controllers.Use(u.rnd.Exp(u.cfg.ContrDelay), op.step)
}

// run advances the op by one stage; it is the op's single pre-bound
// continuation for every resource grant, hold and scheduled event.
func (op *diskOp) run() {
	u := op.u
	switch op.state {
	case opPass:
		op.state = op.after
		if u.cfg.TransDelay > 0 {
			u.sim.Schedule(u.cfg.TransDelay, op.step)
			return
		}
		op.run()
	case opFinish:
		k := op.k
		u.putOp(op)
		k()
	case opDisk:
		// The caller's continuation rides the disk grant directly; the op
		// itself is done once the access is issued.
		k := op.k
		u.putOp(op)
		u.stats.DiskAccesses++
		u.disks.Use(u.rnd.Exp(u.cfg.DiskDelay), k)
	case opInsert:
		op.state = opInsertDone
		u.stats.DiskAccesses++
		u.disks.Use(u.rnd.Exp(u.cfg.DiskDelay), op.step)
	case opInsertDone:
		if !u.cfg.WriteBufferOnly {
			u.insertClean(op.key)
		}
		k := op.k
		u.putOp(op)
		k()
	case opVolWrite:
		if _, hit := u.cache.Peek(op.key); hit {
			u.stats.WriteHits++
			u.cache.Put(op.key, cacheFrame{dirty: false}) // refresh copy + LRU
		}
		k := op.k
		u.putOp(op)
		u.stats.DiskAccesses++
		u.disks.Use(u.rnd.Exp(u.cfg.DiskDelay), k)
	case opNVStore:
		key, k := op.key, op.k
		u.cache.Put(key, cacheFrame{dirty: true})
		u.startDestage(key)
		u.putOp(op)
		k()
	case opDestage:
		op.state = opDestDone
		u.stats.DiskAccesses++
		u.disks.Use(u.rnd.Exp(u.cfg.DiskDelay), op.step)
	case opDestDone:
		// The frame becomes clean once the disk copy is current (it may
		// have been evicted... only clean frames are evictable, and this
		// frame was dirty, so it is still cached unless rewritten).
		if f, ok := u.cache.Peek(op.key); ok && f.dirty {
			u.cache.Update(op.key, cacheFrame{dirty: false})
		}
		u.putOp(op)
	}
}

// NewDiskUnit builds a disk-unit inside s.
func NewDiskUnit(s *sim.Sim, cfg DiskUnitConfig, rnd *rng.Stream) (*DiskUnit, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	u := &DiskUnit{
		cfg:         cfg,
		sim:         s,
		rnd:         rnd,
		controllers: s.NewResource(cfg.Name+"/ctrl", cfg.NumControllers),
	}
	if cfg.Type != SSD {
		u.disks = s.NewResource(cfg.Name+"/disk", cfg.NumDisks)
	}
	if cfg.Type == VolatileCache || cfg.Type == NVCache {
		u.cache = lru.New[PageKey, cacheFrame](cfg.CacheSize, PageHash)
	}
	return u, nil
}

// Stats returns a copy of the unit's counters.
func (u *DiskUnit) Stats() DiskUnitStats { return u.stats }

// ControllerUtilization returns the controllers' mean utilization.
func (u *DiskUnit) ControllerUtilization() float64 { return u.controllers.Utilization() }

// DiskUtilization returns the disk servers' mean utilization (0 for SSDs).
func (u *DiskUnit) DiskUtilization() float64 {
	if u.disks == nil {
		return 0
	}
	return u.disks.Utilization()
}

// Read performs a read I/O for key and runs k once the device delay has
// elapsed. For cache units a read hit avoids the disk access; after a read
// miss the page is stored in the cache (possibly evicting; non-volatile
// caches only evict clean frames for read allocation, skipping allocation
// when all frames are dirty).
func (u *DiskUnit) Read(key PageKey, k func()) {
	u.stats.Reads++
	switch u.cfg.Type {
	case SSD:
		u.pass(key, k, opFinish)
	case Regular:
		u.pass(key, k, opDisk)
	case VolatileCache, NVCache:
		if !u.cfg.WriteBufferOnly {
			if _, hit := u.cache.Get(key); hit {
				u.stats.ReadHits++
				u.pass(key, k, opFinish)
				return
			}
		}
		u.pass(key, k, opInsert)
	}
}

// insertClean stores a just-read page in the cache. Volatile caches may
// evict anything (all frames are clean); non-volatile caches must keep dirty
// frames until their destage completes, so allocation is skipped when no
// clean victim exists.
func (u *DiskUnit) insertClean(key PageKey) {
	if u.cfg.Type == NVCache {
		if u.cache.Len() >= u.cache.Cap() {
			victim, ok := u.cache.FindOldest(func(_ PageKey, f cacheFrame) bool { return !f.dirty })
			if !ok {
				return // all dirty: cannot allocate
			}
			u.cache.Remove(victim)
		}
	}
	u.cache.Put(key, cacheFrame{dirty: false})
}

// Write performs a write I/O for key and runs k once the unit signals
// completion:
//
//   - Regular: controller + disk access.
//   - SSD: controller only (data lives in semiconductor memory).
//   - Volatile cache: every write results in a disk access (write-through).
//     A write hit refreshes the cached copy; a write miss leaves the cache
//     unaffected (IBM-style management, section 3.3).
//   - Non-volatile cache: the write is satisfied in the cache and the disk
//     copy updated asynchronously. On a write miss the least recently used
//     clean frame is replaced; if every frame is dirty the write goes
//     synchronously to disk.
func (u *DiskUnit) Write(key PageKey, k func()) {
	u.stats.Writes++
	switch u.cfg.Type {
	case SSD:
		u.pass(key, k, opFinish)
	case Regular:
		u.pass(key, k, opDisk)
	case VolatileCache:
		u.pass(key, k, opVolWrite)
	case NVCache:
		u.writeNV(key, k)
	}
}

// writeNV implements the non-volatile cache write path.
func (u *DiskUnit) writeNV(key PageKey, k func()) {
	if _, hit := u.cache.Peek(key); hit {
		// Write hit: always satisfiable — no replacement needed.
		u.stats.WriteHits++
		u.pass(key, k, opNVStore)
		return
	}
	// Write miss: need a frame; replace the LRU clean page.
	if u.cache.Len() >= u.cache.Cap() {
		victim, ok := u.cache.FindOldest(func(_ PageKey, f cacheFrame) bool { return !f.dirty })
		if !ok {
			// All cached pages have destages in flight: go directly to disk.
			u.stats.SyncDiskWrites++
			u.pass(key, k, opDisk)
			return
		}
		u.cache.Remove(victim)
	}
	u.pass(key, k, opNVStore)
}

// startDestage immediately starts the asynchronous disk update for a
// modified page stored in the non-volatile cache ("we immediately start the
// disk update when a modified page is stored in the disk cache"). The
// destage rides a pooled op through a +0 event, whose slot in the event
// order the goldens pin.
func (u *DiskUnit) startDestage(key PageKey) {
	u.stats.CacheWrites++
	u.stats.Destages++
	op := u.getOp()
	op.key, op.k = key, nil
	op.state, op.after = opDestage, opDestage
	u.sim.Schedule(0, op.step)
}

// CrashVolatile clears cache content that does not survive a system
// crash: a volatile controller cache loses every frame, while
// non-volatile caches, SSD store and the disk media keep their pages
// (section 3.3's durability distinction, which the recovery model's
// restart scan depends on).
func (u *DiskUnit) CrashVolatile() {
	if u.cfg.Type == VolatileCache {
		u.cache = lru.New[PageKey, cacheFrame](u.cfg.CacheSize, PageHash)
	}
}

// NVEM models the non-volatile extended memory store: page transfers between
// main memory and NVEM take a fixed delay at one of NumServers ports, and
// are synchronous — the caller's CPU stays busy, which the engine models by
// keeping the CPU resource held while calling Access.
type NVEM struct {
	res   *sim.Resource
	delay float64
}

// NewNVEM builds the NVEM store.
func NewNVEM(s *sim.Sim, servers int, delay float64) (*NVEM, error) {
	if servers <= 0 {
		return nil, fmt.Errorf("storage: NVEM servers = %d", servers)
	}
	if delay < 0 {
		return nil, fmt.Errorf("storage: NVEM delay = %v", delay)
	}
	return &NVEM{res: s.NewResource("nvem", servers), delay: delay}, nil
}

// Access performs one page transfer (read or write — symmetric), then k.
func (n *NVEM) Access(k func()) { n.res.Use(n.delay, k) }

// Utilization returns the NVEM ports' mean utilization.
func (n *NVEM) Utilization() float64 { return n.res.Utilization() }
