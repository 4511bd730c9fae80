package buffer

import "fmt"

// MigrateMode selects which pages replaced from the main-memory buffer
// migrate into the NVEM second-level cache (parameter CachingNVEM of Table
// 3.3). The paper finds migrating all pages gives the best NVEM hit ratios
// (section 4.6).
type MigrateMode uint8

// Migration modes for the NVEM cache.
const (
	MigrateAll        MigrateMode = iota // modified and unmodified pages
	MigrateModified                      // only modified pages
	MigrateUnmodified                    // only unmodified pages
)

func (m MigrateMode) String() string {
	switch m {
	case MigrateAll:
		return "all"
	case MigrateModified:
		return "modified"
	case MigrateUnmodified:
		return "unmodified"
	default:
		return fmt.Sprintf("MigrateMode(%d)", uint8(m))
	}
}

// UnmarshalText sets m to the migration mode whose String() is text.
func (m *MigrateMode) UnmarshalText(text []byte) error {
	for v := range MigrateUnmodified + 1 {
		if v.String() == string(text) {
			*m = v
			return nil
		}
	}
	return fmt.Errorf("unknown nvemCacheMode %q", text)
}

// PartitionAlloc places one database partition in the storage hierarchy
// (the 17 possibilities of Fig 3.2): main-memory resident, NVEM resident, or
// on a disk-unit — optionally with an NVEM second-level cache and/or an NVEM
// write buffer in front of the disk-unit.
type PartitionAlloc struct {
	MMResident   bool `json:"mmResident"`
	NVEMResident bool `json:"nvemResident"`
	// DiskUnit indexes the engine's disk-unit list when the partition is
	// neither MM- nor NVEM-resident.
	DiskUnit int `json:"diskUnit"`
	// SyncAccess selects synchronous device access for this partition
	// (parameter AccessMode of Table 3.3): the CPU stays busy until the
	// read or write completes instead of being released for the I/O.
	SyncAccess bool `json:"syncAccess"`

	// NVEMCache caches this partition's pages in the NVEM second-level
	// buffer when they are replaced from main memory.
	NVEMCache bool `json:"nvemCache"`
	// NVEMCacheMode selects which replaced pages migrate.
	NVEMCacheMode MigrateMode `json:"nvemCacheMode"`
	// NVEMWriteBuffer routes this partition's page writes through the NVEM
	// write buffer (asynchronous disk update).
	NVEMWriteBuffer bool `json:"nvemWriteBuffer"`
}

// Validate checks a single partition allocation.
func (a *PartitionAlloc) Validate(name string, numUnits int) error {
	if a.MMResident && a.NVEMResident {
		return fmt.Errorf("buffer: %s: both MM- and NVEM-resident", name)
	}
	resident := a.MMResident || a.NVEMResident
	if resident && (a.NVEMCache || a.NVEMWriteBuffer) {
		return fmt.Errorf("buffer: %s: resident partitions take no cache/write buffer", name)
	}
	if !resident && (a.DiskUnit < 0 || a.DiskUnit >= numUnits) {
		return fmt.Errorf("buffer: %s: disk unit %d out of range", name, a.DiskUnit)
	}
	if a.NVEMCache && a.NVEMWriteBuffer {
		// The NVEM cache already absorbs writes; a write buffer on top is
		// meaningless (Fig 3.2 footnote 4).
		return fmt.Errorf("buffer: %s: NVEM cache and NVEM write buffer are exclusive", name)
	}
	return nil
}

// LogAlloc places the log file (section 3.3): NVEM-resident, or on a
// disk-unit (SSD, disk with write-buffer cache, plain disk), optionally
// through the NVEM write buffer.
type LogAlloc struct {
	NVEMResident    bool `json:"nvemResident"`
	DiskUnit        int  `json:"diskUnit"`
	NVEMWriteBuffer bool `json:"nvemWriteBuffer"`
}

// Validate checks the log allocation.
func (a *LogAlloc) Validate(numUnits int) error {
	if a.NVEMResident && a.NVEMWriteBuffer {
		return fmt.Errorf("buffer: log: NVEM-resident log needs no write buffer")
	}
	if !a.NVEMResident && (a.DiskUnit < 0 || a.DiskUnit >= numUnits) {
		return fmt.Errorf("buffer: log: disk unit %d out of range", a.DiskUnit)
	}
	return nil
}

// Config parameterizes the buffer manager (the BM rows of Table 3.3).
type Config struct {
	// BufferSize is the main-memory database buffer size in page frames.
	BufferSize int `json:"bufferSize"`
	// Force selects the FORCE update strategy (all pages modified by a
	// transaction written to non-volatile storage at commit); false is
	// NOFORCE with fuzzy checkpointing (no extra commit writes).
	Force bool `json:"force"`
	// Logging disables the commit log write when false.
	Logging bool `json:"logging"`

	// GroupCommit batches the log writes of concurrently committing
	// transactions into one log I/O (the optimization footnote 3 notes the
	// paper's base model omits — and which section 4.2 argues NV memory
	// makes unnecessary). Committers wait up to GroupCommitWaitMS for the
	// group's shared write.
	GroupCommit       bool    `json:"-"`
	GroupCommitWaitMS float64 `json:"-"`

	// AsyncReplacement writes dirty victim pages to disk asynchronously
	// instead of stalling the replacing transaction (the "more
	// sophisticated buffer manager" of section 4.3). Without NV memory this
	// recovers most of the write-buffer benefit in software.
	AsyncReplacement bool `json:"-"`

	// CheckpointIntervalMS, when positive, runs the fuzzy-checkpoint
	// daemon: every interval the dirty main-memory frames are flushed
	// asynchronously and a checkpoint record is logged, bounding the redo
	// log a restart must scan (section 3.2: NOFORCE "in combination with
	// fuzzy checkpoints"). Requires Logging.
	CheckpointIntervalMS float64 `json:"checkpointIntervalMS"`

	// NVEMDeferredDestage defers the disk update of modified pages in the
	// NVEM cache until they are evicted from NVEM, saving disk writes for
	// pages modified repeatedly (the alternative propagation policy
	// discussed in section 3.2). The eviction then pays an extra NVEM→MM
	// transfer before the asynchronous disk write.
	NVEMDeferredDestage bool `json:"-"`

	// NVEMCacheSize is the NVEM second-level buffer size in frames (0 when
	// no partition uses NVEM caching).
	NVEMCacheSize int `json:"nvemCacheSize"`
	// NVEMWriteBufferSize bounds pages buffered in the NVEM write buffer
	// awaiting their asynchronous disk write (0 when unused).
	NVEMWriteBufferSize int `json:"nvemWriteBufferSize"`

	Partitions []PartitionAlloc `json:"partitions"`
	Log        LogAlloc         `json:"log"`
}

// Validate checks the configuration against the number of configured
// disk-units and partition names (for messages).
func (c *Config) Validate(partitionNames []string, numUnits int) error {
	if c.BufferSize <= 0 {
		return fmt.Errorf("buffer: BufferSize = %d", c.BufferSize)
	}
	if len(c.Partitions) != len(partitionNames) {
		return fmt.Errorf("buffer: %d allocations for %d partitions", len(c.Partitions), len(partitionNames))
	}
	needNVEMCache := false
	needWB := false
	for i := range c.Partitions {
		if err := c.Partitions[i].Validate(partitionNames[i], numUnits); err != nil {
			return err
		}
		needNVEMCache = needNVEMCache || c.Partitions[i].NVEMCache
		needWB = needWB || c.Partitions[i].NVEMWriteBuffer
	}
	if err := c.Log.Validate(numUnits); err != nil {
		return err
	}
	needWB = needWB || c.Log.NVEMWriteBuffer
	if needNVEMCache && c.NVEMCacheSize <= 0 {
		return fmt.Errorf("buffer: NVEM caching enabled but NVEMCacheSize = %d", c.NVEMCacheSize)
	}
	if needWB && c.NVEMWriteBufferSize <= 0 {
		return fmt.Errorf("buffer: NVEM write buffer enabled but NVEMWriteBufferSize = %d", c.NVEMWriteBufferSize)
	}
	if c.GroupCommit && c.GroupCommitWaitMS <= 0 {
		return fmt.Errorf("buffer: GroupCommit requires GroupCommitWaitMS > 0")
	}
	if c.GroupCommit && !c.Logging {
		return fmt.Errorf("buffer: GroupCommit without Logging")
	}
	if c.CheckpointIntervalMS < 0 {
		return fmt.Errorf("buffer: CheckpointIntervalMS = %v", c.CheckpointIntervalMS)
	}
	if c.CheckpointIntervalMS > 0 && !c.Logging {
		return fmt.Errorf("buffer: checkpointing without Logging")
	}
	return nil
}

// UsesNVEM reports whether any allocation touches NVEM (residence, cache or
// write buffer), i.e. whether the engine must configure an NVEM store.
func (c *Config) UsesNVEM() bool {
	if c.Log.NVEMResident || c.Log.NVEMWriteBuffer {
		return true
	}
	for i := range c.Partitions {
		a := &c.Partitions[i]
		if a.NVEMResident || a.NVEMCache || a.NVEMWriteBuffer {
			return true
		}
	}
	return false
}
