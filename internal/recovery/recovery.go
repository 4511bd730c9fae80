// Package recovery models crash recovery for the TPSIM engine (the
// Gray & Reuter-style redo recovery the paper's NOFORCE argument rests
// on, sections 3.2 and 4.2): after a system crash the main-memory buffer
// and every volatile cache are lost, while non-volatile tiers — NVEM
// (cache, write buffer and resident partitions), non-volatile disk
// caches, SSDs and the disks themselves — keep their pages. Restart then
// replays the redo log written since the last fuzzy checkpoint and
// re-reads the pages whose only current version was in the lost buffer.
//
// The package is the pure model: it captures the crash-time state
// (Snapshot) and prices one page of the restart from the device
// parameters (DeviceReadMS, LogReadMS, RedoReadMS). internal/core sums
// those prices into the analytic restart estimate (the log scan plus one
// redo read per lost dirty page, priced by its partition), decides which
// caches survive the crash (storage.DiskUnit.CrashVolatile), and runs the
// simulated restart — the same scan and redo I/O executed through the
// real device models — reporting both so the estimate can be
// cross-checked against the event-driven run.
package recovery

import (
	"repro/internal/buffer"
	"repro/internal/storage"
)

// Snapshot captures the recovery-relevant state of a node at the instant
// it crashes. The buffer manager's checkpoint bookkeeping supplies it.
type Snapshot struct {
	// LogPages is the redo log length: log pages written since the last
	// completed fuzzy checkpoint. Restart scans all of them.
	LogPages int64
	// RedoPages counts the dirty main-memory frames lost in the crash;
	// each needs one page read (and re-application) during redo.
	RedoPages int
	// Resident is the total number of occupied main-memory frames at the
	// crash — the cold-buffer volume the rewarm phase re-reads on demand
	// after the node rejoins (it is not part of restart time; the
	// throughput ramp-back pays for it).
	Resident int
}

// DeviceReadMS returns the expected per-page read time of a disk-unit
// during the restart scan: controller service plus transmission, plus a
// physical disk access unless the page is held in semiconductor store —
// SSDs always, non-volatile read caches for the recently written pages a
// redo scan touches. A write-buffer-only cache is never probed on reads,
// and a volatile cache is empty after the crash, so both pay the disk.
func DeviceReadMS(u storage.DiskUnitConfig) float64 {
	base := u.ContrDelay + u.TransDelay
	switch {
	case u.Type == storage.SSD:
		return base
	case u.Type == storage.NVCache && !u.WriteBufferOnly:
		return base
	default:
		return base + u.DiskDelay
	}
}

// LogReadMS returns the sequential per-page log read time for a log
// allocation: an NVEM-resident log reads at NVEM transfer speed; any
// disk-based allocation (including behind the NVEM write buffer, whose
// pages have been destaged to the device by restart time) reads from its
// disk-unit.
func LogReadMS(log buffer.LogAlloc, units []storage.DiskUnitConfig, nvemDelayMS float64) float64 {
	if log.NVEMResident {
		return nvemDelayMS
	}
	return DeviceReadMS(units[log.DiskUnit])
}

// RedoReadMS returns the per-page redo read time for a partition
// allocation. NVEM-resident partitions redo at NVEM speed. A partition
// with an NVEM second-level cache still redoes from its device: under
// NOFORCE a page lives in at most one of MM and NVEM, so the dirty
// frames lost in the crash had no NVEM copy. Main-memory-resident
// partitions use NOFORCE propagation with no device backing in this
// model; their redo is folded into the log scan (0 per-page cost).
func RedoReadMS(a buffer.PartitionAlloc, units []storage.DiskUnitConfig, nvemDelayMS float64) float64 {
	switch {
	case a.MMResident:
		return 0
	case a.NVEMResident:
		return nvemDelayMS
	default:
		return DeviceReadMS(units[a.DiskUnit])
	}
}
