package buffer

// This file holds the crash-recovery support of the buffer manager: the
// fuzzy-checkpoint daemon (periodic asynchronous dirty-page flush that
// bounds the redo log a restart must scan), the dirty-page and
// since-checkpoint log bookkeeping the recovery model reads, the crash
// hook that clears the volatile buffer state, and the simulated redo log
// scan. NOFORCE is only viable with this machinery (section 3.2: "fuzzy
// checkpoints"); the restart-time experiments in internal/experiments
// drive it.

import (
	"repro/internal/sim"
	"repro/internal/storage"
)

// LogSinceCkpt returns the redo log length: log pages written since the
// last completed fuzzy checkpoint (or since the start of the run when no
// checkpoint has completed yet).
func (m *Manager) LogSinceCkpt() int64 { return m.logSinceCkpt }

// DirtyKeys returns the keys of the dirty main-memory frames, most- to
// least-recently used. The order is the LRU chain's, so it is
// deterministic; the checkpoint daemon flushes in it and crash recovery
// redoes in it.
func (m *Manager) DirtyKeys() []storage.PageKey { return m.appendDirtyKeys(nil) }

// appendDirtyKeys appends the dirty keys to out (the checkpoint daemon
// passes its recycled scratch; DirtyKeys passes nil because its callers —
// recovery snapshots — retain the result).
func (m *Manager) appendDirtyKeys(out []storage.PageKey) []storage.PageKey {
	m.mm.Each(func(k storage.PageKey, f frame) bool {
		if f.dirty {
			out = append(out, k)
		}
		return true
	})
	return out
}

// StopCheckpoints makes the checkpoint daemon exit at its next tick: a
// crashed node cannot checkpoint, and a drain-to-empty run (restart
// measurement) must terminate.
func (m *Manager) StopCheckpoints() { m.ckptGen++ }

// ResumeCheckpoints starts a fresh checkpoint daemon after a recovered
// node rejoins (no-op when checkpointing is not configured). The cadence
// re-anchors at the resume instant; a stale tick of the stopped daemon
// is fenced off by the generation counter.
func (m *Manager) ResumeCheckpoints() {
	if m.cfg.CheckpointIntervalMS > 0 {
		m.startCheckpointDaemon()
	}
}

// startCheckpointDaemon starts the fuzzy-checkpoint daemon, one +0 event
// from now, on a fixed cadence: a checkpoint begins at every multiple of
// CheckpointIntervalMS (skipping beats a long flush overran — checkpoints
// never overlap), so the redo log length at any instant is bounded by the
// interval plus one flush, independent of how long earlier flushes took.
func (m *Manager) startCheckpointDaemon() {
	gen := m.ckptGen
	interval := m.cfg.CheckpointIntervalMS
	var next sim.Time
	var tick func()
	tick = func() {
		if m.ckptGen != gen {
			return
		}
		m.fuzzyCheckpoint(gen, func() {
			now := m.sim.Now()
			for next <= now {
				next += interval
			}
			m.sim.Schedule(next-now, tick)
		})
	}
	m.sim.Schedule(0, func() {
		next = m.sim.Now() + interval
		m.sim.Schedule(interval, tick)
	})
}

// fuzzyCheckpoint flushes every dirty main-memory frame without blocking
// transactions: the flush set is fixed at checkpoint begin and written by
// concurrent pooled asynchronous writes (the devices serialize them),
// so pages re-modified during the flush stay dirty for the next
// checkpoint and transactions only feel the extra device load. Once all
// writes and the checkpoint log record are durable the checkpoint counts
// as completed and the redo log length resets, then k runs. A crash
// mid-flush abandons the checkpoint: device writes already issued complete
// (in-flight I/O survives), but the gen fence stops every later
// continuation, so no checkpoint record is written, the checkpoint is not
// counted, and the redo log length stays for the recovery snapshot.
func (m *Manager) fuzzyCheckpoint(gen int, k func()) {
	m.ckptKeys = m.appendDirtyKeys(m.ckptKeys[:0])
	keys := m.ckptKeys
	for _, key := range keys {
		m.mm.Update(key, frame{dirty: false})
	}
	finish := func() {
		if m.ckptGen != gen {
			return
		}
		m.writeLog(func() { // the checkpoint record
			m.stats.Checkpoints++
			m.logSinceCkpt = 0
			k()
		})
	}
	if len(keys) == 0 {
		finish()
		return
	}
	// One pooled flush op per page (each a +0 event, whose slot in the
	// event order the goldens pin); the flush set is the recycled scratch,
	// which is safe to reuse next checkpoint because every op copied its
	// key.
	m.ckptRemaining = len(keys)
	m.ckptFinish = finish
	for _, key := range keys {
		m.stats.CkptWrites++
		op := m.getOp()
		op.key, op.gen = key, gen
		op.state = ckFlush
		m.sim.Schedule(0, op.step)
	}
}

// Crash clears the buffer manager's volatile state: every main-memory
// frame is lost, as are the continuations of in-flight group commits.
// Non-volatile state survives — the NVEM cache (private or shared), the
// NVEM write buffer with its in-flight destages, and everything on the
// devices. The since-checkpoint log counter is left for the recovery
// snapshot; RecoveryScan resets it once the log has been replayed.
// Clearing the buffer uncounts its frames from a residency table (Track).
func (m *Manager) Crash() {
	m.mm.Clear()
	m.gcWaiters = nil
}

// RecoveryScan reads n redo log pages sequentially through the log
// allocation — NVEM transfers for an NVEM-resident log, device reads
// otherwise — then resets the since-checkpoint counter and runs k. This
// is the device-dependent log scan of a restart: its duration is what
// separates NVEM, SSD and disk log placements.
func (m *Manager) RecoveryScan(n int64, k func()) {
	var i int64
	var step func()
	step = func() {
		if i == n {
			m.logSinceCkpt = 0
			k()
			return
		}
		key := storage.PageKey{Partition: m.logPartition, Page: m.logNext - n + i}
		i++
		if m.alloc(m.logPartition).NVEMResident {
			m.host.NVEMTransfer(step)
			return
		}
		m.host.IOOverhead(func() {
			m.unitOf(m.logPartition).Read(key, step)
		})
	}
	step()
}
