package buffer

import "testing"

// ckptCfg is baseCfg with a large enough buffer and the checkpoint
// daemon enabled.
func ckptCfg(intervalMS float64) Config {
	cfg := baseCfg()
	cfg.BufferSize = 8
	cfg.CheckpointIntervalMS = intervalMS
	return cfg
}

func TestCheckpointValidation(t *testing.T) {
	cfg := ckptCfg(-1)
	if err := cfg.Validate([]string{"p"}, 1); err == nil {
		t.Fatal("negative interval must fail validation")
	}
	cfg = ckptCfg(100)
	cfg.Logging = false
	if err := cfg.Validate([]string{"p"}, 1); err == nil {
		t.Fatal("checkpointing without logging must fail validation")
	}
}

// TestCheckpointFlushesDirtyPages: the daemon flushes the dirty frames,
// counts the checkpoint, and resets the since-checkpoint log length.
func TestCheckpointFlushesDirtyPages(t *testing.T) {
	r := newRig(t, ckptCfg(500))
	var dirtyBefore, dirtyAfter int
	var logBefore, logAfter int64
	r.drive(
		fix(r.m, key(0, 1), true),
		fix(r.m, key(0, 2), true),
		fix(r.m, key(0, 3), true),
		writeLog(r.m),
		do(func() { dirtyBefore, logBefore = len(r.m.DirtyKeys()), r.m.LogSinceCkpt() }),
		hold(r.s, 600), // across the first checkpoint
		do(func() {
			dirtyAfter, logAfter = len(r.m.DirtyKeys()), r.m.LogSinceCkpt()
			r.m.StopCheckpoints()
		}),
	)
	if dirtyBefore != 3 || logBefore != 1 {
		t.Fatalf("before checkpoint: dirty=%d log=%d, want 3/1", dirtyBefore, logBefore)
	}
	if dirtyAfter != 0 || logAfter != 0 {
		t.Fatalf("after checkpoint: dirty=%d log=%d, want 0/0", dirtyAfter, logAfter)
	}
	st := r.m.Stats()
	if st.Checkpoints == 0 {
		t.Fatal("no checkpoint completed")
	}
	if st.CkptWrites != 3 {
		t.Fatalf("checkpoint writes = %d, want 3", st.CkptWrites)
	}
	// Each completed checkpoint also logged one checkpoint record.
	if st.LogWrites < st.Checkpoints {
		t.Fatalf("log writes %d < checkpoints %d", st.LogWrites, st.Checkpoints)
	}
}

// TestCheckpointFlushRoutes: a checkpoint flushes a dirty page through
// its partition's allocation — an NVEM transfer for an NVEM-resident page,
// the NVEM write buffer (whose background destage charges an I/O
// overhead), the CPU-held device write of a synchronous partition, or the
// I/O overhead then the device write — and the page ends clean. A written
// MM-resident page never enters the buffer, so there is nothing to flush.
// In every case the checkpoint completes and logs its record, one more
// I/O overhead on the disk log.
func TestCheckpointFlushRoutes(t *testing.T) {
	for _, tc := range []struct {
		name           string
		alloc          PartitionAlloc
		flushed        int64
		io, sync, nvem int
	}{
		{"mm-resident", PartitionAlloc{MMResident: true}, 0, 1, 0, 0},
		{"nvem-resident", PartitionAlloc{NVEMResident: true}, 1, 1, 0, 1},
		{"write-buffer", PartitionAlloc{NVEMWriteBuffer: true}, 1, 2, 0, 1},
		{"sync-access", PartitionAlloc{SyncAccess: true}, 1, 1, 1, 0},
		{"disk", PartitionAlloc{}, 1, 2, 0, 0},
	} {
		t.Run(tc.name, func(t *testing.T) {
			cfg := ckptCfg(1000)
			cfg.Partitions[0] = tc.alloc
			cfg.NVEMWriteBufferSize = 1
			r := newRig(t, cfg)
			var before testHost
			var dirtyBefore, dirtyAfter int
			var logAfter int64
			r.drive(
				fix(r.m, key(0, 1), true),
				writeLog(r.m),
				func(next func()) {
					before, dirtyBefore = *r.host, len(r.m.DirtyKeys())
					r.s.Schedule(1900-r.s.Now(), next) // across the checkpoint at 1000, short of the next
				},
				do(func() {
					dirtyAfter, logAfter = len(r.m.DirtyKeys()), r.m.LogSinceCkpt()
					r.m.StopCheckpoints()
				}),
			)
			if dirtyBefore != int(tc.flushed) {
				t.Fatalf("dirty pages before the checkpoint = %d, want %d", dirtyBefore, tc.flushed)
			}
			io, sync, nvem := r.host.ioCalls-before.ioCalls, r.host.syncCalls-before.syncCalls, r.host.nvemCalls-before.nvemCalls
			if io != tc.io || sync != tc.sync || nvem != tc.nvem {
				t.Errorf("checkpoint host calls: io %d, sync %d, nvem %d; want %d, %d, %d", io, sync, nvem, tc.io, tc.sync, tc.nvem)
			}
			if st := r.m.Stats(); st.Checkpoints != 1 || st.CkptWrites != tc.flushed {
				t.Errorf("checkpoints %d, flushed pages %d; want 1, %d", st.Checkpoints, st.CkptWrites, tc.flushed)
			}
			if dirtyAfter != 0 || logAfter != 0 {
				t.Errorf("after the checkpoint: dirty %d, log since checkpoint %d; want 0, 0", dirtyAfter, logAfter)
			}
		})
	}
}

// TestCheckpointDirtyKeysOrder: DirtyKeys reports MRU→LRU order.
func TestCheckpointDirtyKeysOrder(t *testing.T) {
	cfg := ckptCfg(0) // no daemon; bookkeeping only
	cfg.CheckpointIntervalMS = 0
	r := newRig(t, cfg)
	r.drive(
		fix(r.m, key(0, 1), true),
		fix(r.m, key(0, 2), false),
		fix(r.m, key(0, 3), true),
	)
	keys := r.m.DirtyKeys()
	if len(keys) != 2 || keys[0] != key(0, 3) || keys[1] != key(0, 1) {
		t.Fatalf("dirty keys = %v, want [p0/3 p0/1]", keys)
	}
}

// TestStopCheckpointsEndsDaemon: after StopCheckpoints the event heap
// drains — RunAll terminates and no further checkpoints run.
func TestStopCheckpointsEndsDaemon(t *testing.T) {
	r := newRig(t, ckptCfg(50))
	r.drive(fix(r.m, key(0, 1), true), hold(r.s, 120), do(r.m.StopCheckpoints))
	before := r.m.Stats().Checkpoints
	if before == 0 {
		t.Fatal("no checkpoint before stop")
	}
	r.s.Run(r.s.Now() + 1000)
	if after := r.m.Stats().Checkpoints; after != before {
		t.Fatalf("daemon kept checkpointing after stop: %d -> %d", before, after)
	}
}

// TestCrashClearsVolatileOnly: Crash empties the main-memory buffer but
// keeps the (non-volatile) NVEM cache.
func TestCrashClearsVolatileOnly(t *testing.T) {
	cfg := baseCfg()
	cfg.BufferSize = 2
	cfg.NVEMCacheSize = 4
	cfg.Partitions[0].NVEMCache = true
	r := newRig(t, cfg)
	var fixes []step
	for page := int64(1); page <= 4; page++ { // overflow MM into NVEM
		fixes = append(fixes, fix(r.m, key(0, page), false))
	}
	r.drive(fixes...)
	if r.m.MMLen() == 0 || r.m.NVEMCacheLen() == 0 {
		t.Fatalf("setup: mm=%d nvem=%d", r.m.MMLen(), r.m.NVEMCacheLen())
	}
	nvemBefore := r.m.NVEMCacheLen()
	r.m.Crash()
	if r.m.MMLen() != 0 {
		t.Fatalf("MM survived the crash: %d frames", r.m.MMLen())
	}
	if r.m.NVEMCacheLen() != nvemBefore {
		t.Fatalf("NVEM cache did not survive: %d -> %d", nvemBefore, r.m.NVEMCacheLen())
	}
}

// TestRecoveryScanDeviceVsNVEM: the simulated log scan pays device reads
// for a disk log and NVEM transfers for an NVEM-resident log.
func TestRecoveryScanDeviceVsNVEM(t *testing.T) {
	r := newRig(t, baseCfg())
	readsBefore := r.unit.Stats().Reads
	var scanned bool
	r.drive(func(next func()) { r.m.RecoveryScan(5, func() { scanned = true; next() }) })
	if !scanned {
		t.Fatal("scan never completed")
	}
	if got := r.unit.Stats().Reads - readsBefore; got != 5 {
		t.Fatalf("disk log scan issued %d reads, want 5", got)
	}

	cfg := baseCfg()
	cfg.Log = LogAlloc{NVEMResident: true}
	rn := newRig(t, cfg)
	rn.drive(func(next func()) { rn.m.RecoveryScan(5, next) })
	if rn.host.nvemCalls != 5 {
		t.Fatalf("NVEM log scan made %d transfers, want 5", rn.host.nvemCalls)
	}
	if got := rn.m.LogSinceCkpt(); got != 0 {
		t.Fatalf("log since ckpt after scan = %d, want 0", got)
	}
}

// TestResumeCheckpointsAfterStop: a new daemon incarnation resumes
// checkpointing, and the old incarnation's stale tick is fenced off by
// the generation counter (no double daemon).
func TestResumeCheckpointsAfterStop(t *testing.T) {
	r := newRig(t, ckptCfg(100))
	var atStop, afterDead, afterResume int64
	r.drive(
		fix(r.m, key(0, 1), true),
		hold(r.s, 250),
		do(func() {
			r.m.StopCheckpoints()
			atStop = r.m.Stats().Checkpoints
		}),
		hold(r.s, 300), // stale tick fires and must exit
		do(func() {
			afterDead = r.m.Stats().Checkpoints
			r.m.ResumeCheckpoints()
		}),
		hold(r.s, 300),
		do(func() {
			afterResume = r.m.Stats().Checkpoints
			r.m.StopCheckpoints()
		}),
	)
	if atStop == 0 {
		t.Fatal("no checkpoint before stop")
	}
	if afterDead != atStop {
		t.Fatalf("stopped daemon kept checkpointing: %d -> %d", atStop, afterDead)
	}
	if afterResume <= afterDead {
		t.Fatalf("resume did not restart checkpointing: %d -> %d", afterDead, afterResume)
	}
}
