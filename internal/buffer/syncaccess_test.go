package buffer

import "testing"

func TestSyncAccessUsesSyncDeviceIO(t *testing.T) {
	cfg := baseCfg()
	cfg.Partitions[0].SyncAccess = true
	r := newRig(t, cfg)
	r.drive(
		fix(r.m, key(0, 1), true),  // sync read
		fix(r.m, key(0, 2), true),  // sync read
		fix(r.m, key(0, 3), true),  // sync read
		fix(r.m, key(0, 4), false), // sync victim write + sync read
	)
	if r.host.syncCalls != 5 {
		t.Fatalf("sync device calls = %d, want 5 (4 reads + 1 victim write)", r.host.syncCalls)
	}
	if r.host.ioCalls != 0 {
		t.Fatalf("async IO overhead calls = %d, want 0 for a synchronous partition", r.host.ioCalls)
	}
}

func TestSyncAccessForceWrites(t *testing.T) {
	cfg := baseCfg()
	cfg.Force = true
	cfg.BufferSize = 10
	cfg.Partitions[0].SyncAccess = true
	r := newRig(t, cfg)
	r.drive(
		fix(r.m, key(0, 1), true),
		force(r.m, key(0, 1)),
	)
	// 1 sync read + 1 sync force write.
	if r.host.syncCalls != 2 {
		t.Fatalf("sync device calls = %d, want 2", r.host.syncCalls)
	}
}

func TestAsyncDefaultKeepsIOOverheadPath(t *testing.T) {
	r := newRig(t, baseCfg()) // SyncAccess false
	r.drive(fix(r.m, key(0, 1), false))
	if r.host.syncCalls != 0 || r.host.ioCalls != 1 {
		t.Fatalf("sync=%d io=%d, want 0/1", r.host.syncCalls, r.host.ioCalls)
	}
}
