package recovery

import (
	"testing"

	"repro/internal/buffer"
	"repro/internal/storage"
)

// Table 3.4 / 4.1-style device configurations used across the tests.
var (
	logDisk = storage.DiskUnitConfig{Name: "log", Type: storage.Regular,
		NumControllers: 2, ContrDelay: 1.0, TransDelay: 0.4, NumDisks: 8, DiskDelay: 5.0}
	logSSD = storage.DiskUnitConfig{Name: "log", Type: storage.SSD,
		NumControllers: 2, ContrDelay: 1.0, TransDelay: 0.4}
	logWB = storage.DiskUnitConfig{Name: "log", Type: storage.NVCache,
		NumControllers: 2, ContrDelay: 1.0, TransDelay: 0.4, NumDisks: 8, DiskDelay: 5.0,
		CacheSize: 500, WriteBufferOnly: true}
	dbDisk = storage.DiskUnitConfig{Name: "db", Type: storage.Regular,
		NumControllers: 12, ContrDelay: 1.0, TransDelay: 0.4, NumDisks: 96, DiskDelay: 15.0}
)

// TestLogReadOrdering pins the device ordering the paper's recovery
// argument depends on: an NVEM-resident log scans faster than an SSD
// log, which scans faster than a magnetic-disk log.
func TestLogReadOrdering(t *testing.T) {
	units := []storage.DiskUnitConfig{dbDisk, logDisk}
	const nvemDelay = 0.05
	nvem := LogReadMS(buffer.LogAlloc{NVEMResident: true}, units, nvemDelay)
	ssd := LogReadMS(buffer.LogAlloc{DiskUnit: 1}, []storage.DiskUnitConfig{dbDisk, logSSD}, nvemDelay)
	disk := LogReadMS(buffer.LogAlloc{DiskUnit: 1}, units, nvemDelay)
	if !(nvem < ssd && ssd < disk) {
		t.Fatalf("log scan ordering violated: nvem=%v ssd=%v disk=%v", nvem, ssd, disk)
	}
}

func TestDeviceReadMS(t *testing.T) {
	if got, want := DeviceReadMS(logDisk), 6.4; got != want {
		t.Fatalf("regular disk read = %v, want %v", got, want)
	}
	if got, want := DeviceReadMS(logSSD), 1.4; got != want {
		t.Fatalf("ssd read = %v, want %v", got, want)
	}
	// A write-buffer-only NV cache is not probed on reads: disk speed.
	if got, want := DeviceReadMS(logWB), 6.4; got != want {
		t.Fatalf("write-buffer-only read = %v, want %v", got, want)
	}
	readCache := logWB
	readCache.WriteBufferOnly = false
	if got, want := DeviceReadMS(readCache), 1.4; got != want {
		t.Fatalf("nv read-cache read = %v, want %v", got, want)
	}
	vol := readCache
	vol.Type = storage.VolatileCache
	if got, want := DeviceReadMS(vol), 6.4; got != want {
		t.Fatalf("volatile cache (cleared at crash) read = %v, want %v", got, want)
	}
}

func TestRedoReadMS(t *testing.T) {
	units := []storage.DiskUnitConfig{dbDisk, logDisk}
	const nvemDelay = 0.05
	if got := RedoReadMS(buffer.PartitionAlloc{MMResident: true}, units, nvemDelay); got != 0 {
		t.Fatalf("mm-resident redo = %v, want 0", got)
	}
	if got := RedoReadMS(buffer.PartitionAlloc{NVEMResident: true}, units, nvemDelay); got != nvemDelay {
		t.Fatalf("nvem-resident redo = %v, want %v", got, nvemDelay)
	}
	// NVEM-cached partitions still redo from disk (NOFORCE exclusivity:
	// the lost dirty frames had no NVEM copy).
	withCache := buffer.PartitionAlloc{DiskUnit: 0, NVEMCache: true}
	if got, want := RedoReadMS(withCache, units, nvemDelay), 16.4; got != want {
		t.Fatalf("nvem-cached redo = %v, want %v", got, want)
	}
}
