// Package core is TPSIM's simulation engine: it wires the SOURCE (workload
// generators), the computing module (transaction manager, CPU servers,
// concurrency control, buffer manager) and the external storage devices into
// one discrete-event simulation and reports the paper's performance metrics
// (response time, throughput, hit ratios, utilizations, lock behaviour).
package core

import (
	"fmt"

	"repro/internal/buffer"
	"repro/internal/cc"
	"repro/internal/storage"
	"repro/internal/workload"
)

// Config is the complete description of one simulation run: CM parameters
// (Table 3.3), external device parameters (Table 3.4), buffer-manager
// allocation (Fig 3.2) and the workload source. The json tags are the keys
// of cmd/tpsim's configuration file; a field tagged "-" has no key there.
type Config struct {
	Seed int64 `json:"seed"`

	// --- transaction manager / CPU (Table 3.3) ---
	MPL      int     `json:"mpl"`      // multiprogramming level (max concurrent transactions)
	InstrBOT float64 `json:"instrBOT"` // mean instructions at begin-of-transaction
	InstrOR  float64 `json:"instrOR"`  // mean instructions per object reference
	InstrEOT float64 `json:"instrEOT"` // mean instructions at end-of-transaction
	NumCPU   int     `json:"numCPU"`
	MIPS     float64 `json:"mips"`    // per CPU
	InstrIO  float64 `json:"instrIO"` // mean instructions of CPU overhead per I/O
	// InstrNVEM is the CPU cost per NVEM access; the transfer itself is
	// synchronous (CPU held, section 2).
	InstrNVEM float64 `json:"instrNVEM"`

	// CCModes selects the lock granularity per database partition.
	CCModes []cc.Granularity `json:"ccModes"`

	// --- buffer manager (Table 3.3) and allocation (Fig 3.2) ---
	Buffer buffer.Config `json:"buffer"`

	// --- external devices (Table 3.4) ---
	DiskUnits   []storage.DiskUnitConfig `json:"diskUnits"`
	NVEMServers int                      `json:"nvemServers"`
	NVEMDelay   float64                  `json:"nvemDelayMS"` // ms per page transfer

	// --- workload ---
	Partitions []workload.Partition `json:"-"`
	Generator  workload.Generator   `json:"-"`
	// Arrival selects the arrival process driving every transaction-type
	// stream (Poisson, MMPP bursty, diurnal, spike). The zero value is the
	// classic Poisson process of the paper's evaluation. Window-relative
	// parameters (spike offsets) are anchored at the end of warm-up.
	Arrival workload.ArrivalSpec `json:"-"`

	// --- run control ---
	WarmupMS  float64 `json:"warmupMS"`  // simulated warm-up excluded from measurements
	MeasureMS float64 `json:"measureMS"` // measured window
	// MaxQueue caps the transaction input queue; arrivals beyond it are
	// dropped and the run flagged Saturated (an open system under overload
	// would otherwise queue unboundedly).
	MaxQueue int `json:"-"`
}

// Validate checks the configuration for consistency.
func (c *Config) Validate() error {
	switch {
	case c.MPL <= 0:
		return fmt.Errorf("core: MPL = %d", c.MPL)
	case c.NumCPU <= 0:
		return fmt.Errorf("core: NumCPU = %d", c.NumCPU)
	case c.MIPS <= 0:
		return fmt.Errorf("core: MIPS = %v", c.MIPS)
	case c.InstrBOT < 0 || c.InstrOR < 0 || c.InstrEOT < 0 || c.InstrIO < 0 || c.InstrNVEM < 0:
		return fmt.Errorf("core: negative instruction count")
	case len(c.Partitions) == 0:
		return fmt.Errorf("core: no partitions")
	case c.Generator == nil:
		return fmt.Errorf("core: no workload generator")
	case len(c.CCModes) != len(c.Partitions):
		return fmt.Errorf("core: %d CC modes for %d partitions", len(c.CCModes), len(c.Partitions))
	case c.MeasureMS <= 0:
		return fmt.Errorf("core: MeasureMS = %v", c.MeasureMS)
	case c.WarmupMS < 0:
		return fmt.Errorf("core: WarmupMS = %v", c.WarmupMS)
	case c.MaxQueue < 0:
		return fmt.Errorf("core: MaxQueue = %v", c.MaxQueue)
	}
	if err := c.Arrival.Validate(); err != nil {
		return err
	}
	names := make([]string, len(c.Partitions))
	for i := range c.Partitions {
		names[i] = c.Partitions[i].Name
	}
	if err := c.Buffer.Validate(names, len(c.DiskUnits)); err != nil {
		return err
	}
	for i := range c.DiskUnits {
		if err := c.DiskUnits[i].Validate(); err != nil {
			return err
		}
	}
	if c.Buffer.UsesNVEM() {
		if c.NVEMServers <= 0 {
			return fmt.Errorf("core: NVEM used but NVEMServers = %d", c.NVEMServers)
		}
		if c.NVEMDelay < 0 {
			return fmt.Errorf("core: NVEMDelay = %v", c.NVEMDelay)
		}
	}
	return nil
}

// Defaults returns the CM and device parameter settings of Table 4.1 with
// no partitions, devices or generator; experiment builders fill those in.
func Defaults() Config {
	return Config{
		Seed:        1,
		MPL:         200,
		InstrBOT:    40_000,
		InstrOR:     40_000,
		InstrEOT:    50_000,
		NumCPU:      4,
		MIPS:        50,
		InstrIO:     3_000,
		InstrNVEM:   300,
		NVEMServers: 1,
		NVEMDelay:   0.05, // 50 microseconds per 4KB page
		WarmupMS:    5_000,
		MeasureMS:   30_000,
		MaxQueue:    10_000,
	}
}

// Standard device delays of Table 4.1 (milliseconds).
const (
	DefaultContrDelay  = 1.0
	DefaultTransDelay  = 0.4
	DefaultDBDiskDelay = 15.0
	// Log disks are sequentially accessed, shortening seeks (section 4.1).
	DefaultLogDiskDelay = 5.0
)
