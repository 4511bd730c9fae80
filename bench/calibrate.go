package main

import "time"

// calNominal is calibrator.measure's median duration on the record machine
// (a 2-vCPU Xeon VM, Go 1.24). Host times are reported rescaled by
// calNominal over the calibration measured around them: in milliseconds of
// the record machine at its usual speed.
const calNominal = 2400 * time.Microsecond

// calibrator times a fixed loop that shares no code with the simulator.
// On a shared host the speed of a vCPU drifts by tens of percent within
// minutes; timing the loop between ops and dividing op times by it removes
// most of that drift from the reported metrics.
type calibrator struct {
	table []uint32
	sink  uint64
}

func newCalibrator() *calibrator { return &calibrator{table: make([]uint32, 1<<20)} }

// measure runs the loop once and returns its duration. About four fifths
// of it is integer arithmetic and one fifth random accesses to a 4 MiB
// table, so it slows down with the host roughly as the simulator's own mix
// of event logic and cache misses does.
func (c *calibrator) measure() time.Duration {
	start := time.Now()
	x, sum := uint64(88172645463325252), uint64(0)
	for i := 0; i < 580_000; i++ {
		x ^= x << 13
		x ^= x >> 7
		x ^= x << 17
		sum += x % 1000003
	}
	y := uint32(2463534242)
	for i := 0; i < 53_000; i++ {
		y ^= y << 13
		y ^= y >> 17
		y ^= y << 5
		j := y & uint32(len(c.table)-1)
		sum += uint64(c.table[j])
		c.table[j] = uint32(sum) ^ y
	}
	c.sink += sum
	return time.Since(start)
}
