// This file is a sanctioned concurrency seam: the PDES window barrier.
// It spawns the persistent worker pool and synchronizes it with atomics
// and park/wake channels. Determinism is proven by the worker-count
// invariance tests in pdes_test.go (every kernel runs on exactly one
// goroutine per window; cross-node state moves only at barriers).
//
//detlint:allow rawgo persistent PDES worker pool; kernels are claimed exclusively per window and the coordinator observes quiescence before touching cross-node state (TestPDESWorkerCountInvariant)
package core

import (
	"runtime"
	"sync/atomic"

	"repro/internal/sim"
)

// pdesBarrier is the low-overhead window barrier of the parallel engine:
// a persistent pool of workers that advance the window's busy kernels to
// its horizon, synchronized by an epoch counter instead of per-window
// channel round trips.
//
// The coordinator publishes a window by storing its busy kernels,
// resetting the claim counter and bumping the epoch; workers observe the
// new epoch (spinning briefly, then parking), dynamically claim kernels
// off the shared atomic counter, and the last one out wakes the
// coordinator. Only the kernels with an event in the window are claimed:
// the coordinator has already landed the idle ones on the horizon.
// Dynamic claiming lets a worker that drew a light kernel take the next
// one instead of idling behind a heavy one — legal because each kernel is
// still run by exactly one goroutine per window, and the window schedule
// itself never depends on which goroutine ran which kernel.
//
// Parking uses the Dekker pattern: a worker flags itself parked, re-checks
// the epoch, and only then blocks on its wake channel; the coordinator
// bumps the epoch first and only then wakes flagged workers. Either the
// worker sees the new epoch on its re-check, or the coordinator sees the
// flag and sends a token the buffered channel cannot lose. Stale tokens
// (worker unparked itself on the re-check) are absorbed by re-checking the
// epoch after every receive.
//
// Memory ordering: kernel state written during window n is published to
// window n+1's (possibly different) claimer through the release/acquire
// chain live.Add(-1) → live.Load → epoch.Add → epoch.Load.
type pdesBarrier struct {
	// kernels and window are the busy kernels and the horizon of the
	// published window; written by the coordinator strictly before the
	// epoch bump that publishes them.
	kernels []*sim.Sim
	window  sim.Time
	// quit is set (before the final epoch bump) to shut the pool down.
	quit    bool
	stopped bool

	epoch atomic.Uint64 // bumped once per window (and once to stop)
	claim atomic.Int64  // next kernel index to claim in this window
	live  atomic.Int64  // claimers still draining the current window

	// spinRounds bounds the yield-spin before a goroutine parks. Zero on
	// a single-CPU runtime: spinning there only steals the core from the
	// goroutine being waited on.
	spinRounds int

	parked []atomic.Bool   // parked[j]: worker j is (about to be) blocked
	wake   []chan struct{} // buffered(1) wake tokens, one per worker

	coordParked atomic.Bool
	coordWake   chan struct{}
}

// newPDESBarrier starts workers-1 pool goroutines; the coordinator itself
// is the remaining claimer, so `workers` goroutines drain every window.
func newPDESBarrier(workers int) *pdesBarrier {
	b := &pdesBarrier{
		parked:    make([]atomic.Bool, workers-1),
		wake:      make([]chan struct{}, workers-1),
		coordWake: make(chan struct{}, 1),
	}
	if runtime.GOMAXPROCS(0) > 1 {
		b.spinRounds = 64
	}
	for j := range b.wake {
		b.wake[j] = make(chan struct{}, 1)
		go b.worker(j)
	}
	return b
}

// runWindow advances kernels to w using the whole pool, returning once
// all of them sit exactly at w.
func (b *pdesBarrier) runWindow(w sim.Time, kernels []*sim.Sim) {
	b.kernels, b.window = kernels, w
	b.claim.Store(0)
	b.live.Store(int64(len(b.wake)) + 1)
	b.epoch.Add(1)
	b.wakeWorkers()
	b.drain(w)
	if b.live.Add(-1) > 0 {
		b.awaitIdle()
	}
}

// drain claims kernels off the shared counter until none remain.
func (b *pdesBarrier) drain(w sim.Time) {
	for {
		i := int(b.claim.Add(1)) - 1
		if i >= len(b.kernels) {
			return
		}
		b.kernels[i].Run(w)
	}
}

// stop shuts the pool down (idempotent). Workers observe the epoch bump,
// see quit, and exit.
func (b *pdesBarrier) stop() {
	if b.stopped {
		return
	}
	b.stopped = true
	b.quit = true
	b.epoch.Add(1)
	b.wakeWorkers()
}

// wakeWorkers sends a token to every worker flagged parked. The buffered
// channel makes the send non-blocking and lossless: a full buffer means a
// token is already waiting.
func (b *pdesBarrier) wakeWorkers() {
	for j := range b.parked {
		if b.parked[j].Load() {
			select {
			case b.wake[j] <- struct{}{}:
			default:
			}
		}
	}
}

// worker is one pool goroutine: await the next epoch, drain the window,
// and wake the coordinator when last out.
func (b *pdesBarrier) worker(j int) {
	var seen uint64
	for {
		seen = b.awaitEpoch(j, seen)
		if b.quit {
			return
		}
		b.drain(b.window)
		if b.live.Add(-1) == 0 && b.coordParked.Load() {
			select {
			case b.coordWake <- struct{}{}:
			default:
			}
		}
	}
}

// awaitEpoch blocks worker j until the epoch moves past seen, spinning
// briefly before parking.
func (b *pdesBarrier) awaitEpoch(j int, seen uint64) uint64 {
	for {
		for s := 0; s <= b.spinRounds; s++ {
			if e := b.epoch.Load(); e != seen {
				return e
			}
			if s < b.spinRounds {
				runtime.Gosched()
			}
		}
		b.parked[j].Store(true)
		if e := b.epoch.Load(); e != seen {
			b.parked[j].Store(false)
			return e
		}
		<-b.wake[j]
		b.parked[j].Store(false)
	}
}

// awaitIdle blocks the coordinator until every claimer has left the
// current window, spinning briefly before parking (symmetric to
// awaitEpoch, with live==0 as the wake condition).
func (b *pdesBarrier) awaitIdle() {
	for {
		for s := 0; s <= b.spinRounds; s++ {
			if b.live.Load() == 0 {
				return
			}
			if s < b.spinRounds {
				runtime.Gosched()
			}
		}
		b.coordParked.Store(true)
		if b.live.Load() == 0 {
			b.coordParked.Store(false)
			return
		}
		<-b.coordWake
		b.coordParked.Store(false)
	}
}
