package sim

import "fmt"

// Resource models a pool of identical servers with a FIFO wait queue —
// the building block for CPUs, disk controllers, disk arms and NVEM ports.
// A caller acquires one server, holds it for its service time, and releases
// it. Utilization and queueing statistics are integrated over time.
type Resource struct {
	sim      *Sim
	name     string
	capacity int

	busy  int
	queue []waiter // FIFO ring: live entries are queue[qhead:]
	qhead int

	// pend holds waiters whose wake event is already scheduled but has not
	// fired yet; wake (bound once at construction) pops the head. Wake
	// events fire in schedule order, so FIFO over pend matches FIFO over
	// the scheduled events and no per-wake closure is needed.
	pend     []waiter
	pendHead int
	wake     func()

	// Statistics cover [since, now]: since is the instant the resource was
	// created or its statistics were last reset.
	since      Time
	lastChange Time
	busyInt    float64 // ∫ busy dt
	queueInt   float64 // ∫ len(queue) dt
	acquires   int64
	waits      int64 // acquires that had to queue
	waitInt    float64
	peakQueue  int // max queue length
}

// waiter is one queued acquisition. A plain Acquire stores fire; a timed
// Use stores (k, dt) instead so the queued path needs no wrapper closure —
// on wake the kernel schedules k at +dt with the release riding the event.
type waiter struct {
	fire  func() // Acquire continuation; nil for Use waiters
	k     func() // Use completion
	dt    Time   // Use service time
	start Time
}

// NewResource creates a resource with the given number of servers.
func (s *Sim) NewResource(name string, capacity int) *Resource {
	if capacity <= 0 {
		panic(fmt.Sprintf("sim: resource %q capacity %d", name, capacity))
	}
	r := &Resource{sim: s, name: name, capacity: capacity, since: s.now, lastChange: s.now}
	r.wake = r.fireWake
	return r
}

// Capacity returns the number of servers.
func (r *Resource) Capacity() int { return r.capacity }

// Busy returns the number of servers currently held.
func (r *Resource) Busy() int { return r.busy }

// QueueLen returns the number of continuations waiting.
func (r *Resource) QueueLen() int { return len(r.queue) - r.qhead }

func (r *Resource) integrate() {
	dt := r.sim.now - r.lastChange
	if dt > 0 {
		r.busyInt += float64(r.busy) * dt
		r.queueInt += float64(len(r.queue)-r.qhead) * dt
		r.lastChange = r.sim.now
	}
}

// push appends one waiter to the FIFO ring, compacting spent head slots so
// the backing array is reused instead of regrown.
func (r *Resource) push(w waiter) {
	if r.qhead > 0 && len(r.queue) == cap(r.queue) {
		n := copy(r.queue, r.queue[r.qhead:])
		for i := n; i < len(r.queue); i++ {
			r.queue[i] = waiter{}
		}
		r.queue = r.queue[:n]
		r.qhead = 0
	}
	r.queue = append(r.queue, w)
	if q := len(r.queue) - r.qhead; q > r.peakQueue {
		r.peakQueue = q
	}
}

// pop removes and returns the FIFO head; the queue must be non-empty.
func (r *Resource) pop() waiter {
	w := r.queue[r.qhead]
	r.queue[r.qhead] = waiter{}
	r.qhead++
	if r.qhead == len(r.queue) {
		r.queue = r.queue[:0]
		r.qhead = 0
	}
	return w
}

// fireWake is the single pre-bound wake continuation: it consumes the
// oldest pending waiter and hands it the server slot transferred by the
// Release that scheduled this event.
func (r *Resource) fireWake() {
	next := r.pend[r.pendHead]
	r.pend[r.pendHead] = waiter{}
	r.pendHead++
	if r.pendHead == len(r.pend) {
		r.pend = r.pend[:0]
		r.pendHead = 0
	}
	r.waitInt += r.sim.now - next.start
	if next.fire != nil {
		next.fire()
		return
	}
	r.sim.scheduleRelease(r, next.dt, next.k)
}

// Acquire obtains one server. If a server is free and nobody queues ahead,
// k runs immediately (in the caller's event); otherwise the request queues
// FCFS and k runs when Release transfers a server slot. The holder must
// call Release.
func (r *Resource) Acquire(k func()) {
	r.integrate()
	r.acquires++
	if r.busy < r.capacity && r.QueueLen() == 0 {
		r.busy++
		k()
		return
	}
	r.waits++
	r.push(waiter{fire: k, start: r.sim.now})
}

// Release frees one server. If requests are waiting, the head of the queue
// inherits the server slot and its continuation is scheduled immediately.
func (r *Resource) Release() {
	r.integrate()
	if r.busy == 0 {
		panic(fmt.Sprintf("sim: release of idle resource %q", r.name))
	}
	if r.QueueLen() > 0 {
		// busy stays unchanged: the slot passes straight to the head
		// waiter, parked on pend until the pre-bound wake event fires.
		r.pend = append(r.pend, r.pop())
		r.sim.Schedule(0, r.wake)
		return
	}
	r.busy--
}

// Use acquires a server, holds it for service time dt, releases it, and then
// runs k. The uncontended path allocates nothing: the release rides on the
// scheduled event itself.
func (r *Resource) Use(dt Time, k func()) {
	if !(dt >= 0) { // negative or NaN
		panic(fmt.Sprintf("sim: negative hold %v", dt))
	}
	r.integrate()
	r.acquires++
	if r.busy < r.capacity && r.QueueLen() == 0 {
		r.busy++
		r.sim.lower(r.sim.now + dt)
		r.sim.scheduleRelease(r, dt, k)
		return
	}
	r.waits++
	r.push(waiter{k: k, dt: dt, start: r.sim.now})
}

// ResetStats restarts every statistic at the current instant, so they
// cover a measurement window opened now: the integrals, the acquire and
// wait counts and the wait time start from zero, the peak from the
// current queue length, and Utilization and MeanQueueLen average from
// now on.
func (r *Resource) ResetStats() {
	r.integrate()
	r.since = r.sim.now
	r.busyInt, r.queueInt, r.waitInt = 0, 0, 0
	r.acquires, r.waits = 0, 0
	r.peakQueue = r.QueueLen()
}

// PeakQueueLen returns the maximum wait-queue length observed since the
// resource was created or its statistics were last reset.
func (r *Resource) PeakQueueLen() int { return r.peakQueue }

// BusyIntegral returns ∫ busy dt since the resource was created or its
// statistics were last reset.
func (r *Resource) BusyIntegral() float64 {
	r.integrate()
	return r.busyInt
}

// QueueIntegral returns ∫ len(queue) dt since the resource was created or
// its statistics were last reset (the closed-loop saturation rule reads
// it).
func (r *Resource) QueueIntegral() float64 {
	r.integrate()
	return r.queueInt
}

// Utilization returns the mean fraction of servers busy since the resource
// was created or its statistics were last reset.
func (r *Resource) Utilization() float64 {
	r.integrate()
	if r.sim.now <= r.since {
		return 0
	}
	return r.busyInt / (float64(r.capacity) * (r.sim.now - r.since))
}

// MeanQueueLen returns the time-averaged wait-queue length since the
// resource was created or its statistics were last reset.
func (r *Resource) MeanQueueLen() float64 {
	r.integrate()
	if r.sim.now <= r.since {
		return 0
	}
	return r.queueInt / (r.sim.now - r.since)
}

// Acquires returns the number of Acquire calls so far.
func (r *Resource) Acquires() int64 { return r.acquires }

// Waits returns the number of Acquire calls that had to queue.
func (r *Resource) Waits() int64 { return r.waits }

// MeanWait returns the average waiting time per Acquire (including zero
// waits).
func (r *Resource) MeanWait() Time {
	if r.acquires == 0 {
		return 0
	}
	return r.waitInt / float64(r.acquires)
}
