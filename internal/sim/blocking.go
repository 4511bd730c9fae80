package sim

// BlockingProcess adapts the continuation kernel back to straight-line,
// blocking process bodies for code where continuation chaining is not worth
// the rewrite — primarily test drivers that script long sequences of device
// operations. It is the one place the old goroutine hand-off survives: the
// body runs on its own goroutine, and strict hand-off channels guarantee
// that exactly one of the kernel or the body executes at any instant, so
// determinism is preserved. None of the simulator's hot paths use it.
type BlockingProcess struct {
	s *Sim

	// Strict hand-off pair: toBody resumes the body goroutine, toKernel
	// returns control to the kernel. Both are unbuffered, so every transfer
	// is a synchronous rendezvous (and a happens-before edge for -race).
	toBody   chan struct{}
	toKernel chan struct{}
}

// SpawnBlocking starts body blocking-style on its own goroutine, after
// delay. The body must run to completion before the simulation is
// abandoned; a body suspended forever (e.g. awaiting a continuation that
// never fires) leaks its goroutine.
func (s *Sim) SpawnBlocking(delay Time, body func(b *BlockingProcess)) {
	b := &BlockingProcess{
		s:        s,
		toBody:   make(chan struct{}),
		toKernel: make(chan struct{}),
	}
	s.Schedule(delay, func() {
		//detlint:allow rawgo strict hand-off shim: unbuffered channel pair guarantees exactly one of kernel/body runs at any instant, so scheduling order cannot vary
		go func() {
			<-b.toBody
			body(b)
			b.toKernel <- struct{}{}
		}()
		b.resumeBody()
	})
}

// resumeBody hands control to the body goroutine and blocks the kernel until
// the body yields (parks in Await or finishes).
func (b *BlockingProcess) resumeBody() {
	b.toBody <- struct{}{}
	<-b.toKernel
}

// Now returns the current simulated time.
func (b *BlockingProcess) Now() Time { return b.s.now }

// Await runs one continuation-style operation and blocks the body until the
// operation's continuation fires. op must arrange for done to be called
// exactly once — either synchronously (no simulated delay) or from a later
// kernel event.
func (b *BlockingProcess) Await(op func(done func())) {
	sync, completed := true, false
	op(func() {
		if sync {
			// The operation completed without suspending; the body simply
			// continues.
			completed = true
			return
		}
		// Kernel context: the continuation fired in a later event. Hand
		// control back to the body until it yields again.
		b.resumeBody()
	})
	sync = false
	if completed {
		return
	}
	// The operation suspended: yield to the kernel and park until the
	// continuation resumes us.
	b.toKernel <- struct{}{}
	<-b.toBody
}

// Hold suspends the body for dt simulated time units.
func (b *BlockingProcess) Hold(dt Time) {
	b.Await(func(done func()) { b.s.Schedule(dt, done) })
}

// Use acquires a server of r, holds it for dt, and releases it.
func (b *BlockingProcess) Use(r *Resource, dt Time) {
	b.Await(func(done func()) { r.Use(dt, done) })
}
