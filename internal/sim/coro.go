package sim

import "iter"

// WakeReason tells a parked coroutine why it resumed.
type WakeReason int

const (
	// WakeTimeout means the park's deadline expired.
	WakeTimeout WakeReason = iota
	// WakeSignal means another simulation actor woke the coroutine
	// explicitly (interrupt, futex wake, message arrival, ...).
	WakeSignal
)

func (r WakeReason) String() string {
	if r == WakeTimeout {
		return "timeout"
	}
	return "signal"
}

// coroKilled is the sentinel panic value used to unwind a coroutine during
// Engine.Shutdown.
type coroKilled struct{}

// Coro is a cooperative simulated thread of execution, built on iter.Pull:
// its body is the sequence, the engine dispatches it with next, it parks
// with yield, and Shutdown kills it with stop. Control passes through the
// runtime's direct coroutine switch, never the Go scheduler, and exactly
// one simulation context (event callback or coroutine) runs at a time:
// every resume flows through the event queue and every park hands control
// back to the engine synchronously. A panic in a coroutine propagates out
// of the Engine.Step (or Run) that dispatched it.
//
// Coro methods must only be called from simulation context.
type Coro struct {
	eng   *Engine
	name  string
	next  func() (struct{}, bool)
	stop  func()
	yield func(struct{}) bool

	reason  WakeReason // why the coroutine was last dispatched
	parked  bool       // currently parked awaiting resume
	wakeGen uint64     // invalidates in-flight timeout events after a signal wake
	pending bool       // a signal arrived while the coroutine was running
	done    bool       // finished, panicked or killed
}

// Go starts fn as a new coroutine named name. The coroutine begins running
// at the current cycle, after already-queued events at this cycle.
func (e *Engine) Go(name string, fn func(c *Coro)) *Coro {
	c := &Coro{eng: e, name: name, parked: true}
	c.next, c.stop = iter.Pull(func(yield func(struct{}) bool) {
		c.yield = yield
		defer func() {
			c.done = true
			if r := recover(); r != nil {
				if _, ok := r.(coroKilled); !ok {
					panic(r)
				}
			}
		}()
		fn(c)
	})
	e.coros = append(e.coros, c)
	e.atCoro(e.now, c, 0, WakeSignal)
	return c
}

// Name returns the coroutine's debug name.
func (c *Coro) Name() string { return c.name }

// Done reports whether the coroutine has finished: its function returned
// or panicked, or Shutdown killed it.
func (c *Coro) Done() bool { return c.done }

// Engine returns the engine this coroutine runs on.
func (c *Coro) Engine() *Engine { return c.eng }

// Now returns the current simulation time.
func (c *Coro) Now() Cycles { return c.eng.Now() }

// resume runs a resume event scheduled under wake generation gen. Gen 0
// is the initial dispatch, which runs unless the coroutine was killed;
// any other generation is stale once the coroutine was woken or re-parked
// since.
func (c *Coro) resume(gen uint64, reason WakeReason) {
	if c.done || gen != 0 && (c.wakeGen != gen || !c.parked) {
		return
	}
	c.parked = false
	c.reason = reason
	c.next()
}

// park yields control to the engine until the next dispatch and returns
// its wake reason. A kill makes yield report false and unwinds the
// coroutine.
func (c *Coro) park() WakeReason {
	c.parked = true
	if !c.yield(struct{}{}) {
		panic(coroKilled{})
	}
	return c.reason
}

// Sleep advances this coroutine's time by d cycles. Other simulation
// activity proceeds during the sleep. Signals (Wake) arriving during the
// sleep are absorbed: every blocking construct in the simulator rechecks
// its state after waking, so a swallowed signal cannot lose information —
// it only means the state it advertised is already visible.
func (c *Coro) Sleep(d Cycles) {
	deadline := c.eng.Now() + d
	for {
		now := c.eng.Now()
		if now >= deadline {
			return
		}
		c.pending = false // absorb any signal posted while running
		if c.Park(deadline-now) == WakeTimeout {
			return
		}
	}
}

// Park blocks the coroutine until either an explicit Wake (WakeSignal) or
// the timeout elapses (WakeTimeout). A timeout of Forever (or greater)
// means no deadline. If a signal was posted with Wake while the coroutine
// was still running, Park consumes it and returns immediately.
func (c *Coro) Park(timeout Cycles) WakeReason {
	if c.pending {
		c.pending = false
		return WakeSignal
	}
	c.wakeGen++
	if timeout < Forever {
		c.eng.atCoro(c.eng.Now()+timeout, c, c.wakeGen, WakeTimeout)
	}
	return c.park()
}

// Wake delivers a signal to the coroutine. If it is parked it resumes (via
// the event queue, preserving deterministic ordering) with WakeSignal; if
// it is currently running, the signal is remembered and consumed by its
// next Park. Waking a finished coroutine is a no-op. Multiple wakes before
// the coroutine parks collapse into one.
func (c *Coro) Wake() {
	if c.done {
		return
	}
	if !c.parked {
		c.pending = true
		return
	}
	c.wakeGen++ // invalidate any in-flight timeout
	c.eng.atCoro(c.eng.Now(), c, c.wakeGen, WakeSignal)
}

// kill unwinds the coroutine if it has not finished; one killed before its
// first dispatch never runs its function. Called only from Engine.Shutdown
// (outside simulation context, with the engine idle).
func (c *Coro) kill() {
	if c.done {
		return
	}
	c.done = true
	c.stop()
}
