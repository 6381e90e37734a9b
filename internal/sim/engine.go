package sim

import (
	"fmt"
	"sync"
)

// event is a single scheduled callback, or a coroutine resume when coro is
// set: the resume form carries its wake generation and reason, so parking
// and waking schedule no closure.
type event struct {
	at     Cycles
	seq    uint64 // tie-breaker: FIFO among events at the same cycle
	next   *event // the timer wheel's bucket list link
	fn     func()
	coro   *Coro
	gen    uint64
	reason WakeReason
}

// Engine is a deterministic discrete-event simulator. All state mutation in
// a simulation happens either inside event callbacks or inside coroutines
// resumed by event callbacks; the engine guarantees that exactly one of
// these runs at a time and that their order depends only on (time, schedule
// order), never on the Go runtime scheduler.
//
// The engine checks that order itself, on every event: Step panics unless
// the popped (at, seq) is strictly greater than the last one popped, and
// the queue may run dry only once every scheduled event has been popped.
// Every push carries a fresh seq at or after now, so a pop sequence that
// passes both checks is exactly the order of a (at, seq) min-heap.
type Engine struct {
	now    Cycles
	seq    uint64 // events scheduled so far; the last one carries seq
	popped uint64 // events popped so far: Pending is seq - popped
	last   uint64 // seq of the last popped event, which ran at now
	wheel  *wheelSched
	coros  []*Coro // all coroutines ever started, for shutdown
	trace  *Trace

	// free recycles event structs: the simulation's hot path schedules
	// millions of events, and pooling them leaves the per-schedule cost
	// at the callback closure alone (none for a coroutine resume).
	free []*event

	// stepping guards against event-queue mutation racing a running
	// coroutine: engine methods may only be called from simulation context,
	// and Shutdown only from outside it.
	stepping bool

	// advance, when set, is called each time Step moves the clock
	// forward, before the event at the new time dispatches. Observability
	// layers hang periodic samplers here instead of scheduling events of
	// their own: a self-rescheduling sampler event would keep Pending
	// nonzero forever and perturb every run-until-idle loop. The hook
	// must only observe — it runs outside any coroutine and must not
	// schedule events, sleep, or mutate simulation state.
	advance func(prev, now Cycles)
}

// wheelPool recycles the timer wheels of shut-down engines: a wheel is
// 8 KB of bucket heads, and every drained job builds an engine. Shutdown
// resets a wheel before it goes back, so a pooled wheel is a new one.
var wheelPool = sync.Pool{New: func() any { return new(wheelSched) }}

// NewEngine returns an engine at cycle 0 with an empty event queue.
func NewEngine() *Engine {
	return &Engine{trace: NewTrace(), wheel: wheelPool.Get().(*wheelSched)}
}

// Now returns the current simulation time.
func (e *Engine) Now() Cycles { return e.now }

// Trace returns the engine's trace recorder.
func (e *Engine) Trace() *Trace { return e.trace }

// At schedules fn to run at absolute cycle t. Scheduling in the past is an
// error in simulation logic and panics.
func (e *Engine) At(t Cycles, fn func()) {
	ev := e.newEvent(t)
	ev.fn = fn
	e.wheel.push(ev)
}

// atCoro schedules a resume of c at absolute cycle t under wake
// generation gen (see Coro.resume).
func (e *Engine) atCoro(t Cycles, c *Coro, gen uint64, reason WakeReason) {
	ev := e.newEvent(t)
	ev.coro, ev.gen, ev.reason = c, gen, reason
	e.wheel.push(ev)
}

// newEvent takes an event from the free list, stamped with time t and
// the next sequence number.
func (e *Engine) newEvent(t Cycles) *event {
	if t < e.now {
		panic(fmt.Sprintf("sim: scheduling event at %d before now %d", t, e.now))
	}
	e.seq++
	var ev *event
	if n := len(e.free); n > 0 {
		ev = e.free[n-1]
		e.free[n-1] = nil
		e.free = e.free[:n-1]
	} else {
		ev = new(event)
	}
	ev.at, ev.seq = t, e.seq
	return ev
}

// After schedules fn to run d cycles from now.
func (e *Engine) After(d Cycles, fn func()) { e.At(e.now+d, fn) }

// SetAdvanceHook installs fn as the clock-advance observer (nil clears
// it); see the field comment for the contract.
func (e *Engine) SetAdvanceHook(fn func(prev, now Cycles)) { e.advance = fn }

// Step runs the next pending event. It reports false when the queue is
// empty. A panic in the event, or in a coroutine it resumes, propagates
// to the caller with the engine idle again. Step panics if the queue
// hands it an event out of (at, seq) order, or runs dry while events it
// was given are still unpopped.
func (e *Engine) Step() bool {
	ev := e.wheel.pop()
	if ev == nil {
		if e.popped != e.seq {
			panic(fmt.Sprintf("sim: event queue ran dry with %d of %d events unpopped", e.seq-e.popped, e.seq))
		}
		return false
	}
	if ev.at < e.now || ev.at == e.now && ev.seq <= e.last {
		panic(fmt.Sprintf("sim: event queue popped (%d, %d) after (%d, %d)", ev.at, ev.seq, e.now, e.last))
	}
	e.popped++
	e.last = ev.seq
	if e.advance != nil && ev.at > e.now {
		prev := e.now
		e.now = ev.at
		e.advance(prev, ev.at)
	} else {
		e.now = ev.at
	}
	fn, c, gen, reason := ev.fn, ev.coro, ev.gen, ev.reason
	ev.fn, ev.coro = nil, nil
	e.free = append(e.free, ev)
	e.stepping = true
	defer func() { e.stepping = false }()
	if c != nil {
		c.resume(gen, reason)
	} else {
		fn()
	}
	return true
}

// Run executes events until the queue is empty or the next event lies
// beyond the limit. It returns the number of events executed. Run panics
// if it stops with a pending event before now, or with the queue
// reporting empty while events are still unpopped.
func (e *Engine) Run(limit Cycles) int {
	n := 0
	for {
		t, ok := e.wheel.peek()
		if !ok || t > limit {
			if ok && t < e.now || !ok && e.popped != e.seq {
				panic(fmt.Sprintf("sim: Run stopped at %d with %d of %d events unpopped and the queue's earliest at %d", e.now, e.seq-e.popped, e.seq, t))
			}
			return n
		}
		e.Step()
		n++
	}
}

// RunUntilIdle executes events until no events remain. Coroutines parked
// without a pending wake are not counted as work; a deadlocked simulation
// simply stops. It returns the number of events executed.
func (e *Engine) RunUntilIdle() int {
	n := 0
	for e.Step() {
		n++
	}
	return n
}

// Pending reports the number of queued events: none once shut down.
func (e *Engine) Pending() int { return int(e.seq - e.popped) }

// Shutdown kills every live coroutine so their goroutines exit; one that
// was never dispatched never runs. The engine's timer wheel goes back to
// the pool with its pending events dropped and the engine keeps no queue:
// Pending reports zero, and scheduling or stepping panics on the nil wheel
// instead of touching a wheel another engine may own. Calling Shutdown
// again is harmless.
//
// Contract: Shutdown is only legal on an idle engine, from host code —
// never from inside an event callback or coroutine. A coroutine cannot
// unwind itself synchronously, and tearing the queue down mid-step would
// corrupt the dispatch in flight; instead of silently corrupting state,
// calling Shutdown from simulation context panics. Let the run finish (or
// stop driving the engine) and shut down from the outside.
func (e *Engine) Shutdown() {
	if e.stepping {
		panic("sim: Engine.Shutdown called from inside an event or coroutine; Shutdown is only legal on an idle engine from host code")
	}
	for _, c := range e.coros {
		c.kill()
	}
	e.coros = nil
	if e.wheel != nil {
		e.wheel.reset()
		wheelPool.Put(e.wheel)
	}
	e.wheel = nil
	e.popped = e.seq
	e.free = nil
}
