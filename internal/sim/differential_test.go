package sim

import (
	"container/heap"
	"fmt"
	"testing"
)

// The queue differential: the engine's one queue, the timer wheel, is
// driven in lockstep with a reference binary heap over seeded scripts of
// push/pop/peek operations, and every popped (at, seq), every peek and
// every length must agree. The engine's own order check (see Engine) then
// carries that contract into every real run.

// queue is the test-local view of a pending-event queue, which the wheel
// and the reference heap both implement.
type queue interface {
	push(*event)
	pop() *event
	peek() (Cycles, bool)
	len() int
}

// heapSched is the reference queue: a binary heap ordered by (at, seq).
type heapSched struct{ h eventHeap }

func (s *heapSched) push(ev *event) { heap.Push(&s.h, ev) }

func (s *heapSched) pop() *event {
	if len(s.h) == 0 {
		return nil
	}
	return heap.Pop(&s.h).(*event)
}

func (s *heapSched) peek() (Cycles, bool) {
	if len(s.h) == 0 {
		return 0, false
	}
	return s.h[0].at, true
}

func (s *heapSched) len() int { return len(s.h) }

func (w *wheelSched) len() int { return w.inWheel + len(w.over) }

// lockstep drives the wheel and the reference heap through one script.
// It keeps the engine's contract — every push carries a fresh seq at or
// after the last popped time — and compares both queues after every
// operation.
type lockstep struct {
	t     *testing.T
	label string
	wheel queue
	ref   queue
	now   Cycles
	seq   uint64
	ops   int
	far   []Cycles // beyond-horizon times pushed so far, for ties
}

func newLockstep(t *testing.T, label string) *lockstep {
	return &lockstep{t: t, label: label, wheel: new(wheelSched), ref: new(heapSched)}
}

// push schedules one event at absolute cycle at on both queues.
func (l *lockstep) push(at Cycles) {
	if at < l.now {
		l.t.Fatalf("%s: script pushes %d before now %d", l.label, at, l.now)
	}
	l.seq++
	l.wheel.push(&event{at: at, seq: l.seq})
	l.ref.push(&event{at: at, seq: l.seq})
	if at-l.now >= 1<<32 {
		l.far = append(l.far, at)
	}
	l.check("push")
}

func (l *lockstep) after(d Cycles) { l.push(l.now + d) }

// pop pops both queues and reports whether an event came out.
func (l *lockstep) pop() bool {
	got, want := l.wheel.pop(), l.ref.pop()
	if (got == nil) != (want == nil) {
		l.t.Fatalf("%s: op %d: wheel popped %v, heap popped %v", l.label, l.ops, got, want)
	}
	if got == nil {
		l.check("empty pop")
		return false
	}
	if got.at != want.at || got.seq != want.seq {
		l.t.Fatalf("%s: op %d: wheel popped (%d, %d), heap popped (%d, %d)",
			l.label, l.ops, got.at, got.seq, want.at, want.seq)
	}
	l.now = got.at
	l.check("pop")
	return true
}

// check compares the queues' peeks and lengths after one operation.
func (l *lockstep) check(op string) {
	l.t.Helper()
	l.ops++
	gt, gok := l.wheel.peek()
	wt, wok := l.ref.peek()
	if gt != wt || gok != wok {
		l.t.Fatalf("%s: op %d (%s): wheel peeks (%d, %v), heap (%d, %v)",
			l.label, l.ops, op, gt, gok, wt, wok)
	}
	if g, w := l.wheel.len(), l.ref.len(); g != w {
		l.t.Fatalf("%s: op %d (%s): wheel holds %d events, heap %d", l.label, l.ops, op, g, w)
	}
}

// runTo pops every event at or before limit, as Engine.Run does.
func (l *lockstep) runTo(limit Cycles) {
	for {
		if t, ok := l.ref.peek(); !ok || t > limit {
			return
		}
		l.pop()
	}
}

func (l *lockstep) drain() {
	for l.pop() {
	}
}

// tie pushes a wheel-resident event at a cycle an overflow-resident event
// already waits for: a random one of the beyond-horizon times pushed so
// far that now lies within the horizon.
func (l *lockstep) tie(rng *RNG) {
	var near []Cycles
	for _, at := range l.far {
		if at >= l.now && at-l.now < 1<<32 {
			near = append(near, at)
		}
	}
	if len(near) > 0 {
		l.push(near[rng.Intn(len(near))])
	}
}

// randomDelay draws a delay from every range the wheel treats apart: the
// current cycle, dense offsets, levels 0-2, level 3 and the overflow
// horizon.
func randomDelay(rng *RNG) Cycles {
	switch rng.Intn(10) {
	case 0:
		return 0
	case 1, 2, 3:
		return Cycles(rng.Intn(4))
	case 4, 5, 6:
		return Cycles(rng.Intn(100_000))
	case 7, 8:
		return Cycles(rng.Intn(1 << 30))
	default:
		return Cycles(1)<<32 + Cycles(rng.Intn(1<<30))
	}
}

// scriptEvents is the pure-event script: a standing population, a 64-event
// burst at one instant, and on every pop zero-delay chains, fresh events
// at random delays, same-cycle bursts and overflow/wheel ties.
func scriptEvents(l *lockstep, rng *RNG) {
	for i := 0; i < 40; i++ {
		l.after(randomDelay(rng))
	}
	for i := 0; i < 64; i++ {
		l.push(500)
	}
	for n := 0; n < 4000 && l.pop(); n++ {
		switch rng.Intn(8) {
		case 0:
			for i := rng.Intn(4); i >= 0; i-- {
				l.after(0)
			}
		case 1, 2, 3:
			l.after(randomDelay(rng))
			if rng.Intn(4) == 0 {
				l.after(randomDelay(rng))
			}
		case 4:
			at := l.now + Cycles(rng.Intn(4))
			for i := 8 + rng.Intn(24); i > 0; i-- {
				l.push(at)
			}
		case 5:
			l.tie(rng)
		}
	}
	l.drain()
}

// scriptCoros mirrors the queue traffic of coroutines: eight workers, each
// popped resume sleeping, parking with a timeout, or waking another
// worker at the current cycle — and every wake leaves the woken worker's
// timeout behind as a stale event, as a Park timeout superseded by a Wake
// does.
func scriptCoros(l *lockstep, rng *RNG) {
	for i := 0; i < 8; i++ {
		l.after(0)
	}
	for n := 0; n < 3000 && l.pop(); n++ {
		switch rng.Intn(4) {
		case 0:
			l.after(1 + rng.Cycles(2000))
		case 1:
			l.after(1 + rng.Cycles(500))
		case 2:
			l.after(0)
			l.after(1 + rng.Cycles(50))
		default:
			l.after(rng.Cycles(5))
		}
	}
	l.drain()
}

// scriptSegmented schedules a scattered population, a share of it beyond
// the horizon, and drains it through Run-style limit windows, so every
// window boundary is a peek.
func scriptSegmented(l *lockstep, rng *RNG) {
	for i := 0; i < 300; i++ {
		d := Cycles(rng.Intn(1_000_000))
		if i%17 == 0 {
			d = Cycles(1)<<33 + Cycles(rng.Intn(1000))
		}
		l.push(d)
	}
	limit := Cycles(0)
	for l.ref.len() > 0 {
		limit += 1 + Cycles(rng.Intn(50_000_000))
		l.runTo(limit)
		if rng.Intn(3) == 0 {
			l.after(randomDelay(rng))
			l.tie(rng)
		}
	}
	l.drain()
}

// TestDifferentialSchedulers is the queue substitution proof: seeded
// scripts replayed on the timer wheel and the reference heap in lockstep
// must pop the same (at, seq) sequence, peek the same next time and hold
// the same number of events after every operation.
func TestDifferentialSchedulers(t *testing.T) {
	scripts := []struct {
		name string
		run  func(*lockstep, *RNG)
	}{
		{"events", scriptEvents},
		{"coros", scriptCoros},
		{"segmented", scriptSegmented},
	}
	for _, s := range scripts {
		s := s
		t.Run(s.name, func(t *testing.T) {
			for seed := uint64(1); seed <= 12; seed++ {
				l := newLockstep(t, fmt.Sprintf("%s seed %d", s.name, seed))
				s.run(l, NewRNG(seed))
				if l.ref.len() != 0 {
					t.Fatalf("%s: script left %d events", l.label, l.ref.len())
				}
			}
		})
	}
}

// TestDifferentialOverflowTieFIFO pins the subtlest ordering case: an
// event scheduled beyond the wheel horizon (overflow-resident) and an
// event scheduled later for the same cycle (wheel-resident) must run in
// seq order — overflow first.
func TestDifferentialOverflowTieFIFO(t *testing.T) {
	// target-1000 and target differ below bit 32, so the second event
	// lands in the wheel once the clock reaches target-1000.
	target := Cycles(1)<<33 + 1<<20 + 17
	e := NewEngine()
	defer e.Shutdown()
	var order []string
	e.At(target, func() { order = append(order, "far") }) // seq 1, beyond horizon
	e.At(target-1000, func() {
		// Scheduled close to the target: wheel-resident.
		e.At(target, func() { order = append(order, "near") })
	})
	e.RunUntilIdle()
	if len(order) != 2 || order[0] != "far" || order[1] != "near" {
		t.Fatalf("same-cycle overflow/wheel tie out of seq order: %v", order)
	}
}

// TestDifferentialHorizonSweep walks event deltas across every wheel
// level boundary (and the overflow horizon), from wheel times that sit
// just below, on and just above digit boundaries, to catch off-by-one
// classification and cascade errors.
func TestDifferentialHorizonSweep(t *testing.T) {
	deltas := []Cycles{0, 1, 255, 256, 257, 65_535, 65_536, 65_537,
		1<<24 - 1, 1 << 24, 1<<24 + 1, 1<<32 - 1, 1 << 32, 1<<32 + 1, 1 << 40}
	l := newLockstep(t, "horizon sweep")
	for round := Cycles(0); round < 3; round++ {
		for _, d := range deltas {
			l.push(round*7919 + d)
		}
	}
	l.drain()
	for _, base := range []Cycles{255, 256, 65_535, 65_536, 1<<24 - 1, 1 << 24, 1<<32 - 1, 1 << 32} {
		l.push(l.now + base)
		l.pop()
		for _, d := range deltas {
			l.after(d)
		}
		// Pop half, so the rest cascades from a time off the boundary.
		for i := 0; i < len(deltas)/2; i++ {
			l.pop()
		}
		for _, d := range deltas {
			l.after(d)
		}
		l.drain()
	}
}
