package sim

import (
	"container/heap"
	"fmt"
	"strings"
	"testing"
)

// The engine's order check: Step panics on a pop that is not strictly
// after the last one in (at, seq) order, and on a queue that runs dry with
// events unpopped; Run panics if it stops with a pending event before now.
// The workloads below run whole simulations under the armed check, and the
// break tests reach into the wheel to corrupt it and require the panic.

// runRandomEvents replays a seeded pure-event workload: bursts of
// same-cycle events, zero-delay chains, random offsets spanning every
// wheel level, and far-future events beyond the wheel horizon. It returns
// the events scheduled and the events run.
func runRandomEvents(e *Engine, seed uint64) (scheduled, ran int) {
	rng := NewRNG(seed)
	var schedule func(depth int)
	schedule = func(depth int) {
		scheduled++
		e.After(randomDelay(rng), func() {
			if depth > 0 && rng.Intn(3) > 0 {
				schedule(depth - 1)
				if rng.Intn(4) == 0 {
					schedule(depth - 1)
				}
			}
		})
	}
	for i := 0; i < 40; i++ {
		schedule(6)
	}
	for i := 0; i < 64; i++ {
		scheduled++
		e.At(500, func() {})
	}
	return scheduled, e.RunUntilIdle()
}

// runRandomCoros replays a seeded coroutine workload: sleepers, parkers
// with timeouts and cross-coroutine wakes. It returns the steps the
// coroutines must take and the steps they took.
func runRandomCoros(e *Engine, seed uint64) (want, steps int) {
	rng := NewRNG(seed)
	var coros []*Coro
	for i := 0; i < 8; i++ {
		r := rng.Fork(uint64(i))
		coros = append(coros, e.Go(fmt.Sprintf("w%d", i), func(c *Coro) {
			for j := 0; j < 40; j++ {
				switch r.Intn(4) {
				case 0:
					c.Sleep(1 + r.Cycles(2000))
				case 1:
					c.Park(1 + r.Cycles(500))
				case 2:
					coros[r.Intn(len(coros))].Wake()
					c.Sleep(1 + r.Cycles(50))
				default:
					c.Sleep(r.Cycles(5))
				}
				steps++
			}
		}))
	}
	e.RunUntilIdle()
	return 8 * 40, steps
}

// runSegmented drives a scattered event population, a share of it beyond
// the horizon, through Run(limit) windows, so Run's stop check runs at
// every window boundary. It returns the events scheduled and run.
func runSegmented(e *Engine, seed uint64) (scheduled, ran int) {
	rng := NewRNG(seed)
	for i := 0; i < 300; i++ {
		d := Cycles(rng.Intn(1_000_000))
		if i%17 == 0 {
			d = Cycles(1)<<33 + Cycles(rng.Intn(1000))
		}
		scheduled++
		e.At(d, func() {})
	}
	limit := Cycles(0)
	for e.Pending() > 0 {
		limit += 1 + Cycles(rng.Intn(50_000_000))
		ran += e.Run(limit)
	}
	return scheduled, ran
}

// TestOrderCheckWorkloads runs the seeded engine workloads under the armed
// order check: every pop must pass it, the queue must drain, and every
// scheduled event (every coroutine step) must have run.
func TestOrderCheckWorkloads(t *testing.T) {
	workloads := []struct {
		name string
		run  func(*Engine, uint64) (want, got int)
	}{
		{"events", runRandomEvents},
		{"coros", runRandomCoros},
		{"segmented", runSegmented},
	}
	for _, w := range workloads {
		w := w
		t.Run(w.name, func(t *testing.T) {
			for seed := uint64(1); seed <= 12; seed++ {
				e := NewEngine()
				want, got := w.run(e, seed)
				pending := e.Pending()
				e.Shutdown()
				if pending != 0 {
					t.Fatalf("seed %d: %d events pending after the run", seed, pending)
				}
				if got != want {
					t.Fatalf("seed %d: ran %d, want %d", seed, got, want)
				}
			}
		})
	}
}

// bucket returns the events of wheel bucket (lvl, slot) in list order.
func bucket(w *wheelSched, lvl, slot int) []*event {
	tail := w.tails[lvl][slot]
	if tail == nil {
		return nil
	}
	var evs []*event
	for ev := tail.next; ; ev = ev.next {
		evs = append(evs, ev)
		if ev == tail {
			return evs
		}
	}
}

// relink replaces bucket (lvl, slot) with evs in that order and adjusts
// the wheel's resident count, as a broken push or cascade would leave it.
func relink(w *wheelSched, lvl, slot int, evs []*event) {
	w.inWheel += len(evs) - len(bucket(w, lvl, slot))
	if len(evs) == 0 {
		w.tails[lvl][slot] = nil
		w.occ[lvl][slot>>6] &^= 1 << (slot & 63)
		return
	}
	for i, ev := range evs {
		ev.next = evs[(i+1)%len(evs)]
	}
	w.tails[lvl][slot] = evs[len(evs)-1]
	w.occ[lvl][slot>>6] |= 1 << (slot & 63)
}

// mustPanic runs fn and fails unless it panics with a message containing
// want.
func mustPanic(t *testing.T, label, want string, fn func()) {
	t.Helper()
	defer func() {
		t.Helper()
		r := recover()
		if r == nil {
			t.Fatalf("%s: no panic", label)
		}
		if msg := fmt.Sprint(r); !strings.Contains(msg, want) {
			t.Fatalf("%s: panic %q, want it to mention %q", label, msg, want)
		}
	}()
	fn()
}

// TestOrderCheckSwappedBucketPanics swaps two same-cycle events in a
// level-0 bucket — a future cycle's, and the current cycle's (the
// same-cycle fast path) — and requires Step to panic on the second pop.
func TestOrderCheckSwappedBucketPanics(t *testing.T) {
	for _, at := range []Cycles{5, 0} {
		e := NewEngine()
		for i := 0; i < 3; i++ {
			e.At(at, func() {})
		}
		slot := int(at) & wheelMask
		evs := bucket(e.wheel, 0, slot)
		evs[0], evs[1] = evs[1], evs[0]
		relink(e.wheel, 0, slot, evs)
		if !e.Step() {
			t.Fatalf("cycle %d: first Step found no event", at)
		}
		mustPanic(t, fmt.Sprintf("cycle %d", at), fmt.Sprintf("popped (%d, 1) after (%d, 2)", at, at),
			func() { e.Step() })
		e.Shutdown()
	}
}

// TestOrderCheckUnlinkedEventPanics unlinks one event from its bucket, so
// the queue runs dry with an event unpopped: the idle Step, RunUntilIdle
// and Run must all panic instead of reporting an empty queue.
func TestOrderCheckUnlinkedEventPanics(t *testing.T) {
	drivers := map[string]func(e *Engine){
		"Step": func(e *Engine) {
			for e.Step() {
			}
		},
		"RunUntilIdle": func(e *Engine) { e.RunUntilIdle() },
		"Run":          func(e *Engine) { e.Run(1000) },
	}
	for name, drive := range drivers {
		e := NewEngine()
		ran := 0
		for i := 0; i < 3; i++ {
			e.At(5, func() { ran++ })
		}
		evs := bucket(e.wheel, 0, 5)
		relink(e.wheel, 0, 5, []*event{evs[0], evs[2]})
		mustPanic(t, name, "1 of 3 events unpopped", func() { drive(e) })
		if ran != 2 {
			t.Errorf("%s: ran %d events before the panic, want 2", name, ran)
		}
		e.Shutdown()
	}
}

// TestOrderCheckRunStopsBeforeNow files a popped-over event back into the
// overflow heap behind the clock: Run must refuse to stop with that event
// pending before now, and Step must refuse to pop it.
func TestOrderCheckRunStopsBeforeNow(t *testing.T) {
	e := NewEngine()
	defer e.Shutdown()
	e.At(10, func() {})
	e.At(20, func() {})
	early := bucket(e.wheel, 0, 10)[0]
	relink(e.wheel, 0, 10, nil)
	if !e.Step() || e.Now() != 20 {
		t.Fatalf("Step ran to %d, want 20", e.Now())
	}
	heap.Push(&e.wheel.over, early)
	mustPanic(t, "Run", "Run stopped at 20", func() { e.Run(5) })
	mustPanic(t, "Step", "popped (10, 1) after (20, 2)", func() { e.Step() })
}
