package sim

import (
	"errors"
	"testing"
	"time"

	"bgcnk/internal/leakgate"
)

// TestCoroKillWhileParked is the basic shutdown-unwind path: a coroutine
// parked forever is killed, its deferred cleanup runs, and the code after
// the park never does.
func TestCoroKillWhileParked(t *testing.T) {
	e := NewEngine()
	cleaned := false
	resumed := false
	c := e.Go("p", func(c *Coro) {
		defer func() { cleaned = true }()
		c.Park(Forever)
		resumed = true
	})
	e.RunUntilIdle()
	e.Shutdown()
	if !cleaned {
		t.Fatal("deferred cleanup did not run on kill")
	}
	if resumed {
		t.Fatal("killed coroutine ran past its park")
	}
	if !c.Done() {
		t.Fatal("killed coroutine should report Done once unwound")
	}
}

// TestCoroKillWhileParkedWithTimeout kills a coroutine that still has an
// in-flight timeout event; the queue is torn down with it and nothing
// resumes or panics.
func TestCoroKillWhileParkedWithTimeout(t *testing.T) {
	e := NewEngine()
	e.Go("p", func(c *Coro) {
		c.Park(1_000_000)
		t.Error("should never resume")
	})
	// Drive only the initial dispatch, leaving the timeout pending.
	e.Run(0)
	if e.Pending() == 0 {
		t.Fatal("expected the park timeout to be pending")
	}
	e.Shutdown()
	if e.Pending() != 0 {
		t.Fatalf("Shutdown left %d events queued", e.Pending())
	}
}

// TestCoroKillAfterFinish: killing a coroutine whose function already
// returned is a no-op (no panic, no deadlock, Done stays true).
func TestCoroKillAfterFinish(t *testing.T) {
	e := NewEngine()
	c := e.Go("p", func(c *Coro) {})
	e.RunUntilIdle()
	if !c.Done() {
		t.Fatal("coroutine should be done")
	}
	c.kill()
	if !c.Done() {
		t.Fatal("kill flipped Done on a finished coroutine")
	}
	e.Shutdown() // and the engine-level sweep must tolerate it too
}

// TestCoroDoubleKill: killing an already-killed coroutine is a no-op, as
// is shutting the engine down twice.
func TestCoroDoubleKill(t *testing.T) {
	e := NewEngine()
	c := e.Go("p", func(c *Coro) {
		c.Park(Forever)
	})
	e.RunUntilIdle()
	c.kill()
	c.kill() // second kill must not stop the coroutine again
	e.Shutdown()
	e.Shutdown() // idempotent
}

// TestCoroWakeAfterKillIsNoop: a killed coroutine is dead; a stray Wake
// must neither panic nor schedule a resume.
func TestCoroWakeAfterKillIsNoop(t *testing.T) {
	e := NewEngine()
	c := e.Go("p", func(c *Coro) {
		c.Park(Forever)
	})
	e.RunUntilIdle()
	c.kill()
	c.Wake()
	if n := e.RunUntilIdle(); n != 0 {
		t.Fatalf("wake on a dead coroutine scheduled %d events", n)
	}
}

// TestCoroKillRunsInStartOrder: Shutdown unwinds every live coroutine,
// regardless of how many are parked, and runs all their cleanups.
func TestCoroKillRunsInStartOrder(t *testing.T) {
	e := NewEngine()
	var cleaned []int
	for i := 0; i < 5; i++ {
		i := i
		e.Go("p", func(c *Coro) {
			defer func() { cleaned = append(cleaned, i) }()
			c.Park(Forever)
		})
	}
	e.RunUntilIdle()
	e.Shutdown()
	if len(cleaned) != 5 {
		t.Fatalf("only %d of 5 parked coroutines were unwound", len(cleaned))
	}
	for i, v := range cleaned {
		if v != i {
			t.Fatalf("cleanup order %v not start order", cleaned)
		}
	}
}

// TestShutdownInsideEventPanics pins the Shutdown contract: calling it
// from inside an event callback used to silently corrupt the dispatch in
// flight; it must panic instead.
func TestShutdownInsideEventPanics(t *testing.T) {
	e := NewEngine()
	panicked := false
	e.At(10, func() {
		defer func() {
			if recover() != nil {
				panicked = true
			}
		}()
		e.Shutdown()
	})
	e.RunUntilIdle()
	if !panicked {
		t.Fatal("Shutdown inside an event did not panic")
	}
}

// TestShutdownInsideCoroutinePanics: same contract from coroutine
// context — a coroutine cannot unwind itself synchronously.
func TestShutdownInsideCoroutinePanics(t *testing.T) {
	e := NewEngine()
	panicked := false
	e.Go("suicidal", func(c *Coro) {
		defer func() {
			if recover() != nil {
				panicked = true
			}
		}()
		e.Shutdown()
	})
	e.RunUntilIdle()
	if !panicked {
		t.Fatal("Shutdown inside a coroutine did not panic")
	}
	e.Shutdown() // still legal from host context afterwards
}

// TestShutdownAfterIdleThenReuseKeepsPanicGuard: the stepping flag must
// be cleared between events so legal host-side Shutdown stays legal.
func TestShutdownAfterIdleThenReuseKeepsPanicGuard(t *testing.T) {
	e := NewEngine()
	e.At(5, func() {})
	e.RunUntilIdle()
	e.Shutdown() // must not panic: engine is idle, caller is host code
}

// TestCoroPanicReachesHost pins the panic contract: a coroutine panic
// that is not a kill propagates out of the Step that dispatched it, with
// its original value, the coroutine finished, the engine idle (so a
// host-side Shutdown is legal) and no goroutine left behind.
func TestCoroPanicReachesHost(t *testing.T) {
	e := NewEngine()
	boom := errors.New("boom")
	c := e.Go("p", func(c *Coro) {
		c.Sleep(10)
		panic(boom)
	})
	var got any
	func() {
		defer func() { got = recover() }()
		e.RunUntilIdle()
	}()
	if got != boom {
		t.Fatalf("host recovered %v, want the coroutine's panic value %v", got, boom)
	}
	if !c.Done() {
		t.Fatal("a coroutine that panicked should report Done")
	}
	if e.stepping {
		t.Fatal("stepping still set after the panic left Step")
	}
	e.Shutdown()
	if stacks := leakgate.Leaked(leakgate.Grace); len(stacks) != 0 {
		t.Fatalf("coroutine goroutine alive after its panic:\n%s", stacks[0])
	}
}

// TestCoroKillBeforeFirstDispatch: iter.Pull creates the coroutine's
// goroutine at Go, so Shutdown with no Run must still reap it, without
// ever running the coroutine's function.
func TestCoroKillBeforeFirstDispatch(t *testing.T) {
	e := NewEngine()
	ran := false
	c := e.Go("p", func(c *Coro) { ran = true })
	if n := len(leakgate.Leaked(20 * time.Millisecond)); n != 1 {
		t.Fatalf("Leaked sees %d goroutines of an undispatched coroutine, want 1", n)
	}
	e.Shutdown()
	if ran {
		t.Fatal("a coroutine killed before its first dispatch ran its function")
	}
	if !c.Done() {
		t.Fatal("a coroutine killed before its first dispatch should report Done")
	}
	if stacks := leakgate.Leaked(leakgate.Grace); len(stacks) != 0 {
		t.Fatalf("undispatched coroutine alive after Shutdown:\n%s", stacks[0])
	}
}

// TestCoroSwitchAllocs gates the park/resume round trip at zero
// allocations: a Sleep(1) schedules a pooled resume event, not a closure.
func TestCoroSwitchAllocs(t *testing.T) {
	e := NewEngine()
	defer e.Shutdown()
	e.Go("pingpong", func(c *Coro) {
		for {
			c.Sleep(1)
		}
	})
	for i := 0; i < 1024; i++ { // warm the wheel's slots and the event pool
		e.Step()
	}
	if n := testing.AllocsPerRun(1000, func() { e.Step() }); n != 0 {
		t.Fatalf("park/resume round trip allocates %v times, want 0", n)
	}
}
