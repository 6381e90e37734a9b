package leakgate

import (
	"testing"
	"time"

	"bgcnk/internal/sim"
)

func TestMain(m *testing.M) { Main(m) }

// TestLeakGateSeesUnshutEngine checks the detector itself: a parked
// coroutine of a live engine is reported, and shutting the engine down
// clears it within the grace period.
func TestLeakGateSeesUnshutEngine(t *testing.T) {
	if n := len(Leaked(Grace)); n != 0 {
		t.Fatalf("%d coroutine goroutines alive before the test", n)
	}
	eng := sim.NewEngine()
	eng.Go("parked", func(c *sim.Coro) { c.Park(sim.Forever) })
	eng.RunUntilIdle()
	if n := len(Leaked(20 * time.Millisecond)); n != 1 {
		t.Fatalf("Leaked sees %d goroutines of a live engine's parked coroutine, want 1", n)
	}
	eng.Shutdown()
	if stacks := Leaked(Grace); len(stacks) != 0 {
		t.Fatalf("coroutine still alive after Shutdown:\n%s", stacks[0])
	}
}
