// Package leakgate is a test-only guard against leaked simulation
// coroutines. Every coroutine sim.(*Engine).Go starts runs on its own
// goroutine until it finishes or its engine shuts it down, so code that
// drops an engine without Shutdown leaves goroutines parked forever.
// Packages whose tests build engines wire the gate into their test
// binary:
//
//	func TestMain(m *testing.M) { leakgate.Main(m) }
package leakgate

import (
	"fmt"
	"os"
	"runtime"
	"strings"
	"testing"
	"time"
)

// marker is in every coroutine goroutine's stack: the closure
// sim.(*Engine).Go runs it on, or its "created by" line.
const marker = "bgcnk/internal/sim.(*Engine).Go"

// Grace is how long Main waits for coroutines of shut-down engines to
// finish exiting before it calls the rest leaked.
const Grace = 2 * time.Second

// Main runs the tests, then fails the binary if any coroutine goroutine
// is still alive after Grace. The check is skipped when a test already
// failed.
func Main(m *testing.M) {
	code := m.Run()
	if code == 0 {
		if stacks := Leaked(Grace); len(stacks) > 0 {
			fmt.Fprintf(os.Stderr, "leakgate: %d goroutine(s) started by sim.(*Engine).Go outlived the tests (an engine was never shut down); the first:\n%s\n",
				len(stacks), stacks[0])
			code = 1
		}
	}
	os.Exit(code)
}

// Leaked polls for up to wait until no coroutine goroutine is alive and
// returns the stacks of those still alive at the deadline (nil if none).
func Leaked(wait time.Duration) []string {
	deadline := time.Now().Add(wait)
	for {
		stacks := coroutines()
		if len(stacks) == 0 || time.Now().After(deadline) {
			return stacks
		}
		time.Sleep(10 * time.Millisecond)
	}
}

func coroutines() []string {
	buf := make([]byte, 1<<16)
	for {
		n := runtime.Stack(buf, true)
		if n < len(buf) {
			buf = buf[:n]
			break
		}
		buf = make([]byte, 2*len(buf))
	}
	var out []string
	for _, g := range strings.Split(string(buf), "\n\n") {
		if strings.Contains(g, marker) {
			out = append(out, g)
		}
	}
	return out
}
