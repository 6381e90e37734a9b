// Package sim provides the deterministic discrete-event simulation engine
// underlying the Blue Gene/P machine model.
//
// Determinism is the load-bearing property: the paper's Section III
// (cycle-by-cycle reproducible execution for chip bringup) is reproduced by
// running the whole machine inside a single event loop whose event order is a
// pure function of (configuration, seeds). Simulated threads of execution are
// cooperative coroutines built on iter.Pull: the engine resumes one with
// next, it parks with yield, and control passes through the runtime's
// direct coroutine switch rather than the Go scheduler, so exactly one
// goroutine is runnable at any instant. All cross-thread signalling flows
// through the event queue, which is ordered by (time, insertion sequence).
package sim

import "fmt"

// Cycles counts processor clock cycles. The Blue Gene/P PowerPC 450 runs at
// 850 MHz, so one microsecond is 850 cycles.
type Cycles uint64

// ClockHz is the modelled core frequency (Blue Gene/P: 850 MHz).
const ClockHz = 850_000_000

// CyclesPerMicro is the number of core cycles in one microsecond.
const CyclesPerMicro = ClockHz / 1_000_000

// Forever is a sentinel "no deadline" duration.
const Forever = Cycles(1) << 62

// Micros converts a cycle count to microseconds.
func (c Cycles) Micros() float64 { return float64(c) / float64(CyclesPerMicro) }

// Seconds converts a cycle count to seconds.
func (c Cycles) Seconds() float64 { return float64(c) / float64(ClockHz) }

// FromMicros converts microseconds to cycles, rounding to nearest.
func FromMicros(us float64) Cycles {
	return Cycles(us*float64(CyclesPerMicro) + 0.5)
}

// FromMillis converts milliseconds to cycles.
func FromMillis(ms float64) Cycles { return FromMicros(ms * 1000) }

// FromSeconds converts seconds to cycles.
func FromSeconds(s float64) Cycles { return Cycles(s*float64(ClockHz) + 0.5) }

func (c Cycles) String() string {
	switch {
	case c >= Forever:
		return "forever"
	case c >= ClockHz:
		return fmt.Sprintf("%.3fs", c.Seconds())
	case c >= CyclesPerMicro*1000:
		return fmt.Sprintf("%.3fms", c.Micros()/1000)
	default:
		return fmt.Sprintf("%dcy", uint64(c))
	}
}
