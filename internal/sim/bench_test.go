package sim

import "testing"

// The event-queue micro-benchmarks drive the engine through the three
// shapes the machine model produces: raw scheduling, dense same-window
// dispatch (barrier storms, packet bursts), and sparse far-flung timers
// (daemon periods, checkpoint intervals).

// BenchmarkSchedule measures At() with a steady queue: each op schedules
// one event into a standing population of pending events, draining
// periodically so the queue neither empties nor grows without bound.
func BenchmarkSchedule(b *testing.B) {
	b.ReportAllocs()
	e := NewEngine()
	rng := NewRNG(1)
	nop := func() {}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		e.After(rng.Cycles(100_000), nop)
		if e.Pending() >= 8192 {
			e.Run(e.Now() + 50_000)
		}
	}
}

// BenchmarkStepDense measures dispatch when events cluster: every event
// reschedules itself 0-3 cycles out, so most steps hit the same-cycle
// batch path.
func BenchmarkStepDense(b *testing.B) {
	b.ReportAllocs()
	e := NewEngine()
	rng := NewRNG(2)
	var tick func()
	tick = func() { e.After(rng.Cycles(4), tick) }
	for i := 0; i < 512; i++ {
		e.After(rng.Cycles(4), tick)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		e.Step()
	}
}

// BenchmarkStepSparse measures dispatch when events are scattered across
// the timer range: every event reschedules itself up to a billion cycles
// out, exercising the wheel's higher levels, cascades, and overflow.
func BenchmarkStepSparse(b *testing.B) {
	b.ReportAllocs()
	e := NewEngine()
	rng := NewRNG(3)
	var tick func()
	tick = func() { e.After(1+rng.Cycles(1_000_000_000), tick) }
	for i := 0; i < 512; i++ {
		e.After(1+rng.Cycles(1_000_000_000), tick)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		e.Step()
	}
}

// BenchmarkTraceRecord measures the trace hot path (the text hash);
// it must stay allocation-free.
func BenchmarkTraceRecord(b *testing.B) {
	b.ReportAllocs()
	tr := NewTrace()
	for i := 0; i < b.N; i++ {
		tr.Record(Cycles(i), "core0", "tracepoint")
	}
}

// BenchmarkCoroSwitch measures one coroutine park/resume round trip: a
// Sleep(1) parks, and the next Step resumes it.
func BenchmarkCoroSwitch(b *testing.B) {
	b.ReportAllocs()
	e := NewEngine()
	defer e.Shutdown()
	e.Go("pingpong", func(c *Coro) {
		for {
			c.Sleep(1)
		}
	})
	e.Step()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		e.Step()
	}
}

// BenchmarkCoroSpawn measures starting a coroutine and running it to
// completion. Engines are replaced in batches because an engine keeps
// every coroutine it started until Shutdown.
func BenchmarkCoroSpawn(b *testing.B) {
	b.ReportAllocs()
	const batch = 1024
	var e *Engine
	body := func(c *Coro) {}
	for i := 0; i < b.N; i++ {
		if i%batch == 0 {
			b.StopTimer()
			if e != nil {
				e.Shutdown()
			}
			e = NewEngine()
			b.StartTimer()
		}
		e.Go("spawn", body)
		e.Step()
	}
	e.Shutdown()
}
