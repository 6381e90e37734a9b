package sim

import (
	"fmt"
	"testing"
)

// schedKinds are the implementations the differential battery holds to
// identical observable behaviour.
var schedKinds = []SchedulerKind{SchedHeap, SchedWheel}

// entry is one trace record, kept test-side so a divergence can be
// reported as the first differing record.
type entry struct {
	at          Cycles
	tag, detail string
}

// recorder records into the engine trace and keeps a copy of each entry.
type recorder struct {
	e       *Engine
	entries []entry
}

func (r *recorder) record(at Cycles, tag, detail string) {
	r.e.Trace().Record(at, tag, detail)
	r.entries = append(r.entries, entry{at, tag, detail})
}

// workloadResult captures everything observable about a run: the trace
// hash (covering every recorded event in order), the entries, the final
// clock, and the number of events executed.
type workloadResult struct {
	hash    uint64
	count   uint64
	end     Cycles
	nevents int
	entries []entry
}

func (r *recorder) result(nevents int) workloadResult {
	return workloadResult{hash: r.e.Trace().Hash(), count: r.e.Trace().Count(),
		end: r.e.Now(), nevents: nevents, entries: r.entries}
}

func sameResult(t *testing.T, label string, a, b workloadResult) {
	t.Helper()
	if a.hash != b.hash || a.count != b.count || a.end != b.end || a.nevents != b.nevents {
		t.Fatalf("%s: heap vs wheel diverged: hash %016x/%016x count %d/%d end %d/%d events %d/%d",
			label, a.hash, b.hash, a.count, b.count, a.end, b.end, a.nevents, b.nevents)
	}
	if len(a.entries) != len(b.entries) {
		t.Fatalf("%s: recorded %d vs %d trace entries", label, len(a.entries), len(b.entries))
	}
	for i := range a.entries {
		if a.entries[i] != b.entries[i] {
			t.Fatalf("%s: trace entry %d differs:\n  heap:  %+v\n  wheel: %+v",
				label, i, a.entries[i], b.entries[i])
		}
	}
}

// runRandomEvents replays a seeded pure-event workload: bursts of
// same-cycle events, zero-delay chains, random offsets spanning every
// wheel level, and far-future events beyond the wheel horizon (the
// overflow path). Each event records itself to the trace, so the hash is
// a total order witness.
func runRandomEvents(kind SchedulerKind, seed uint64) workloadResult {
	e := NewEngineWith(EngineConfig{Scheduler: kind})
	rec := &recorder{e: e}
	rng := NewRNG(seed)
	id := 0
	var schedule func(depth int)
	schedule = func(depth int) {
		id++
		me := id
		var d Cycles
		switch rng.Intn(10) {
		case 0:
			d = 0 // same-cycle chain
		case 1, 2, 3:
			d = Cycles(rng.Intn(4)) // dense
		case 4, 5, 6:
			d = Cycles(rng.Intn(100_000)) // levels 0-2
		case 7, 8:
			d = Cycles(rng.Intn(1 << 30)) // level 3
		default:
			d = Cycles(1)<<32 + Cycles(rng.Intn(1<<30)) // overflow horizon
		}
		e.After(d, func() {
			rec.record(e.Now(), "ev", fmt.Sprintf("id%d", me))
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
	// Bursts at one instant exercise batch dispatch FIFO.
	for i := 0; i < 64; i++ {
		i := i
		e.At(500, func() { rec.record(e.Now(), "burst", fmt.Sprintf("b%d", i)) })
	}
	return rec.result(e.RunUntilIdle())
}

// runRandomCoros replays a seeded coroutine workload: sleepers, parkers
// with timeouts, cross-coroutine wakes, and killed-at-shutdown parkers —
// the full resume/yield machinery on top of the scheduler under test.
func runRandomCoros(kind SchedulerKind, seed uint64) workloadResult {
	e := NewEngineWith(EngineConfig{Scheduler: kind})
	rec := &recorder{e: e}
	rng := NewRNG(seed)
	var coros []*Coro
	for i := 0; i < 8; i++ {
		i := i
		r := rng.Fork(uint64(i))
		c := e.Go(fmt.Sprintf("w%d", i), func(c *Coro) {
			for j := 0; j < 40; j++ {
				switch r.Intn(4) {
				case 0:
					c.Sleep(1 + r.Cycles(2000))
				case 1:
					reason := c.Park(1 + r.Cycles(500))
					rec.record(c.Now(), c.Name(), "woke "+reason.String())
				case 2:
					if len(coros) > 0 {
						coros[r.Intn(len(coros))].Wake()
					}
					c.Sleep(1 + r.Cycles(50))
				default:
					c.Sleep(r.Cycles(5))
				}
				rec.record(c.Now(), c.Name(), fmt.Sprintf("step%d", j))
			}
		})
		coros = append(coros, c)
	}
	out := rec.result(e.RunUntilIdle())
	e.Shutdown()
	return out
}

// runSegmented drives the same event workload through Run(limit) windows
// instead of RunUntilIdle, exercising peek() (the wheel's non-mutating
// lookahead) against the heap's.
func runSegmented(kind SchedulerKind, seed uint64) workloadResult {
	e := NewEngineWith(EngineConfig{Scheduler: kind})
	rec := &recorder{e: e}
	rng := NewRNG(seed)
	for i := 0; i < 300; i++ {
		i := i
		d := Cycles(rng.Intn(1_000_000))
		if i%17 == 0 {
			d = Cycles(1)<<33 + Cycles(rng.Intn(1000))
		}
		e.At(d, func() { rec.record(e.Now(), "seg", fmt.Sprintf("s%d", i)) })
	}
	n := 0
	limit := Cycles(0)
	for e.Pending() > 0 {
		limit += 1 + Cycles(rng.Intn(50_000_000))
		n += e.Run(limit)
	}
	return rec.result(n)
}

// TestDifferentialSchedulers is the scheduler substitution proof at the
// engine level: seeded random workloads replayed on the reference heap
// and the timer wheel must produce bit-identical traces, clocks, and
// event counts. A divergence here means the wheel broke the (time, seq)
// FIFO ordering contract.
func TestDifferentialSchedulers(t *testing.T) {
	workloads := []struct {
		name string
		run  func(SchedulerKind, uint64) workloadResult
	}{
		{"events", runRandomEvents},
		{"coros", runRandomCoros},
		{"segmented", runSegmented},
	}
	for _, w := range workloads {
		w := w
		t.Run(w.name, func(t *testing.T) {
			for seed := uint64(1); seed <= 12; seed++ {
				ref := w.run(SchedHeap, seed)
				got := w.run(SchedWheel, seed)
				sameResult(t, fmt.Sprintf("%s seed %d", w.name, seed), ref, got)
			}
		})
	}
}

// TestDifferentialOverflowTieFIFO pins the subtlest ordering case: an
// event scheduled beyond the wheel horizon (overflow-resident) and an
// event scheduled later for the same cycle (wheel-resident) must run in
// seq order — overflow first.
func TestDifferentialOverflowTieFIFO(t *testing.T) {
	target := Cycles(1)<<33 + 17
	for _, kind := range schedKinds {
		e := NewEngineWith(EngineConfig{Scheduler: kind})
		var order []string
		e.At(target, func() { order = append(order, "far") }) // seq 1, beyond horizon
		e.At(target-1000, func() {
			// Scheduled close to the target: wheel-resident.
			e.At(target, func() { order = append(order, "near") })
		})
		e.RunUntilIdle()
		if len(order) != 2 || order[0] != "far" || order[1] != "near" {
			t.Fatalf("%v: same-cycle overflow/wheel tie out of seq order: %v", kind, order)
		}
	}
}

// TestDifferentialHorizonSweep walks event deltas across every wheel
// level boundary (and the overflow horizon) to catch off-by-one
// classification errors.
func TestDifferentialHorizonSweep(t *testing.T) {
	deltas := []Cycles{0, 1, 255, 256, 257, 65_535, 65_536, 65_537,
		1<<24 - 1, 1 << 24, 1<<24 + 1, 1<<32 - 1, 1 << 32, 1<<32 + 1, 1 << 40}
	run := func(kind SchedulerKind) workloadResult {
		e := NewEngineWith(EngineConfig{Scheduler: kind})
		rec := &recorder{e: e}
		for round := 0; round < 3; round++ {
			base := Cycles(round) * 7919
			for i, d := range deltas {
				i, d := i, d
				e.At(base+d, func() {
					rec.record(e.Now(), "sweep", fmt.Sprintf("r%dd%d", round, i))
				})
			}
		}
		return rec.result(e.RunUntilIdle())
	}
	sameResult(t, "horizon sweep", run(SchedHeap), run(SchedWheel))
}
