package upc

import (
	"encoding/json"
	"strings"
	"testing"

	"bgcnk/internal/sim"
)

func TestSetIncAddSnapshotDelta(t *testing.T) {
	var s Set
	s.Inc(0, TLBMiss)
	s.Inc(0, TLBMiss)
	s.Add(2, L1Hit, 10)
	s.Inc(ChipScope, L3Miss)
	s.Syscall(1, 3)
	s.Syscall(1, 3)
	s.Syscall(1, 7)

	snap := s.Snapshot()
	if got := snap.Core(0, TLBMiss); got != 2 {
		t.Fatalf("core0 tlb_miss = %d, want 2", got)
	}
	if got := snap.Core(2, L1Hit); got != 10 {
		t.Fatalf("core2 l1_hit = %d, want 10", got)
	}
	if got := snap.Chip(L3Miss); got != 1 {
		t.Fatalf("chip l3_miss = %d, want 1", got)
	}
	if got := snap.Total(SyscallTotal); got != 3 {
		t.Fatalf("syscall total = %d, want 3", got)
	}
	if got := snap.SyscallCount(3); got != 2 {
		t.Fatalf("syscall #3 = %d, want 2", got)
	}

	// Delta over a bracketed region attributes exactly the inner counts.
	before := s.Snapshot()
	s.Add(1, TimerTick, 5)
	d := Delta(before, s.Snapshot())
	if got := d.Total(TimerTick); got != 5 {
		t.Fatalf("delta timer_tick = %d, want 5", got)
	}
	if got := d.Total(TLBMiss); got != 0 {
		t.Fatalf("delta tlb_miss = %d, want 0", got)
	}

	// Snapshots are comparable values.
	if s.Snapshot() != s.Snapshot() {
		t.Fatal("identical snapshots must compare equal")
	}
	s.Reset()
	if !s.Snapshot().IsZero() {
		t.Fatal("reset set must snapshot to zero")
	}
}

func TestSlotClamping(t *testing.T) {
	var s Set
	s.Inc(-1, DDRRead)
	s.Inc(99, DDRRead) // out of range clamps to the chip slot
	if got := s.Snapshot().Chip(DDRRead); got != 2 {
		t.Fatalf("chip ddr_read = %d, want 2", got)
	}
}

func TestMerge(t *testing.T) {
	var a, b Set
	a.Inc(0, Interrupt)
	b.Add(0, Interrupt, 3)
	b.Syscall(2, 5)
	m := Merge(a.Snapshot(), b.Snapshot())
	if got := m.Core(0, Interrupt); got != 4 {
		t.Fatalf("merged interrupt = %d, want 4", got)
	}
	if got := m.SyscallCount(5); got != 1 {
		t.Fatalf("merged syscall #5 = %d, want 1", got)
	}
	var live Snapshot
	live.AddSet(&a)
	live.AddSet(&b)
	if live != m {
		t.Fatal("summing the live sets in place differs from merging their snapshots")
	}
}

func TestTextAndJSONRendering(t *testing.T) {
	var s Set
	s.Add(0, TimerTick, 42)
	s.Inc(ChipScope, FunctionShip)
	s.Syscall(0, 1)
	snap := s.Snapshot()

	txt := snap.Text()
	if !strings.Contains(txt, "timer_tick") || !strings.Contains(txt, "42") {
		t.Fatalf("text rendering missing counters:\n%s", txt)
	}
	js := snap.JSON()
	if !json.Valid([]byte(js)) {
		t.Fatalf("JSON rendering is not valid JSON: %s", js)
	}
	if !strings.Contains(js, `"timer_tick"`) || !strings.Contains(js, `"function_ship"`) {
		t.Fatalf("JSON rendering missing counters: %s", js)
	}
	// Deterministic rendering: equal snapshots render byte-identically.
	if snap.JSON() != snap.JSON() || snap.Text() != snap.Text() {
		t.Fatal("rendering must be deterministic")
	}
}

// TestRingFeedsSimTrace holds the tracepoint gate: a disarmed or
// masked-off point records nothing, and every point that passes the mask
// is counted and folded into the engine trace, allocation-free.
func TestRingFeedsSimTrace(t *testing.T) {
	tr := sim.NewTrace()
	base := tr.Hash()
	var r Ring
	r.Emit(EvTick, 0, 100, 0) // disarmed
	r.Arm(tr, CatIRQ)
	r.Emit(EvCtxSwitch, 1, 201, 0) // CatSched still off
	if r.Count() != 0 || tr.Hash() != base || tr.Count() != 0 {
		t.Fatal("disabled tracepoint must record nothing")
	}
	r.Emit(EvTick, 1, 200, 7)
	if r.Count() != 1 || tr.Count() != 1 || tr.Hash() == base {
		t.Fatalf("enabled tracepoint: ring count %d, trace count %d", r.Count(), tr.Count())
	}
	r.Arm(tr, CatAll)
	r.Emit(EvShipCall, 2, 500, 3)
	if r.Count() != 2 || tr.Count() != 2 {
		t.Fatalf("arming must OR into the mask: ring count %d", r.Count())
	}
	// Each of event, core, cycle and arg reaches the hash.
	emit := func(ev Event, core int, cycle sim.Cycles, arg uint64) uint64 {
		tr := sim.NewTrace()
		var r Ring
		r.Arm(tr, CatAll)
		r.Emit(ev, core, cycle, arg)
		return tr.Hash()
	}
	ref := emit(EvShipCall, 2, 500, 3)
	if ref != emit(EvShipCall, 2, 500, 3) {
		t.Fatal("identical points must hash identically")
	}
	for _, h := range []uint64{emit(EvCollSend, 2, 500, 3), emit(EvShipCall, 1, 500, 3),
		emit(EvShipCall, 2, 501, 3), emit(EvShipCall, 2, 500, 4)} {
		if h == ref {
			t.Fatal("every tracepoint field must affect the trace hash")
		}
	}
	if n := testing.AllocsPerRun(100, func() { r.Emit(EvSyscall, 0, 9, 1) }); n != 0 {
		t.Fatalf("Emit allocates %v times", n)
	}
	r.Reset()
	if r.Count() != 0 {
		t.Fatal("Reset must clear the count")
	}
	r.Emit(EvTick, 0, 1, 0)
	if r.Count() != 1 {
		t.Fatal("the mask must survive Reset")
	}
}
