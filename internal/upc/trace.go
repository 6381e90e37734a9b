package upc

import "bgcnk/internal/sim"

// Category is a tracepoint enable-mask bit. Emitting a tracepoint whose
// category is masked off costs one AND and a branch — observability that
// is off is free.
type Category uint16

// Tracepoint categories.
const (
	CatSched   Category = 1 << iota // context switches, preemption, daemons
	CatIRQ                          // ticks, IPIs
	CatSyscall                      // syscall entry
	CatMem                          // TLB refills, page faults
	CatNet                          // torus + collective traffic
	CatIO                           // function-ship calls

	// CatAll enables every category.
	CatAll Category = 0xffff
)

// Event identifies one tracepoint.
type Event uint8

// Tracepoint events.
const (
	EvTick Event = iota
	EvIPI
	EvCtxSwitch
	EvPreempt
	EvDaemon
	EvSyscall
	EvTLBRefill
	EvPageFault
	EvFutexWait
	EvFutexWake
	EvDMAInject
	EvTorusPacket
	EvCollSend
	EvShipCall

	NumEvents
)

var eventCats = [NumEvents]Category{
	CatIRQ, CatIRQ, CatSched, CatSched, CatSched, CatSyscall,
	CatMem, CatMem, CatSched, CatSched,
	CatNet, CatNet, CatNet, CatIO,
}

// Ring is a chip's tracepoint gate: a category mask, a count of the
// points that passed it, and the engine trace each point is folded into,
// so the run's one reproducibility hash covers the tracepoints too. It
// retains no points.
//
// Emit never sleeps: recording happens outside simulated time, so a
// traced run and an untraced run execute the same cycle totals.
type Ring struct {
	mask  Category
	tr    *sim.Trace
	count uint64
}

// Arm turns on the given categories (OR into the mask) and folds every
// point they pass into tr, the engine trace.
func (r *Ring) Arm(tr *sim.Trace, c Category) {
	r.tr = tr
	r.mask |= c
}

// Emit records one tracepoint occurrence if its category is enabled. It
// does not advance simulated time.
func (r *Ring) Emit(ev Event, core int, cycle sim.Cycles, arg uint64) {
	if r.mask&eventCats[ev] == 0 {
		return
	}
	r.count++
	r.tr.RecordWords(cycle, "upc", uint64(ev), uint64(int64(core)), arg)
}

// Count returns the number of tracepoints emitted since the last Reset.
func (r *Ring) Count() uint64 { return r.count }

// Reset clears the count; the enable mask and trace survive (they are
// configuration, not state).
func (r *Ring) Reset() { r.count = 0 }

// Disarm turns every category off and detaches the trace: the gate of a
// new UPC unit.
func (r *Ring) Disarm() { r.mask, r.tr = 0, nil }

// UPC is one chip's Universal Performance Counter unit: the counter Set
// plus the tracepoint Ring. hw.Chip owns one; every layer above reaches it
// through the chip.
type UPC struct {
	Set
	Trace Ring
}

// New returns a fresh UPC unit with all counters zero and tracing off.
func New() *UPC { return &UPC{} }

// Reset clears counters and tracepoints (chip reset).
func (u *UPC) Reset() {
	u.Set.Reset()
	u.Trace.Reset()
}
