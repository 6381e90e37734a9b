package upc

import (
	"fmt"

	"bgcnk/internal/sim"
)

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

var eventNames = [NumEvents]string{
	"tick", "ipi", "ctx_switch", "preempt", "daemon", "syscall",
	"tlb_refill", "page_fault", "futex_wait", "futex_wake",
	"dma_inject", "torus_packet", "coll_send", "ship_call",
}

var eventCats = [NumEvents]Category{
	CatIRQ, CatIRQ, CatSched, CatSched, CatSched, CatSyscall,
	CatMem, CatMem, CatSched, CatSched,
	CatNet, CatNet, CatNet, CatIO,
}

func (e Event) String() string {
	if e < NumEvents {
		return eventNames[e]
	}
	return "event(?)"
}

// Point is one recorded tracepoint occurrence.
type Point struct {
	Event Event
	Core  int8
	Cycle sim.Cycles
	Arg   uint64
}

func (p Point) String() string {
	return fmt.Sprintf("[%12d] core%d %-12s arg=%#x", uint64(p.Cycle), p.Core, p.Event, p.Arg)
}

// RingCap is the bounded tracepoint buffer size.
const RingCap = 4096

// Ring is the tracepoint buffer: a bounded ring of Points, a running
// FNV-1a hash over everything ever emitted (including evicted entries),
// and an optional mirror into the engine's sim.Trace so tracepoint
// contents feed the same reproducibility hash the rest of the run does.
//
// Emit never sleeps: recording happens outside simulated time, so a
// traced run and an untraced run execute the same cycle totals.
type Ring struct {
	mask  Category
	tr    *sim.Trace
	buf   []Point
	start int
	count uint64
	hash  uint64
}

// Enable turns on the given categories (OR into the mask).
func (r *Ring) Enable(c Category) { r.mask |= c }

// Disable turns off the given categories.
func (r *Ring) Disable(c Category) { r.mask &^= c }

// Mask returns the active category mask.
func (r *Ring) Mask() Category { return r.mask }

// Enabled reports whether event ev would currently be recorded.
func (r *Ring) Enabled(ev Event) bool { return r.mask&eventCats[ev] != 0 }

// AttachTrace mirrors recorded tracepoints into tr (the engine trace), so
// the run's reproducibility hash covers them.
func (r *Ring) AttachTrace(tr *sim.Trace) { r.tr = tr }

// Emit records one tracepoint occurrence if its category is enabled. It
// does not advance simulated time.
func (r *Ring) Emit(ev Event, core int, cycle sim.Cycles, arg uint64) {
	if r.mask&eventCats[ev] == 0 {
		return
	}
	// The buffer grows on demand up to RingCap: most traced runs record
	// far fewer points than the cap.
	p := Point{Event: ev, Core: int8(core), Cycle: cycle, Arg: arg}
	if len(r.buf) < RingCap {
		r.buf = append(r.buf, p)
	} else {
		r.buf[r.start] = p
		r.start = (r.start + 1) % RingCap
	}
	r.count++
	h := uint64(14695981039346656037)
	h = fnvMix(h, uint64(ev))
	h = fnvMix(h, uint64(int64(core)))
	h = fnvMix(h, uint64(cycle))
	h = fnvMix(h, arg)
	r.hash = r.hash*1099511628211 ^ h
	if r.tr != nil {
		r.tr.Record(cycle, "upc", fmt.Sprintf("%s core%d arg=%#x", eventNames[ev], core, arg))
	}
}

// fnvMix folds the 8 bytes of v into an FNV-1a running hash.
func fnvMix(h, v uint64) uint64 {
	for i := 0; i < 8; i++ {
		h ^= v & 0xff
		h *= 1099511628211
		v >>= 8
	}
	return h
}

// Points returns the retained tracepoints, oldest first.
func (r *Ring) Points() []Point {
	if len(r.buf) < RingCap {
		return append([]Point(nil), r.buf...)
	}
	out := make([]Point, 0, RingCap)
	out = append(out, r.buf[r.start:]...)
	out = append(out, r.buf[:r.start]...)
	return out
}

// Count returns the number of tracepoints ever emitted (including evicted
// ones).
func (r *Ring) Count() uint64 { return r.count }

// Hash returns the running hash over every emitted tracepoint. Two traced
// replays of the same run produce the same hash.
func (r *Ring) Hash() uint64 { return r.hash }

// Reset clears the ring and hash; the enable mask and trace attachment
// survive (they are configuration, not state).
func (r *Ring) Reset() {
	r.buf = r.buf[:0]
	r.start, r.count, r.hash = 0, 0, 0
}

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
