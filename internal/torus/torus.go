// Package torus models the Blue Gene/P 3-D torus network and its DMA
// engine. Two properties of the real machine matter to the paper and are
// preserved here:
//
//  1. Applications drive the DMA directly from user space under CNK, with
//     no per-message system call (Table I's sub-microsecond latencies).
//     The cost model therefore separates software overhead (charged by the
//     messaging library) from network cost (charged here).
//
//  2. A DMA descriptor covers one physically contiguous range. CNK's
//     static map turns any user buffer into a single descriptor; an FWK's
//     scattered 4KB pages need a descriptor per page, with per-descriptor
//     injection overhead — the mechanism behind Fig 8's bandwidth gap.
package torus

import (
	"fmt"

	"bgcnk/internal/hw"
	"bgcnk/internal/obs"
	"bgcnk/internal/sim"
	"bgcnk/internal/upc"
)

// Coord is a 3-D torus coordinate.
type Coord [3]int

// Config is the torus cost model. Defaults approximate BG/P: 425 MB/s per
// link direction (2 cycles/byte at 850 MHz), ~100 ns per hop, and a
// per-descriptor DMA injection overhead.
type Config struct {
	Dims          Coord
	HopLatency    sim.Cycles
	CyclesPerByte float64
	PerPacket     sim.Cycles // 256B torus packet processing
	PerDescriptor sim.Cycles // DMA injection cost per descriptor
	RecvOverhead  sim.Cycles // reception-side DMA/counter cost
}

// PacketBytes is the torus packet payload size.
const PacketBytes = 256

// DefaultConfig returns a BG/P-like model for a dims-sized torus.
func DefaultConfig(dims Coord) Config {
	return Config{
		Dims:          dims,
		HopLatency:    85, // ~100ns
		CyclesPerByte: 2.0,
		PerPacket:     10,
		PerDescriptor: 170, // ~200ns injection FIFO work
		RecvOverhead:  100,
	}
}

// Network is the torus fabric: interfaces per node and directed-link
// serialization state.
type Network struct {
	eng  *sim.Engine
	cfg  Config
	ifcs map[Coord]*Interface
	// busyUntil per directed link, keyed by (coord, dim, positive?).
	links map[linkKey]sim.Cycles
	// Hard-fault layer; nil until ArmFaults, and every code path below
	// runs the exact legacy sequence when it is nil.
	faults *faultState
	// obs, when non-nil, receives one msg span per delivered packet
	// (send to delivery); emitting charges no cycles.
	obs *obs.Recorder
}

// AttachObs wires the machine-wide span recorder (nil is a no-op
// recorder).
func (n *Network) AttachObs(r *obs.Recorder) { n.obs = r }

type linkKey struct {
	c   Coord
	dim int
	pos bool
}

// New builds a torus of the configured dimensions.
func New(eng *sim.Engine, cfg Config) *Network {
	return &Network{eng: eng, cfg: cfg, ifcs: make(map[Coord]*Interface), links: make(map[linkKey]sim.Cycles)}
}

// Attach creates the interface for a chip at coord.
func (n *Network) Attach(chip *hw.Chip, coord Coord) *Interface {
	if _, dup := n.ifcs[coord]; dup {
		panic(fmt.Sprintf("torus: coordinate %v already attached", coord))
	}
	ifc := &Interface{net: n, chip: chip, coord: coord}
	n.ifcs[coord] = ifc
	return ifc
}

// At returns the interface at coord.
func (n *Network) At(coord Coord) *Interface {
	ifc, ok := n.ifcs[coord]
	if !ok {
		panic(fmt.Sprintf("torus: no interface at %v", coord))
	}
	return ifc
}

// Hops returns the dimension-ordered hop count between two coordinates
// with wraparound.
func (n *Network) Hops(a, b Coord) int {
	total := 0
	for d := 0; d < 3; d++ {
		dim := n.cfg.Dims[d]
		if dim <= 1 {
			continue
		}
		diff := a[d] - b[d]
		if diff < 0 {
			diff = -diff
		}
		if wrap := dim - diff; wrap < diff {
			diff = wrap
		}
		total += diff
	}
	return total
}

// reserve serializes n bytes onto a directed link and returns the cycle at
// which the tail leaves the link.
func (n *Network) reserve(k linkKey, bytes int, earliest sim.Cycles) sim.Cycles {
	packets := (bytes + PacketBytes - 1) / PacketBytes
	if packets == 0 {
		packets = 1
	}
	ser := sim.Cycles(float64(bytes)*n.cfg.CyclesPerByte) + sim.Cycles(packets)*n.cfg.PerPacket
	start := earliest
	if bu := n.links[k]; bu > start {
		start = bu
	}
	n.links[k] = start + ser
	return start + ser
}

// transferDone computes the arrival time of a transfer of size bytes from
// a to b, reserving the injection and reception links. First-hop direction
// determines the contended injection link.
func (n *Network) transferDone(a, b Coord, bytes int) sim.Cycles {
	now := n.eng.Now()
	dim, pos := n.firstHop(a, b)
	var tail sim.Cycles
	if dim < 0 { // self-send: no wire
		tail = now
	} else {
		tail = n.reserve(linkKey{a, dim, pos}, bytes, now)
		tail = n.reserve(linkKey{b, dim, !pos}, bytes, tail-reserveOverlap(bytes, n.cfg))
	}
	hops := n.Hops(a, b)
	return tail + sim.Cycles(hops)*n.cfg.HopLatency
}

// reserveOverlap lets the reception link overlap the injection link
// (cut-through routing): all but one packet's worth of time overlaps.
func reserveOverlap(bytes int, cfg Config) sim.Cycles {
	ser := sim.Cycles(float64(bytes) * cfg.CyclesPerByte)
	onePkt := sim.Cycles(float64(PacketBytes) * cfg.CyclesPerByte)
	if ser > onePkt {
		return ser - onePkt
	}
	return 0
}

func (n *Network) firstHop(a, b Coord) (int, bool) {
	for d := 0; d < 3; d++ {
		dim := n.cfg.Dims[d]
		if dim <= 1 || a[d] == b[d] {
			continue
		}
		fwd := (b[d] - a[d] + dim) % dim
		bwd := (a[d] - b[d] + dim) % dim
		return d, fwd <= bwd
	}
	return -1, false
}

// Packet is an active-message packet (eager data or protocol control).
type Packet struct {
	From    Coord
	Tag     uint32
	Kind    uint8
	Seq     uint64 // per-sender sequence number (reliable-delivery identity)
	Payload []byte
}

// Interface is one node's torus port plus DMA engine.
type Interface struct {
	net   *Network
	chip  *hw.Chip
	coord Coord
	seq   uint64 // last sequence number issued
	dead  bool   // interface killed by a NodeFault

	inbox   []Packet
	waiters []*sim.Coro

	PacketsSent uint64
	BytesPut    uint64
	Descriptors uint64
}

// Coord returns the interface's coordinate.
func (i *Interface) Coord() Coord { return i.coord }

// Chip returns the attached chip.
func (i *Interface) Chip() *hw.Chip { return i.chip }

// retransBackoff is the base sender backoff after a CRC-corrupted torus
// transfer; it doubles per consecutive corruption.
const retransBackoff = sim.Cycles(170)

// retransPenalty draws this transfer's seeded CRC corruptions (if the
// chip has a fault source attached) and returns the extra link time:
// each corrupted attempt re-serializes the transfer after an
// exponentially growing backoff, counted in the UPC unit.
func (i *Interface) retransPenalty(bytes int) sim.Cycles {
	f := i.chip.Faults
	if f == nil {
		return 0
	}
	n := f.LinkRetransmits("torus")
	if n == 0 {
		return 0
	}
	packets := (bytes + PacketBytes - 1) / PacketBytes
	if packets == 0 {
		packets = 1
	}
	ser := sim.Cycles(float64(bytes)*i.net.cfg.CyclesPerByte) + sim.Cycles(packets)*i.net.cfg.PerPacket
	var extra sim.Cycles
	for a := 0; a < n; a++ {
		extra += ser + (retransBackoff << a)
	}
	u := i.chip.UPC
	u.Add(upc.ChipScope, upc.LinkCRC, uint64(n))
	u.Add(upc.ChipScope, upc.LinkRetransmit, uint64(n))
	return extra
}

// chargeRetrans extends a transfer's link reservations by its drawn
// retransmission time: a corrupted attempt re-serializes on the same
// wires, so followers must see them busy for the extra cycles too, not
// just the arrival pushed out.
func (n *Network) chargeRetrans(a, b Coord, extra sim.Cycles) {
	if extra == 0 {
		return
	}
	dim, pos := n.firstHop(a, b)
	if dim < 0 {
		return
	}
	n.links[linkKey{a, dim, pos}] += extra
	n.links[linkKey{b, dim, !pos}] += extra
}

func (i *Interface) requireUnits() {
	if !i.chip.UnitEnabled(hw.UnitTorus) {
		panic(fmt.Sprintf("torus: torus unit broken on chip %d", i.chip.ID))
	}
	if !i.chip.UnitEnabled(hw.UnitDMA) {
		panic(fmt.Sprintf("torus: DMA unit broken on chip %d", i.chip.ID))
	}
}

// SendPacket injects an active-message packet toward dst; it is delivered
// to dst's inbox after network traversal. Non-blocking (memfifo
// injection); the caller charges its own software overhead.
func (i *Interface) SendPacket(dst Coord, tag uint32, kind uint8, payload []byte) {
	i.requireUnits()
	if len(payload) > PacketBytes {
		panic("torus: active-message payload exceeds one packet; use Put")
	}
	i.seq++
	p := Packet{From: i.coord, Tag: tag, Kind: kind, Seq: i.seq, Payload: append([]byte(nil), payload...)}
	i.PacketsSent++
	u := i.chip.UPC
	u.Inc(upc.ChipScope, upc.TorusPacket)
	u.Trace.Emit(upc.EvTorusPacket, upc.ChipScope, i.net.eng.Now(), uint64(tag))
	if i.net.faults != nil {
		target := i.net.At(dst)
		sendAt := i.net.eng.Now()
		node := i.chip.ID
		i.sendArmed(dst, len(payload), 0, func(err error) {
			if err == nil {
				// The armed path's delivery instant is only known here
				// (retransmits and detours moved it), so the span closes
				// at delivery.
				i.net.obs.Emit(obs.CatMsg, "torus:pkt", node, 0, sendAt, i.net.eng.Now(), uint64(len(p.Payload)))
				target.deliver(p)
			}
		})
		return
	}
	pen := i.retransPenalty(len(payload))
	done := i.net.transferDone(i.coord, dst, len(payload)) + pen
	i.net.chargeRetrans(i.coord, dst, pen)
	target := i.net.At(dst)
	i.net.obs.Emit(obs.CatMsg, "torus:pkt", i.chip.ID, 0, i.net.eng.Now(), done+i.net.cfg.RecvOverhead, uint64(len(payload)))
	i.net.eng.At(done+i.net.cfg.RecvOverhead, func() { target.deliver(p) })
}

func (i *Interface) deliver(p Packet) {
	i.inbox = append(i.inbox, p)
	for _, c := range i.waiters {
		c.Wake()
	}
}

// RecvMatch blocks until a packet satisfying pred arrives and returns it.
func (i *Interface) RecvMatch(c *sim.Coro, pred func(Packet) bool) Packet {
	for {
		for idx, p := range i.inbox {
			if pred(p) {
				i.inbox = append(i.inbox[:idx], i.inbox[idx+1:]...)
				return p
			}
		}
		i.waiters = append(i.waiters, c)
		c.Park(sim.Forever)
		for idx, w := range i.waiters {
			if w == c {
				i.waiters = append(i.waiters[:idx], i.waiters[idx+1:]...)
				break
			}
		}
	}
}

// RecvMatchErr is RecvMatch with delivery-failure semantics: on a
// network without hard faults armed it blocks exactly like RecvMatch,
// but on an armed network the wait is bounded by the end-to-end receive
// timeout and surfaces a typed *DeliveryError — instead of a coro parked
// forever — when the local interface dies or expected traffic never
// arrives (lost on a dead wire, sender dead, route gone).
func (i *Interface) RecvMatchErr(c *sim.Coro, pred func(Packet) bool) (Packet, error) {
	if i.net.faults == nil {
		return i.RecvMatch(c, pred), nil
	}
	f := i.net.faults
	deadline := i.net.eng.Now() + f.recvTimeout
	for {
		for idx, p := range i.inbox {
			if pred(p) {
				i.inbox = append(i.inbox[:idx], i.inbox[idx+1:]...)
				return p, nil
			}
		}
		if i.dead {
			i.chip.UPC.Inc(upc.ChipScope, upc.TorusE2ETimeout)
			return Packet{}, &DeliveryError{From: i.coord, To: i.coord, Reason: "local node dead"}
		}
		now := i.net.eng.Now()
		if now >= deadline {
			i.chip.UPC.Inc(upc.ChipScope, upc.TorusE2ETimeout)
			return Packet{}, &DeliveryError{From: i.coord, To: i.coord, Reason: "receive timed out waiting for delivery"}
		}
		i.waiters = append(i.waiters, c)
		c.Park(deadline - now)
		for idx, w := range i.waiters {
			if w == c {
				i.waiters = append(i.waiters[:idx], i.waiters[idx+1:]...)
				break
			}
		}
	}
}

// Poll returns a packet matching pred without blocking.
func (i *Interface) Poll(pred func(Packet) bool) (Packet, bool) {
	for idx, p := range i.inbox {
		if pred(p) {
			i.inbox = append(i.inbox[:idx], i.inbox[idx+1:]...)
			return p, true
		}
	}
	return Packet{}, false
}

// PhysRange mirrors mem.PhysRange at the hardware level.
type PhysRange struct {
	PA  hw.PAddr
	Len uint64
}

// Put performs a direct-put DMA: bytes from src physical ranges on this
// node are written to dst physical ranges on the remote node. onDone (if
// non-nil) runs when the transfer completes at the destination (the
// reception counter hitting zero), with a nil error — or, on an armed
// network, with a *DeliveryError when the transfer could not be
// delivered. The injection cost is charged per descriptor: one per
// source range.
func (i *Interface) Put(dst Coord, src, dstRanges []PhysRange, onDone func(error)) sim.Cycles {
	i.requireUnits()
	target := i.net.At(dst)
	var total uint64
	for _, r := range src {
		total += r.Len
	}
	var dtotal uint64
	for _, r := range dstRanges {
		dtotal += r.Len
	}
	if total != dtotal {
		panic(fmt.Sprintf("torus: put size mismatch %d vs %d", total, dtotal))
	}
	// Copy the bytes now (source buffer at injection time) and deliver at
	// the modelled completion time.
	data := make([]byte, total)
	off := uint64(0)
	for _, r := range src {
		i.chip.Mem.Read(r.PA, data[off:off+r.Len])
		off += r.Len
	}
	descCost := sim.Cycles(uint64(len(src))) * i.net.cfg.PerDescriptor
	i.Descriptors += uint64(len(src))
	i.BytesPut += total
	u := i.chip.UPC
	u.Add(upc.ChipScope, upc.DMADescriptor, uint64(len(src)))
	u.Add(upc.ChipScope, upc.TorusBytes, total)
	u.Trace.Emit(upc.EvDMAInject, upc.ChipScope, i.net.eng.Now(), total)
	land := func() {
		off := uint64(0)
		for _, r := range dstRanges {
			target.chip.Mem.Write(r.PA, data[off:off+r.Len])
			off += r.Len
		}
		if onDone != nil {
			onDone(nil)
		}
	}
	if i.net.faults != nil {
		return i.sendArmed(dst, int(total), descCost, func(err error) {
			if err != nil {
				if onDone != nil {
					onDone(err)
				}
				return
			}
			land()
		})
	}
	pen := i.retransPenalty(int(total))
	done := i.net.transferDone(i.coord, dst, int(total)) + descCost +
		i.net.cfg.RecvOverhead + pen
	i.net.chargeRetrans(i.coord, dst, pen)
	i.net.eng.At(done, land)
	return done
}

// Get fetches bytes from remote physical ranges into local ranges: a
// request packet travels to the remote DMA, which responds with a put.
// onDone runs locally when the data has landed (nil error), or with a
// *DeliveryError when either leg of an armed transfer failed.
func (i *Interface) Get(dst Coord, remote, local []PhysRange, onDone func(error)) {
	i.requireUnits()
	target := i.net.At(dst)
	i.Descriptors++
	i.chip.UPC.Inc(upc.ChipScope, upc.DMADescriptor)
	i.chip.UPC.Trace.Emit(upc.EvDMAInject, upc.ChipScope, i.net.eng.Now(), 16)
	if i.net.faults != nil {
		// Reliable request leg; the data leg is the remote's armed Put,
		// which passes its own delivery error through onDone.
		i.sendArmed(dst, 16, 0, func(err error) {
			if err != nil {
				if onDone != nil {
					onDone(err)
				}
				return
			}
			target.Put(i.coord, remote, local, onDone)
		})
		return
	}
	pen := i.retransPenalty(16) // request descriptor packet
	reqDone := i.net.transferDone(i.coord, dst, 16) + pen
	i.net.chargeRetrans(i.coord, dst, pen)
	i.net.eng.At(reqDone+i.net.cfg.RecvOverhead, func() {
		target.Put(i.coord, remote, local, onDone)
	})
}

// Requeue returns a polled packet to the front of the inbox (used by
// protocol layers that peek to choose a receive path). Waiters are woken:
// the requeued packet may be exactly what a parked RecvMatch is matching
// on, and without the wake that coro would sleep forever.
func (i *Interface) Requeue(p Packet) {
	i.inbox = append([]Packet{p}, i.inbox...)
	for _, c := range i.waiters {
		c.Wake()
	}
}
