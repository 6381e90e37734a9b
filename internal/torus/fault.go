// Hard network faults: seeded link/node deaths, fault-region routing and
// end-to-end reliable delivery.
//
// The lessons-learned half of the paper is about RAS: on a real machine
// links and nodes die, and the network must either route around the
// damage or surface a clean partition-level failure to the control
// system. This file makes hard network failure a first-class,
// cycle-exactly-replayable event: a FaultPlan drawn from a dedicated RNG
// stream kills directed links and whole interfaces at drawn cycles, each
// source's detour routes come from one breadth-first search over the
// surviving wiring (run on its first lookup after a death, cached until
// the next), transfers crossing a dead wire are lost and retransmitted
// end-to-end with exponential backoff, and when no route survives the
// sender gets a typed DeliveryError instead of a silently hung coroutine.
// CheckPlanWiring refuses, before anything is built, a plan that will
// disconnect the partition.
//
// Everything here is gated on ArmFaults: a network that never arms hard
// faults runs the exact legacy code path, event for event.
package torus

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"slices"
	"sort"

	"bgcnk/internal/codec"
	"bgcnk/internal/ras"
	"bgcnk/internal/sim"
	"bgcnk/internal/upc"
)

// ErrUnroutable is wrapped by DeliveryError when no path survives the
// fault set between two live endpoints; test with errors.Is.
var ErrUnroutable = errors.New("torus: no route survives the fault set")

// DeliveryError is the typed failure a reliable transfer surfaces into
// the messaging layers (dcmf, collective, barrier) instead of hanging a
// parked coroutine.
type DeliveryError struct {
	From, To   Coord
	Retries    int    // retransmit attempts consumed before giving up
	Reason     string // human-readable cause
	Unroutable bool   // no surviving route (wraps ErrUnroutable)
}

func (e *DeliveryError) Error() string {
	return fmt.Sprintf("torus: delivery %v -> %v failed after %d retries: %s",
		e.From, e.To, e.Retries, e.Reason)
}

// Unwrap lets errors.Is(err, ErrUnroutable) see through a routing death.
func (e *DeliveryError) Unwrap() error {
	if e.Unroutable {
		return ErrUnroutable
	}
	return nil
}

// LinkFault kills the directed link leaving C along dimension Dim
// (positive or negative direction) at cycle At.
type LinkFault struct {
	C   Coord
	Dim int
	Pos bool
	At  sim.Cycles
}

// NodeFault kills the whole interface at C — every link it owns — at
// cycle At.
type NodeFault struct {
	C  Coord
	At sim.Cycles
}

// FaultPlan is a drawn schedule of hard network faults. Plans are values:
// two machines armed with equal plans fail identically.
type FaultPlan struct {
	Links []LinkFault
	Nodes []NodeFault
}

// Empty reports whether the plan kills nothing.
func (p *FaultPlan) Empty() bool { return p == nil || (len(p.Links) == 0 && len(p.Nodes) == 0) }

func coordLess(a, b Coord) bool {
	for d := 0; d < 3; d++ {
		if a[d] != b[d] {
			return a[d] < b[d]
		}
	}
	return false
}

func linkFaultLess(a, b LinkFault) bool {
	if a.At != b.At {
		return a.At < b.At
	}
	if a.C != b.C {
		return coordLess(a.C, b.C)
	}
	if a.Dim != b.Dim {
		return a.Dim < b.Dim
	}
	return a.Pos && !b.Pos
}

func nodeFaultLess(a, b NodeFault) bool {
	if a.At != b.At {
		return a.At < b.At
	}
	return coordLess(a.C, b.C)
}

// EnumCoords lists every coordinate of a dims-shaped torus in canonical
// row-major order (x outermost) — the rank-to-coordinate mapping the
// machine layer uses for non-ring topologies; nodeIndex inverts it.
func EnumCoords(dims Coord) []Coord {
	out := make([]Coord, 0, nodeCount(dims))
	for x := 0; x < max1(dims[0]); x++ {
		for y := 0; y < max1(dims[1]); y++ {
			for z := 0; z < max1(dims[2]); z++ {
				out = append(out, Coord{x, y, z})
			}
		}
	}
	return out
}

func max1(n int) int {
	if n < 1 {
		return 1
	}
	return n
}

// nodeCount is the number of nodes in a dims-shaped torus.
func nodeCount(dims Coord) int { return max1(dims[0]) * max1(dims[1]) * max1(dims[2]) }

// nodeIndex is c's position in EnumCoords order.
func nodeIndex(c Coord, dims Coord) int {
	return (c[0]*max1(dims[1])+c[1])*max1(dims[2]) + c[2]
}

// step returns the neighbor of c one hop along dim in the given
// direction, with wraparound.
func step(c Coord, dim int, pos bool, dims Coord) Coord {
	n := dims[dim]
	if pos {
		c[dim] = (c[dim] + 1) % n
	} else {
		c[dim] = (c[dim] - 1 + n) % n
	}
	return c
}

// DrawFaultPlan draws nLinks directed-link deaths and nNodes node deaths
// (without replacement) with death cycles uniform in (0, window], purely
// from rng — a pure function of (rng seed, dims, counts, window), so a
// plan replays bit-identically. At least one node always survives.
func DrawFaultPlan(rng *sim.RNG, dims Coord, nLinks, nNodes int, window sim.Cycles) *FaultPlan {
	if window <= 0 {
		window = 1
	}
	p := &FaultPlan{}
	coords := EnumCoords(dims)

	var links []LinkFault
	for _, c := range coords {
		for d := 0; d < 3; d++ {
			if dims[d] <= 1 {
				continue
			}
			links = append(links, LinkFault{C: c, Dim: d, Pos: true})
			links = append(links, LinkFault{C: c, Dim: d, Pos: false})
		}
	}
	if nLinks > len(links) {
		nLinks = len(links)
	}
	// Partial Fisher-Yates: the first nLinks entries become the sample.
	for i := 0; i < nLinks; i++ {
		j := i + rng.Intn(len(links)-i)
		links[i], links[j] = links[j], links[i]
		links[i].At = 1 + rng.Cycles(window)
		p.Links = append(p.Links, links[i])
	}

	if nNodes >= len(coords) {
		nNodes = len(coords) - 1 // the machine keeps at least one survivor
	}
	nodes := append([]Coord(nil), coords...)
	for i := 0; i < nNodes; i++ {
		j := i + rng.Intn(len(nodes)-i)
		nodes[i], nodes[j] = nodes[j], nodes[i]
		p.Nodes = append(p.Nodes, NodeFault{C: nodes[i], At: 1 + rng.Cycles(window)})
	}

	sort.Slice(p.Links, func(i, j int) bool { return linkFaultLess(p.Links[i], p.Links[j]) })
	sort.Slice(p.Nodes, func(i, j int) bool { return nodeFaultLess(p.Nodes[i], p.Nodes[j]) })
	return p
}

// ---- fault-plan codec ----
//
// Versioned canonical binary form, fuzzed (FuzzFaultPlan): any bytes
// Unmarshal accepts must re-Marshal to exactly the input.

var faultPlanMagic = [4]byte{'T', 'N', 'F', '1'}

// maxPlanEntries bounds decoded entry counts so corrupt input cannot ask
// for gigabytes.
const maxPlanEntries = 1 << 16

// maxCoordVal bounds coordinates in the wire form (no real torus
// dimension approaches it).
const maxCoordVal = 1 << 20

// Marshal encodes the plan in its canonical wire form (entries sorted by
// death cycle, then coordinate/dimension/direction).
func (p *FaultPlan) Marshal() []byte {
	links := append([]LinkFault(nil), p.Links...)
	nodes := append([]NodeFault(nil), p.Nodes...)
	sort.Slice(links, func(i, j int) bool { return linkFaultLess(links[i], links[j]) })
	sort.Slice(nodes, func(i, j int) bool { return nodeFaultLess(nodes[i], nodes[j]) })

	e := codec.Enc{B: make([]byte, 0, 12+len(links)*22+len(nodes)*20), Order: binary.BigEndian}
	e.B = append(e.B, faultPlanMagic[:]...)
	e.U32(uint32(len(links)))
	for _, lf := range links {
		putCoord(&e, lf.C)
		e.U8(uint8(lf.Dim))
		e.Bool(lf.Pos)
		e.U64(uint64(lf.At))
	}
	e.U32(uint32(len(nodes)))
	for _, nf := range nodes {
		putCoord(&e, nf.C)
		e.U64(uint64(nf.At))
	}
	return e.B
}

func putCoord(e *codec.Enc, c Coord) {
	for d := 0; d < 3; d++ {
		e.U32(uint32(c[d]))
	}
}

func getCoord(d *codec.Dec) Coord {
	var c Coord
	for i := 0; i < 3; i++ {
		v := d.U32()
		if v >= maxCoordVal {
			d.Fail("coordinate %d out of range", v)
		}
		c[i] = int(v)
	}
	return c
}

// UnmarshalFaultPlan decodes a canonical fault-plan wire image, strictly
// rejecting truncation, trailing bytes, out-of-range fields and
// non-canonical ordering.
func UnmarshalFaultPlan(b []byte) (*FaultPlan, error) {
	d := codec.NewDec(b, binary.BigEndian, "torus: fault plan")
	if !bytes.Equal(d.Raw(4), faultPlanMagic[:]) {
		return nil, errors.New("torus: bad fault-plan magic")
	}
	p := &FaultPlan{}
	nl := d.U32()
	if nl > maxPlanEntries {
		return nil, fmt.Errorf("torus: fault plan claims %d link faults", nl)
	}
	for i := uint32(0); i < nl && d.Err() == nil; i++ {
		lf := LinkFault{C: getCoord(d)}
		dim := d.U8()
		pos := d.U8()
		lf.At = sim.Cycles(d.U64())
		if d.Err() != nil {
			break
		}
		if dim > 2 || pos > 1 {
			return nil, errors.New("torus: fault-plan link field out of range")
		}
		if lf.At < 1 {
			return nil, errors.New("torus: fault-plan death cycle must be positive")
		}
		lf.Dim, lf.Pos = int(dim), pos == 1
		if n := len(p.Links); n > 0 && !linkFaultLess(p.Links[n-1], lf) {
			return nil, errors.New("torus: fault-plan links not in canonical order")
		}
		p.Links = append(p.Links, lf)
	}
	nn := d.U32()
	if nn > maxPlanEntries {
		return nil, fmt.Errorf("torus: fault plan claims %d node faults", nn)
	}
	for i := uint32(0); i < nn && d.Err() == nil; i++ {
		nf := NodeFault{C: getCoord(d), At: sim.Cycles(d.U64())}
		if d.Err() != nil {
			break
		}
		if nf.At < 1 {
			return nil, errors.New("torus: fault-plan death cycle must be positive")
		}
		if n := len(p.Nodes); n > 0 && !nodeFaultLess(p.Nodes[n-1], nf) {
			return nil, errors.New("torus: fault-plan nodes not in canonical order")
		}
		p.Nodes = append(p.Nodes, nf)
	}
	if err := d.Finish(); err != nil {
		return nil, err
	}
	return p, nil
}

// ---- routing ----

// Arrival moves recorded by walk: move 2*dim crossed the positive link of
// dim, 2*dim+1 the negative one.
const (
	viaNone   = -1 // node not reached
	viaSource = 6  // the walk's starting node
)

// walk is a breadth-first search from src over the links and nodes the
// callbacks report alive, in the fixed neighbour order that makes a
// healthy torus route exactly dimension-ordered: dimensions ascending,
// the positive direction first. It returns, per node index, the move
// that first reached the node. With reverse set it follows links
// backwards, so the reached nodes are those that can reach src.
func walk(dims, src Coord, reverse bool, linkAlive func(linkKey) bool, nodeAlive func(Coord) bool) []int8 {
	via := make([]int8, nodeCount(dims))
	for i := range via {
		via[i] = viaNone
	}
	via[nodeIndex(src, dims)] = viaSource
	queue := make([]Coord, 1, len(via))
	queue[0] = src
	for h := 0; h < len(queue); h++ {
		u := queue[h]
		for d := 0; d < 3; d++ {
			if dims[d] <= 1 {
				continue
			}
			for m, pos := range [2]bool{true, false} {
				v := step(u, d, pos != reverse, dims)
				k := linkKey{u, d, pos}
				if reverse {
					k.c = v
				}
				if !linkAlive(k) || !nodeAlive(v) {
					continue
				}
				if i := nodeIndex(v, dims); via[i] == viaNone {
					via[i] = int8(2*d + m)
					queue = append(queue, v)
				}
			}
		}
	}
	return via
}

// unreachablePair finds a pair of live nodes with no surviving path
// between them, or reports ok when every live node reaches every other.
// One forward and one reverse walk from the first live node decide it:
// the wiring is strongly connected exactly when both walks reach every
// live node.
func unreachablePair(dims Coord, linkAlive func(linkKey) bool, nodeAlive func(Coord) bool) (from, to Coord, ok bool) {
	coords := EnumCoords(dims)
	var fwd, rev []int8
	for i, c := range coords {
		if !nodeAlive(c) {
			continue
		}
		if fwd == nil {
			from = c
			fwd = walk(dims, c, false, linkAlive, nodeAlive)
			rev = walk(dims, c, true, linkAlive, nodeAlive)
		}
		if fwd[i] == viaNone {
			return from, c, false
		}
		if rev[i] == viaNone {
			return c, from, false
		}
	}
	return Coord{}, Coord{}, true
}

// CheckPlanWiring verifies that even after every death in plan has
// landed, each surviving node of a dims-shaped torus can still reach
// every other. This is the boot-time partition wiring validation: a
// seeded fault schedule is part of the partition's configuration, and a
// topology it will disconnect must fail fast at boot instead of
// stranding a job mid-run. It is a pure function of (dims, plan), so it
// runs before anything is built; the error wraps ErrUnroutable and names
// one unreachable pair.
func CheckPlanWiring(dims Coord, plan *FaultPlan) error {
	deadL := make(map[linkKey]bool, len(plan.Links))
	deadN := make(map[Coord]bool, len(plan.Nodes))
	for _, lf := range plan.Links {
		deadL[linkKey{lf.C, lf.Dim, lf.Pos}] = true
	}
	for _, nf := range plan.Nodes {
		deadN[nf.C] = true
	}
	a, b, ok := unreachablePair(dims,
		func(k linkKey) bool { return !deadL[k] },
		func(c Coord) bool { return !deadN[c] })
	if !ok {
		return fmt.Errorf("torus: partition wiring %v -> %v after planned faults: %w", a, b, ErrUnroutable)
	}
	return nil
}

// ---- armed fault state ----

// End-to-end reliable-delivery parameters.
const (
	// maxE2ERetries bounds retransmit attempts per transfer.
	maxE2ERetries = 5
	// e2eBackoff is the base retransmit delay, doubling per attempt.
	e2eBackoff = sim.Cycles(2_000)
)

// DefaultE2ERecvTimeout is how long an armed receiver waits for expected
// traffic before surfacing a DeliveryError: generous against any healthy
// wait in our workloads, far below the run limits a silent hang would eat.
var DefaultE2ERecvTimeout = sim.FromSeconds(0.05)

type faultState struct {
	resilient   bool
	onNodeDead  func(Coord)
	recvTimeout sim.Cycles

	deadLinks map[linkKey]sim.Cycles // death cycle per dead directed link
	deadNodes map[Coord]sim.Cycles
	// via caches one walk per source node index over the current dead
	// set: built on the source's first route lookup, dropped at every
	// death.
	via [][]int8
}

// ArmFaults arms the hard-fault layer: the plan's deaths are scheduled as
// engine events and (with resilient true) transfers detour around dead
// links and retransmit lost deliveries.
// With resilient false routing stays static dimension-ordered and lost
// packets stay lost — the degrade experiment's baseline. onNodeDead (may
// be nil) runs at each node death, after the RAS event is logged.
func (n *Network) ArmFaults(plan *FaultPlan, resilient bool, onNodeDead func(Coord)) {
	if n.faults != nil {
		panic("torus: hard faults armed twice")
	}
	f := &faultState{
		resilient:   resilient,
		onNodeDead:  onNodeDead,
		recvTimeout: DefaultE2ERecvTimeout,
		deadLinks:   make(map[linkKey]sim.Cycles),
		deadNodes:   make(map[Coord]sim.Cycles),
	}
	n.faults = f
	for _, lf := range plan.Links {
		k := linkKey{lf.C, lf.Dim, lf.Pos}
		n.eng.At(lf.At, func() { n.killLink(k) })
	}
	for _, nf := range plan.Nodes {
		c := nf.C
		n.eng.At(nf.At, func() { n.killNode(c) })
	}
}

// FaultsArmed reports whether the hard-fault layer is active.
func (n *Network) FaultsArmed() bool { return n.faults != nil }

// SetE2ERecvTimeout overrides the armed receiver timeout
// (DefaultE2ERecvTimeout); a no-op on an unarmed network.
func (n *Network) SetE2ERecvTimeout(d sim.Cycles) {
	if n.faults != nil {
		n.faults.recvTimeout = d
	}
}

// DeadLinks counts directed links currently dead (node deaths included).
func (n *Network) DeadLinks() int {
	if n.faults == nil {
		return 0
	}
	return len(n.faults.deadLinks)
}

func (f *faultState) linkAlive(k linkKey) bool {
	if _, dead := f.deadLinks[k]; dead {
		return false
	}
	return true
}

func (f *faultState) nodeAlive(c Coord) bool {
	_, dead := f.deadNodes[c]
	return !dead
}

// killLink marks one directed link dead: RAS-logged against the owning
// node, counted in its UPC unit, and every cached walk dropped.
func (n *Network) killLink(k linkKey) {
	f := n.faults
	if _, dead := f.deadLinks[k]; dead {
		return
	}
	f.deadLinks[k] = n.eng.Now()
	dir := "-"
	if k.pos {
		dir = "+"
	}
	if ifc, ok := n.ifcs[k.c]; ok {
		ifc.chip.UPC.Inc(upc.ChipScope, upc.TorusLinkDead)
		if ifc.chip.Faults != nil {
			ifc.chip.Faults.Report(ras.LinkFail, "torus",
				fmt.Sprintf("directed link %v dim %d%s died", k.c, k.dim, dir))
		}
	}
	clear(f.via)
}

// killNode marks a whole interface dead: every link it owns dies with it,
// the event is RAS-logged, blocked receivers are woken so they surface
// errors instead of sleeping forever, and onNodeDead runs last (the
// machine layer uses it to kill the job partition-wide).
func (n *Network) killNode(c Coord) {
	f := n.faults
	if _, dead := f.deadNodes[c]; dead {
		return
	}
	now := n.eng.Now()
	f.deadNodes[c] = now
	ifc := n.ifcs[c]
	for d := 0; d < 3; d++ {
		if n.cfg.Dims[d] <= 1 {
			continue
		}
		for _, pos := range [2]bool{true, false} {
			k := linkKey{c, d, pos}
			if _, dead := f.deadLinks[k]; !dead {
				f.deadLinks[k] = now
				if ifc != nil {
					ifc.chip.UPC.Inc(upc.ChipScope, upc.TorusLinkDead)
				}
			}
		}
	}
	if ifc != nil {
		ifc.dead = true
		if ifc.chip.Faults != nil {
			ifc.chip.Faults.Report(ras.NodeFail, "torus",
				fmt.Sprintf("node %v torus interface died with all its links", c))
		}
	}
	clear(f.via)
	if ifc != nil {
		for _, w := range ifc.waiters {
			w.Wake()
		}
	}
	if f.onNodeDead != nil {
		f.onNodeDead(c)
	}
}

// legacyPath is the static dimension-ordered minimal route, dead links
// ignored — what a torus without fault-region routing injects into. Used
// by the resilience-off arm so its losses are the unmitigated baseline.
func legacyPath(a, b Coord, dims Coord) []linkKey {
	var out []linkKey
	cur := a
	for d := 0; d < 3; d++ {
		n := dims[d]
		if n <= 1 || cur[d] == b[d] {
			continue
		}
		fwd := (b[d] - cur[d] + n) % n
		bwd := (cur[d] - b[d] + n) % n
		pos := fwd <= bwd
		steps := fwd
		if !pos {
			steps = bwd
		}
		for s := 0; s < steps; s++ {
			out = append(out, linkKey{cur, d, pos})
			cur = step(cur, d, pos, dims)
		}
	}
	return out
}

// path returns the links a transfer a→b (a != b) crosses under the
// current fault state: the shortest detour over surviving wiring when
// resilient, the static dimension-ordered route when not. nil means
// unroutable (resilient only). The detour is read off a's walk by
// following arrival moves back from b.
func (f *faultState) path(a, b Coord, dims Coord) []linkKey {
	if !f.resilient {
		return legacyPath(a, b, dims)
	}
	if !f.nodeAlive(a) {
		return nil
	}
	if f.via == nil {
		f.via = make([][]int8, nodeCount(dims))
	}
	ia := nodeIndex(a, dims)
	if f.via[ia] == nil {
		f.via[ia] = walk(dims, a, false, f.linkAlive, f.nodeAlive)
	}
	via := f.via[ia]
	var out []linkKey
	for c := b; c != a; {
		m := via[nodeIndex(c, dims)]
		if m == viaNone {
			return nil
		}
		d, pos := int(m/2), m%2 == 0
		c = step(c, d, !pos, dims)
		out = append(out, linkKey{c, d, pos})
	}
	slices.Reverse(out)
	return out
}

// lost reports whether a transfer over path, arriving at done, crossed a
// link (or reached a destination) that died before the arrival.
func (f *faultState) lost(path []linkKey, dst Coord, done sim.Cycles) bool {
	for _, k := range path {
		if at, dead := f.deadLinks[k]; dead && at < done {
			return true
		}
	}
	if at, dead := f.deadNodes[dst]; dead && at < done {
		return true
	}
	return false
}

// routedDone is transferDone for an armed network: the route comes from
// the fault state, detour links are reserved for contention and the
// extra hops charged at HopLatency. Returns the tail-arrival time, the
// links crossed (for in-flight loss checks) and the extra hop count.
func (n *Network) routedDone(a, b Coord, bytes int) (done sim.Cycles, path []linkKey, extraHops int, err error) {
	now := n.eng.Now()
	f := n.faults
	if a == b {
		return now, nil, 0, nil
	}
	path = f.path(a, b, n.cfg.Dims)
	if path == nil {
		return 0, nil, 0, &DeliveryError{From: a, To: b, Unroutable: true, Reason: "no surviving route"}
	}
	min := n.Hops(a, b)
	L := len(path)
	tail := n.reserve(path[0], bytes, now)
	if L > min {
		// Detouring: the extra wires are real contended links, charged like
		// any other reservation (cut-through overlapped).
		for _, k := range path[1 : L-1] {
			tail = n.reserve(k, bytes, tail-reserveOverlap(bytes, n.cfg))
		}
		extraHops = L - min
	}
	if L > 1 {
		// Reception port at b, mirroring the legacy model: keyed as b's
		// reverse direction of the final hop.
		last := path[L-1]
		tail = n.reserve(linkKey{b, last.dim, !last.pos}, bytes, tail-reserveOverlap(bytes, n.cfg))
	}
	return tail + sim.Cycles(L)*n.cfg.HopLatency, path, extraHops, nil
}

// sendArmed drives one end-to-end reliable transfer on an armed network:
// sequence the attempt, route it, detect in-flight loss at the would-be
// arrival, retransmit with exponential backoff over the route that
// survives at the retry, and surface a typed DeliveryError when delivery
// is impossible. complete runs exactly once — at the arrival instant with
// nil, or at abandonment with the error. extraCost is per-attempt
// injection overhead (DMA descriptors). Returns the first attempt's arrival estimate.
func (i *Interface) sendArmed(dst Coord, bytes int, extraCost sim.Cycles, complete func(error)) sim.Cycles {
	f := i.net.faults
	u := i.chip.UPC
	first := sim.Cycles(0)
	var attempt func(try int)
	attempt = func(try int) {
		if !f.nodeAlive(i.coord) {
			u.Inc(upc.ChipScope, upc.TorusE2ETimeout)
			complete(&DeliveryError{From: i.coord, To: dst, Retries: try, Reason: "local node dead"})
			return
		}
		done, path, extra, err := i.net.routedDone(i.coord, dst, bytes)
		if err != nil {
			u.Inc(upc.ChipScope, upc.TorusE2ETimeout)
			if de, ok := err.(*DeliveryError); ok {
				de.Retries = try
			}
			complete(err)
			return
		}
		if extra > 0 {
			u.Add(upc.ChipScope, upc.TorusRouteDetour, uint64(extra))
		}
		if pen := i.retransPenalty(bytes); pen > 0 {
			// CRC retransmits re-serialize on the injection wire: charge the
			// link reservation too, not just the arrival.
			if len(path) > 0 {
				i.net.links[path[0]] += pen
			}
			done += pen
		}
		arrival := done + extraCost + i.net.cfg.RecvOverhead
		if try == 0 {
			first = arrival
		}
		i.net.eng.At(arrival, func() {
			if !f.lost(path, dst, arrival) {
				complete(nil)
				return
			}
			if f.resilient && try < maxE2ERetries {
				u.Inc(upc.ChipScope, upc.TorusE2ERetry)
				i.net.eng.After(e2eBackoff<<uint(try), func() { attempt(try + 1) })
				return
			}
			u.Inc(upc.ChipScope, upc.TorusE2ETimeout)
			complete(&DeliveryError{From: i.coord, To: dst, Retries: try, Reason: "delivery lost on dead path"})
		})
	}
	attempt(0)
	return first
}
