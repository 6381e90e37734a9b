package hw

import (
	"sync"

	"bgcnk/internal/ras"
	"bgcnk/internal/sim"
	"bgcnk/internal/upc"
)

// Cache geometry and cost constants, approximating Blue Gene/P.
const (
	L1LineSize    = 32   // bytes per L1 line (PPC450)
	L1Sets        = 64   // 64 sets x 16 ways x 32B = 32KB
	L1Ways        = 16   //
	L3LineSize    = 128  // bytes per L3 line
	L3Sets        = 4096 // 4096 sets x 16 ways x 128B = 8MB shared eDRAM
	L3Ways        = 16   //
	CostL3Hit     = 46   // extra cycles for an L1 load miss filled from L3
	CostDDR       = 104  // extra cycles for an L3 miss filled from DDR
	CostStoreMiss = 2    // store-queue throttle for a write-through L1 store miss
	RefreshInt    = 6630 // DRAM refresh interval: 7.8us at 850MHz
	RefreshLen    = 94   // DRAM busy per refresh: ~110ns
	CostECCFix    = 28   // extra stall while ECC corrects a single-bit error
)

// MemEvent is an exceptional condition raised by a memory access.
type MemEvent uint8

// Memory access events.
const (
	EvNone MemEvent = iota
	// EvL1Parity is a soft error in the L1 data array. CNK delivers it to
	// the application for recovery (paper Section V-B, the Gordon Bell
	// "Kelvin-Helmholtz" run); an FWK typically panics or kills the task.
	EvL1Parity
	// EvDDRUncorrectable is a multi-bit DDR error ECC cannot repair: the
	// data is gone. CNK logs the RAS event and kills the job cleanly (the
	// chip is then recoverable via the reproducible-reset path); an FWK
	// scrubs and presses on in-kernel.
	EvDDRUncorrectable
)

// setWays is the associativity of cacheSet. Both levels share the set
// type, so both must be 16-way; the two declarations below fail to compile
// otherwise (a constant index out of range).
const setWays = 16

var (
	_ = [1]struct{}{}[L1Ways-setWays]
	_ = [1]struct{}{}[L3Ways-setWays]
)

// cacheSet is one set of a tag array. A way holds the 32-bit tag
// uint32(line)+1 of its line, or 0 when it is invalid; MaxMemSize keeps
// every line number below 2^32-1, so the encoding is exact. The set holds
// no pointers, and its zero value is an all-invalid set with victim 0, so
// untouched sets need no initialization.
type cacheSet struct {
	tags   [setWays]uint32
	victim uint8 // round-robin, as on the real part — deterministic
}

// lineTag is the tag of line: never 0, the invalid way.
func lineTag(line uint64) uint32 { return uint32(line) + 1 }

// hit probes without filling.
func (s *cacheSet) hit(tag uint32) bool {
	for _, t := range s.tags {
		if t == tag {
			return true
		}
	}
	return false
}

// access returns true on hit; on miss it fills the line.
func (s *cacheSet) access(tag uint32) bool {
	if s.hit(tag) {
		return true
	}
	s.tags[s.victim] = tag
	s.victim = (s.victim + 1) % setWays
	return false
}

// l3PageSets is the L3 allocation granule, in sets. A chip's L3 is a
// table of pages allocated on first touch: most runs touch a small part
// of the 8MB array, and an untouched set is indistinguishable from an
// all-invalid one.
const l3PageSets = 64

type l3Page [l3PageSets]cacheSet

// l3PagePool holds zeroed L3 pages shared by every CacheSim; a released
// chip returns its pages here (see releaseL3Pages).
var l3PagePool = sync.Pool{New: func() any { return new(l3Page) }}

// CacheSim is the chip's memory-hierarchy cost model: private L1 per core,
// a shared 8MB L3, and DDR with a refresh window. It is a deterministic
// state machine: given the same access stream it produces the same costs,
// which is a precondition for the paper's cycle-reproducibility claims.
//
// The model intentionally keeps a real tag array rather than a flat cost:
// the residual "noise floor" CNK shows in FWQ (Fig 7, max variation
// <0.006%) emerges from genuine L1 set conflicts between a benchmark's
// working set and its results buffer, plus DDR refresh collisions — not
// from a tunable jitter dial.
// L3Mapping selects how physical lines map to L3 banks/sets. The BG/P
// memory system exposed configuration parameters controlling "the mapping
// of physical memory to cache controllers and to memory banks within the
// cache", which CNK's bringup controls let designers sweep while running
// application kernels (paper Section III).
type L3Mapping uint8

// L3 mapping policies.
const (
	// L3ModuloMap is the naive modulo index: power-of-two strides
	// collide on a single set.
	L3ModuloMap L3Mapping = iota
	// L3XorFoldMap folds high address bits into the index, spreading
	// power-of-two strides across banks.
	L3XorFoldMap
)

type CacheSim struct {
	l1 [][L1Sets]cacheSet // per core
	l3 [L3Sets / l3PageSets]*l3Page

	// l3map is the configured bank mapping (a chip design parameter).
	l3map L3Mapping

	// parityArm, when set for a core, makes that core's next L1 access
	// report EvL1Parity (soft-error injection for the recovery tests).
	parityArm []bool

	// faults, when attached, draws a seeded soft-error for every DDR fill
	// (the seeded RAS injector; nil on a perfect machine).
	faults *ras.NodeFaults

	// upc routes hit/miss counts to the owning chip's UPC unit; nil for
	// standalone CacheSims in unit tests.
	upc *upc.UPC

	// refreshBase is when the DRAM controller's refresh timer last
	// (re)started; reproducible resets restart it so replayed runs see
	// refresh windows at the same run-relative offsets.
	refreshBase sim.Cycles

	L1Hits, L1Misses   []uint64
	StoreMisses        []uint64
	L3Hits, L3Misses   uint64
	RefreshStalls      uint64
	RefreshStallCycles sim.Cycles
}

// NewCacheSim builds the hierarchy for a chip with cores cores.
func NewCacheSim(cores int) *CacheSim {
	cs := &CacheSim{}
	cs.init(cores)
	return cs
}

func (cs *CacheSim) init(cores int) {
	cs.l1 = make([][L1Sets]cacheSet, cores)
	cs.parityArm = make([]bool, cores)
	cs.L1Hits = make([]uint64, cores)
	cs.L1Misses = make([]uint64, cores)
	cs.StoreMisses = make([]uint64, cores)
}

// SetL3Mapping reconfigures the L3 bank mapping (a bringup control flag;
// normally fixed at boot).
func (cs *CacheSim) SetL3Mapping(m L3Mapping) { cs.l3map = m }

// L3MappingConfigured returns the active mapping.
func (cs *CacheSim) L3MappingConfigured() L3Mapping { return cs.l3map }

// l3index maps an L3 line number to its set under the configured policy.
func (cs *CacheSim) l3index(l3line uint64) uint64 {
	if cs.l3map == L3XorFoldMap {
		l3line ^= l3line >> 12
		l3line ^= l3line >> 24
	}
	return l3line % L3Sets
}

// l3set returns the L3 set l3line maps to, allocating its page on first
// touch.
func (cs *CacheSim) l3set(l3line uint64) *cacheSet {
	i := cs.l3index(l3line)
	p := cs.l3[i/l3PageSets]
	if p == nil {
		p = l3PagePool.Get().(*l3Page)
		cs.l3[i/l3PageSets] = p
	}
	return &p[i%l3PageSets]
}

// ArmL1Parity makes core's next L1 access raise EvL1Parity.
func (cs *CacheSim) ArmL1Parity(core int) { cs.parityArm[core] = true }

// Access charges the cost of touching [pa, pa+size) from core at time now.
// The returned cost covers only hierarchy penalties; the consumer charges
// its own instruction cycles. L1-resident accesses cost zero extra.
func (cs *CacheSim) Access(core int, pa PAddr, size uint32, write bool, now sim.Cycles) (sim.Cycles, MemEvent) {
	ev := EvNone
	if cs.parityArm[core] {
		cs.parityArm[core] = false
		ev = EvL1Parity
	}
	var cost sim.Cycles
	first := uint64(pa) / L1LineSize
	last := (uint64(pa) + uint64(size) - 1) / L1LineSize
	if size == 0 {
		last = first
	}
	u := cs.upc
	for line := first; line <= last; line++ {
		addr := line * L1LineSize
		set := &cs.l1[core][line%L1Sets]
		tag := lineTag(line)
		if set.hit(tag) {
			cs.L1Hits[core]++
			if u != nil {
				u.Inc(core, upc.L1Hit)
			}
			continue
		}
		if write {
			// The PPC450 L1 is write-through with no allocate-on-store:
			// a store miss goes to the store queue and the L2/L3 without
			// installing an L1 line (and without evicting anything). The
			// store buffer absorbs the downstream latency.
			cs.StoreMisses[core]++
			if u != nil {
				u.Inc(core, upc.StoreMiss)
			}
			l3line := addr / L3LineSize
			cs.l3set(l3line).access(lineTag(l3line))
			cost += CostStoreMiss
			continue
		}
		cs.L1Misses[core]++
		if u != nil {
			u.Inc(core, upc.L1Miss)
		}
		set.access(tag) // allocate on load miss
		l3line := addr / L3LineSize
		if cs.l3set(l3line).access(lineTag(l3line)) {
			cs.L3Hits++
			if u != nil {
				u.Inc(upc.ChipScope, upc.L3Hit)
			}
			cost += CostL3Hit
			continue
		}
		cs.L3Misses++
		if u != nil {
			u.Inc(upc.ChipScope, upc.L3Miss)
		}
		c := sim.Cycles(CostDDR)
		if cs.faults != nil {
			if unc, corr := cs.faults.DDRAccess(); unc {
				if ev == EvNone {
					ev = EvDDRUncorrectable
				}
				if u != nil {
					u.Inc(upc.ChipScope, upc.RASUncorrectable)
				}
			} else if corr {
				// ECC repairs the word in place; the fill just stalls.
				c += CostECCFix
				if u != nil {
					u.Inc(upc.ChipScope, upc.RASCorrectable)
				}
			}
		}
		// DDR refresh: if the access lands in the refresh window it
		// stalls for the remainder of the window.
		phase := uint64(now+cost-cs.refreshBase) % RefreshInt
		if phase < RefreshLen {
			stall := sim.Cycles(RefreshLen - phase)
			c += stall
			cs.RefreshStalls++
			cs.RefreshStallCycles += stall
			if u != nil {
				u.Inc(upc.ChipScope, upc.RefreshStall)
			}
		}
		cost += c
	}
	return cost, ev
}

// ResetRefreshPhase restarts the DRAM refresh timer at now, as toggling
// reset to the memory controller does on the real part. The timer is not
// architectural state: Chip.Reset leaves it alone, and the kernel's
// reset protocol restamps it at the reset instant.
func (cs *CacheSim) ResetRefreshPhase(now sim.Cycles) { cs.refreshBase = now }

// FlushAll writes back and invalidates every level, as CNK does before
// putting DDR in self-refresh for a reproducible reset.
func (cs *CacheSim) FlushAll() {
	clear(cs.l1)
	for _, p := range cs.l3 {
		if p != nil {
			*p = l3Page{}
		}
	}
}

// releaseL3Pages invalidates the L3 by returning its pages, zeroed, to
// the page pool: the cache is left with no pages, like a new one.
func (cs *CacheSim) releaseL3Pages() {
	for i, p := range cs.l3 {
		if p != nil {
			*p = l3Page{}
			l3PagePool.Put(p)
			cs.l3[i] = nil
		}
	}
}

// FlushCore invalidates one core's L1.
func (cs *CacheSim) FlushCore(core int) { cs.l1[core] = [L1Sets]cacheSet{} }

func (cs *CacheSim) reset() {
	cs.FlushAll()
	for i := range cs.L1Hits {
		cs.L1Hits[i], cs.L1Misses[i], cs.StoreMisses[i] = 0, 0, 0
		cs.parityArm[i] = false
	}
	cs.L3Hits, cs.L3Misses = 0, 0
	cs.RefreshStalls, cs.RefreshStallCycles = 0, 0
}
