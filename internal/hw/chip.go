package hw

import (
	"fmt"
	"hash/fnv"
	"sync"

	"bgcnk/internal/ras"
	"bgcnk/internal/sim"
	"bgcnk/internal/upc"
)

// CoresPerChip is the Blue Gene/P core count.
const CoresPerChip = 4

// Unit identifies a functional unit that can be individually disabled,
// modelling chip bringup on partial or broken hardware (paper Section III:
// "CNK was designed to be functional without requiring the entire chip
// logic to be working").
type Unit int

// Functional units.
const (
	UnitDDR Unit = iota
	UnitTorus
	UnitCollective
	UnitBarrier
	UnitDMA
	UnitFPU
	UnitL2Prefetch
	UnitLockbox
	numUnits
)

var unitNames = [...]string{"DDR", "Torus", "Collective", "Barrier", "DMA", "FPU", "L2Prefetch", "Lockbox"}

func (u Unit) String() string {
	if int(u) < len(unitNames) {
		return unitNames[u]
	}
	return fmt.Sprintf("Unit(%d)", int(u))
}

// AllUnits lists every functional unit.
func AllUnits() []Unit {
	us := make([]Unit, numUnits)
	for i := range us {
		us[i] = Unit(i)
	}
	return us
}

// DACRange is a Debug Address Compare register pair: a watched virtual
// range that traps on store. CNK uses one per core to implement the stack
// guard area without page tables (paper Fig 4).
type DACRange struct {
	Enabled bool
	PID     uint32
	Lo, Hi  VAddr // [Lo, Hi)
}

// Matches reports whether a store to va in address space pid trips the
// watch.
func (d *DACRange) Matches(pid uint32, va VAddr) bool {
	return d.Enabled && d.PID == pid && va >= d.Lo && va < d.Hi
}

// Core is one PPC450 core: its TLB, DAC registers, and counters.
type Core struct {
	ID   int
	Chip *Chip
	TLB  TLB
	DAC  [2]DACRange

	Interrupts uint64 // external + timer interrupts taken
	IPIs       uint64 // inter-processor interrupts received
}

// GlobalID returns a machine-unique core identifier.
func (c *Core) GlobalID() string { return fmt.Sprintf("chip%d.core%d", c.Chip.ID, c.ID) }

// CheckDAC reports whether a store to va trips either DAC range.
func (c *Core) CheckDAC(pid uint32, va VAddr) bool {
	return c.DAC[0].Matches(pid, va) || c.DAC[1].Matches(pid, va)
}

// Chip is one Blue Gene/P compute (or I/O) chip.
type Chip struct {
	ID    int
	Coord [3]int // torus coordinates

	Cores []*Core
	Mem   *Memory
	Cache *CacheSim

	// UPC is the chip's Universal Performance Counter unit: every layer
	// that charges cycles against this chip also increments a counter
	// here, so "where did the cycles go" is queryable (paper Section III).
	UPC *upc.UPC

	// BootSRAM models the on-chip SRAM where cores rendezvous during the
	// reproducible-reset protocol; its contents survive reset.
	BootSRAM *[4096]byte

	// Faults is this node's seeded fault source (nil on a perfect
	// machine). It lives outside the chip's architectural state: a chip
	// Reset does not touch it, so a recovery reboot faces whatever
	// schedule the injector dictates.
	Faults *ras.NodeFaults

	units       [numUnits]bool
	Resets      int        // number of chip resets since construction
	Scanned     bool       // a destructive logic scan has been taken
	ClockStopAt sim.Cycles // armed Clock-Stop cycle (0 = disarmed)

	parts *chipParts
}

// chipParts is what a chip owns that is costly to build: the cores with
// their TLBs, the cache model, DDR, the UPC unit and the boot SRAM. A
// released chip returns them to chipPool reset to the state newChipParts
// builds them in (the DDR size aside, which buildChip sets), and NewChip
// draws from the pool, so a drained job's chips reuse the previous job's
// parts instead of reallocating them. This is the paper's reproducible
// reset applied to host objects: CNK resets persistent hardware to a
// known state rather than rebuilding it.
type chipParts struct {
	cores    [CoresPerChip]Core
	corePtrs [CoresPerChip]*Core
	cache    CacheSim
	mem      Memory
	upc      upc.UPC
	bootSRAM [4096]byte
}

var chipPool = sync.Pool{New: func() any { return newChipParts() }}

func newChipParts() *chipParts {
	p := &chipParts{}
	p.cache.init(CoresPerChip)
	p.cache.upc = &p.upc
	p.mem.chunks = make(map[uint64]*[memChunk]byte)
	p.mem.upc = &p.upc
	for i := range p.cores {
		c := &p.cores[i]
		c.ID = i
		c.TLB.upc, c.TLB.coreID = &p.upc, i
		p.corePtrs[i] = c
	}
	return p
}

// ChipConfig parameterizes chip construction.
type ChipConfig struct {
	ID      int
	Coord   [3]int
	MemSize uint64 // DDR bytes; default 256MB, at most MaxMemSize
}

// MaxMemSize is the largest DDR a chip models: the cache keeps 32-bit
// line tags, which hold every line of up to 64 GiB with room to spare.
const MaxMemSize = 64 << 30

// NewChip builds a chip with all units enabled. It panics if cfg.MemSize
// exceeds MaxMemSize.
func NewChip(cfg ChipConfig) *Chip {
	if cfg.MemSize == 0 {
		cfg.MemSize = 256 << 20
	}
	if cfg.MemSize > MaxMemSize {
		panic(fmt.Sprintf("hw: MemSize %d exceeds MaxMemSize %d", cfg.MemSize, uint64(MaxMemSize)))
	}
	return buildChip(cfg, chipPool.Get().(*chipParts))
}

// buildChip assembles a chip of cfg, with all units enabled, around p.
func buildChip(cfg ChipConfig, p *chipParts) *Chip {
	p.mem.size = cfg.MemSize
	ch := &Chip{
		ID:       cfg.ID,
		Coord:    cfg.Coord,
		Cores:    p.corePtrs[:],
		Mem:      &p.mem,
		Cache:    &p.cache,
		UPC:      &p.upc,
		BootSRAM: &p.bootSRAM,
		parts:    p,
	}
	for _, c := range ch.Cores {
		c.Chip = ch
	}
	for u := range ch.units {
		ch.units[u] = true
	}
	return ch
}

// AttachFaults wires the node's seeded fault source into every injection
// point on the chip: DDR fills in the cache model and per-core TLB
// lookups. Call once, before the kernel boots.
func (ch *Chip) AttachFaults(f *ras.NodeFaults) {
	ch.Faults = f
	ch.Cache.faults = f
	for _, c := range ch.Cores {
		c.TLB.faults = f
	}
}

// UnitEnabled reports whether a functional unit works on this chip.
func (ch *Chip) UnitEnabled(u Unit) bool { return ch.units[u] }

// SetUnitEnabled marks a unit working or broken.
func (ch *Chip) SetUnitEnabled(u Unit, on bool) { ch.units[u] = on }

// Reset models toggling reset to all functional units: cores, TLBs, caches
// and counters clear; DDR contents survive only under self-refresh;
// BootSRAM survives. The unit-enable fuses and coordinates survive (they
// are physical).
func (ch *Chip) Reset() {
	ch.Resets++
	ch.Scanned = false
	ch.ClockStopAt = 0
	for _, c := range ch.Cores {
		c.TLB.reset()
		c.DAC = [2]DACRange{}
		c.Interrupts, c.IPIs = 0, 0
	}
	ch.Cache.reset()
	ch.Mem.reset()
	ch.UPC.Reset()
}

// Release returns the chip's parts to the pool NewChip draws from and
// zeroes the chip, so any later use of it panics on a nil field. It runs
// the same per-component resets as Reset, after clearing what a chip
// reset deliberately keeps (BootSRAM, DDR held in self-refresh, the fault
// source, the L3 mapping, the refresh phase, the tracepoint arming), and
// hands the chip's L3 pages and DDR chunks to the shared page pools, so a
// chip built from the recycled parts is indistinguishable from one built
// from new parts (TestRecycledChipMatchesFresh). Call it once, when
// nothing will touch the chip, its cores or its units again; the unit
// fuses and the Resets count live on the chip and die with it.
func (ch *Chip) Release() { chipPool.Put(ch.recycle()) }

// recycle is Release up to the pool: it resets the parts, zeroes the chip
// and returns the parts.
func (ch *Chip) recycle() *chipParts {
	ch.Mem.ExitSelfRefresh()
	ch.AttachFaults(nil)
	ch.Cache.SetL3Mapping(L3ModuloMap)
	ch.Cache.ResetRefreshPhase(0)
	ch.Cache.releaseL3Pages()
	ch.UPC.Trace.Disarm()
	clear(ch.BootSRAM[:])
	ch.Reset()
	for _, c := range ch.Cores {
		c.Chip = nil
	}
	p := ch.parts
	*ch = Chip{}
	return p
}

// StateHash digests the architecturally visible chip state: core counters,
// TLB contents, DAC registers. Two chips at the same point of
// cycle-reproducible runs hash identically; the bringup waveform tooling
// treats this as the "signals" captured by a logic scan.
func (ch *Chip) StateHash() uint64 {
	h := fnv.New64a()
	for _, c := range ch.Cores {
		fmt.Fprintf(h, "c%d:%d:%d;", c.ID, c.Interrupts, c.IPIs)
		fmt.Fprintf(h, "tlb:%d:%d:%d;", c.TLB.ValidCount(), c.TLB.Hits, c.TLB.Misses)
		for _, d := range c.DAC {
			fmt.Fprintf(h, "dac:%v:%d:%d;", d.Enabled, d.Lo, d.Hi)
		}
	}
	fmt.Fprintf(h, "l3:%d:%d;", ch.Cache.L3Hits, ch.Cache.L3Misses)
	for i := range ch.Cores {
		fmt.Fprintf(h, "l1:%d:%d;", ch.Cache.L1Hits[i], ch.Cache.L1Misses[i])
	}
	fmt.Fprintf(h, "mem:%d:%d:%v;", ch.Mem.Reads, ch.Mem.Writes, ch.Mem.InSelfRefresh())
	h.Write(ch.BootSRAM[:])
	return h.Sum64()
}

// Scan performs a destructive logic scan: it returns the state hash and
// marks the chip scanned. A scanned chip must be Reset before further use;
// this models the real constraint that drove the whole reproducible-reboot
// methodology (paper Section III: "logic scans ... are destructive to the
// chip state").
func (ch *Chip) Scan() uint64 {
	h := ch.StateHash()
	ch.Scanned = true
	return h
}

// MustBeUsable panics if the chip has been destructively scanned and not
// reset.
func (ch *Chip) MustBeUsable() {
	if ch.Scanned {
		panic(fmt.Sprintf("hw: chip %d used after destructive scan without reset", ch.ID))
	}
}
