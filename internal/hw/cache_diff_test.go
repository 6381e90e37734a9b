package hw

import (
	"fmt"
	"runtime"
	"testing"

	"bgcnk/internal/ras"
	"bgcnk/internal/sim"
	"bgcnk/internal/upc"
)

// refSet is the reference tag-array set: the original slice-based layout,
// kept test-only so the pointer-free CacheSim can be checked against it.
type refSet struct {
	tags   []uint64
	valid  []bool
	victim int
}

func newRefArray(sets, ways int) []refSet {
	a := make([]refSet, sets)
	for i := range a {
		a[i] = refSet{tags: make([]uint64, ways), valid: make([]bool, ways)}
	}
	return a
}

func (s *refSet) hit(tag uint64) bool {
	for i, t := range s.tags {
		if s.valid[i] && t == tag {
			return true
		}
	}
	return false
}

func (s *refSet) access(tag uint64) bool {
	if s.hit(tag) {
		return true
	}
	s.tags[s.victim] = tag
	s.valid[s.victim] = true
	s.victim = (s.victim + 1) % len(s.tags)
	return false
}

func (s *refSet) invalidateAll() {
	for i := range s.valid {
		s.valid[i] = false
	}
	s.victim = 0
}

// refCache is the reference hierarchy: the original CacheSim on refSet
// arrays, simplified only in that its UPC unit and fault source are always
// attached.
type refCache struct {
	l1          [][]refSet
	l3          []refSet
	l3map       L3Mapping
	parityArm   []bool
	faults      *ras.NodeFaults
	upc         *upc.UPC
	refreshBase sim.Cycles

	L1Hits, L1Misses   []uint64
	StoreMisses        []uint64
	L3Hits, L3Misses   uint64
	RefreshStalls      uint64
	RefreshStallCycles sim.Cycles
}

func newRefCache(cores int) *refCache {
	rc := &refCache{
		l1:          make([][]refSet, cores),
		l3:          newRefArray(L3Sets, L3Ways),
		parityArm:   make([]bool, cores),
		L1Hits:      make([]uint64, cores),
		L1Misses:    make([]uint64, cores),
		StoreMisses: make([]uint64, cores),
	}
	for i := range rc.l1 {
		rc.l1[i] = newRefArray(L1Sets, L1Ways)
	}
	return rc
}

func (rc *refCache) l3index(l3line uint64) uint64 {
	if rc.l3map == L3XorFoldMap {
		l3line ^= l3line >> 12
		l3line ^= l3line >> 24
	}
	return l3line % L3Sets
}

func (rc *refCache) Access(core int, pa PAddr, size uint32, write bool, now sim.Cycles) (sim.Cycles, MemEvent) {
	ev := EvNone
	if rc.parityArm[core] {
		rc.parityArm[core] = false
		ev = EvL1Parity
	}
	var cost sim.Cycles
	first := uint64(pa) / L1LineSize
	last := (uint64(pa) + uint64(size) - 1) / L1LineSize
	if size == 0 {
		last = first
	}
	u := rc.upc
	for line := first; line <= last; line++ {
		addr := line * L1LineSize
		set := &rc.l1[core][line%L1Sets]
		if set.hit(line) {
			rc.L1Hits[core]++
			u.Inc(core, upc.L1Hit)
			continue
		}
		if write {
			rc.StoreMisses[core]++
			u.Inc(core, upc.StoreMiss)
			l3line := addr / L3LineSize
			rc.l3[rc.l3index(l3line)].access(l3line)
			cost += CostStoreMiss
			continue
		}
		rc.L1Misses[core]++
		u.Inc(core, upc.L1Miss)
		set.access(line)
		l3line := addr / L3LineSize
		if rc.l3[rc.l3index(l3line)].access(l3line) {
			rc.L3Hits++
			u.Inc(upc.ChipScope, upc.L3Hit)
			cost += CostL3Hit
			continue
		}
		rc.L3Misses++
		u.Inc(upc.ChipScope, upc.L3Miss)
		c := sim.Cycles(CostDDR)
		if unc, corr := rc.faults.DDRAccess(); unc {
			if ev == EvNone {
				ev = EvDDRUncorrectable
			}
			u.Inc(upc.ChipScope, upc.RASUncorrectable)
		} else if corr {
			c += CostECCFix
			u.Inc(upc.ChipScope, upc.RASCorrectable)
		}
		phase := uint64(now+cost-rc.refreshBase) % RefreshInt
		if phase < RefreshLen {
			stall := sim.Cycles(RefreshLen - phase)
			c += stall
			rc.RefreshStalls++
			rc.RefreshStallCycles += stall
			u.Inc(upc.ChipScope, upc.RefreshStall)
		}
		cost += c
	}
	return cost, ev
}

func (rc *refCache) FlushAll() {
	for _, l1 := range rc.l1 {
		for i := range l1 {
			l1[i].invalidateAll()
		}
	}
	for i := range rc.l3 {
		rc.l3[i].invalidateAll()
	}
}

func (rc *refCache) FlushCore(core int) {
	for i := range rc.l1[core] {
		rc.l1[core][i].invalidateAll()
	}
}

func (rc *refCache) reset() {
	rc.FlushAll()
	for i := range rc.L1Hits {
		rc.L1Hits[i], rc.L1Misses[i], rc.StoreMisses[i] = 0, 0, 0
		rc.parityArm[i] = false
	}
	rc.L3Hits, rc.L3Misses = 0, 0
	rc.RefreshStalls, rc.RefreshStallCycles = 0, 0
}

// sameSet reports whether a CacheSim set holds the same lines as a
// reference set: the same valid ways with the same lines, and the same
// next victim. A CacheSim way is valid when its tag is nonzero and then
// holds lineTag of its line; tags of invalid reference ways are not state.
func sameSet(s *cacheSet, r *refSet) bool {
	if int(s.victim) != r.victim {
		return false
	}
	for i := range r.tags {
		v := s.tags[i] != 0
		if v != r.valid[i] || (v && s.tags[i] != lineTag(r.tags[i])) {
			return false
		}
	}
	return true
}

// compareState checks every counter and every set of both levels.
func compareState(t *testing.T, step int, cs *CacheSim, rc *refCache) {
	t.Helper()
	for c := range rc.L1Hits {
		if cs.L1Hits[c] != rc.L1Hits[c] || cs.L1Misses[c] != rc.L1Misses[c] || cs.StoreMisses[c] != rc.StoreMisses[c] {
			t.Fatalf("step %d core %d: L1 counters %d/%d/%d, reference %d/%d/%d", step, c,
				cs.L1Hits[c], cs.L1Misses[c], cs.StoreMisses[c], rc.L1Hits[c], rc.L1Misses[c], rc.StoreMisses[c])
		}
		if cs.parityArm[c] != rc.parityArm[c] {
			t.Fatalf("step %d core %d: parity arm %v, reference %v", step, c, cs.parityArm[c], rc.parityArm[c])
		}
		for i := range rc.l1[c] {
			if !sameSet(&cs.l1[c][i], &rc.l1[c][i]) {
				t.Fatalf("step %d core %d: L1 set %d differs from the reference", step, c, i)
			}
		}
	}
	if cs.L3Hits != rc.L3Hits || cs.L3Misses != rc.L3Misses ||
		cs.RefreshStalls != rc.RefreshStalls || cs.RefreshStallCycles != rc.RefreshStallCycles {
		t.Fatalf("step %d: L3/refresh counters %d/%d/%d/%d, reference %d/%d/%d/%d", step,
			cs.L3Hits, cs.L3Misses, cs.RefreshStalls, cs.RefreshStallCycles,
			rc.L3Hits, rc.L3Misses, rc.RefreshStalls, rc.RefreshStallCycles)
	}
	var empty cacheSet
	for i := range rc.l3 {
		s := &empty
		if p := cs.l3[i/l3PageSets]; p != nil {
			s = &p[i%l3PageSets]
		}
		if !sameSet(s, &rc.l3[i]) {
			t.Fatalf("step %d: L3 set %d differs from the reference", step, i)
		}
	}
	if cs.upc.Set != rc.upc.Set {
		t.Fatalf("step %d: UPC counters differ from the reference", step)
	}
}

// cacheFaults returns a DDR fault source with high ECC rates, so fills
// exercise both the correctable stall and the uncorrectable event.
func cacheFaults(seed uint64) (*ras.NodeFaults, *ras.Log) {
	log := ras.NewLog(nil)
	plan := ras.Plan{Seed: seed, DDRCorrectable: 0.05, DDRUncorrectable: 0.01}
	return ras.NewInjector(sim.NewEngine(), log, plan).Node(0), log
}

// TestCacheMatchesReference drives CacheSim and the slice-based reference
// with the same seeded stream of loads, stores, flushes, resets, parity
// arms and refresh restarts, and requires identical costs, events,
// counters and tag arrays throughout.
func TestCacheMatchesReference(t *testing.T) {
	const cores, steps = 4, 20000
	for _, m := range []L3Mapping{L3ModuloMap, L3XorFoldMap} {
		for seed := uint64(1); seed <= 4; seed++ {
			t.Run(fmt.Sprintf("map%d/seed%d", m, seed), func(t *testing.T) {
				cs, rc := NewCacheSim(cores), newRefCache(cores)
				cs.upc, rc.upc = upc.New(), upc.New()
				cs.SetL3Mapping(m)
				rc.l3map = m
				var csLog, rcLog *ras.Log
				cs.faults, csLog = cacheFaults(seed)
				rc.faults, rcLog = cacheFaults(seed)

				rng := sim.NewRNG(seed)
				var now sim.Cycles
				for step := 0; step < steps; step++ {
					now += rng.Cycles(200)
					core := rng.Intn(cores)
					switch op := rng.Intn(1000); {
					case op < 2:
						cs.FlushAll()
						rc.FlushAll()
					case op < 6:
						cs.FlushCore(core)
						rc.FlushCore(core)
					case op < 7:
						cs.reset()
						rc.reset()
					case op < 12:
						cs.ArmL1Parity(core)
						rc.parityArm[core] = true
					case op < 14:
						cs.ResetRefreshPhase(now)
						rc.refreshBase = now
					default:
						pa := cacheTestAddr(rng)
						size := uint32(rng.Intn(300))
						write := rng.Intn(3) == 0
						gotC, gotE := cs.Access(core, pa, size, write, now)
						wantC, wantE := rc.Access(core, pa, size, write, now)
						if gotC != wantC || gotE != wantE {
							t.Fatalf("step %d: Access(core %d, %#x, %d, write=%v) = %d/%d, reference %d/%d",
								step, core, uint64(pa), size, write, gotC, gotE, wantC, wantE)
						}
					}
					if step%2500 == 0 {
						compareState(t, step, cs, rc)
					}
				}
				compareState(t, steps, cs, rc)
				if csLog.Hash() != rcLog.Hash() || csLog.Total() == 0 {
					t.Fatalf("RAS logs: %d events hash %#x, reference %d events hash %#x",
						csLog.Total(), csLog.Hash(), rcLog.Total(), rcLog.Hash())
				}
			})
		}
	}
}

// cacheTestAddr draws an address that makes hits, L1 set conflicts and
// power-of-two L3 collisions all common.
func cacheTestAddr(rng *sim.RNG) PAddr {
	switch rng.Intn(4) {
	case 0: // a small hot region: mostly L1 hits
		return PAddr(rng.Intn(16 << 10))
	case 1: // 64 KB-strided lines: collide in L1 and, modulo-mapped, in L3
		return PAddr(rng.Intn(64)<<16 + rng.Intn(4)*L1LineSize)
	case 2: // 512 KB-strided lines: one L3 set under the modulo map
		return PAddr(rng.Intn(64) << 19)
	default: // anywhere in 256 MB
		return PAddr(rng.Intn(256 << 20))
	}
}

func TestFreshChipAllocatesNoL3Pages(t *testing.T) {
	ch := NewChip(ChipConfig{ID: 0})
	for i, p := range ch.Cache.l3 {
		if p != nil {
			t.Fatalf("fresh chip has L3 page %d allocated", i)
		}
	}
	ch.Cache.Access(0, 0, 8, false, 0)
	pages := 0
	for _, p := range ch.Cache.l3 {
		if p != nil {
			pages++
		}
	}
	if pages != 1 {
		t.Fatalf("one load allocated %d L3 pages, want 1", pages)
	}
	ch.Reset()
	if ch.Cache.l3[0] == nil {
		t.Fatal("reset dropped an L3 page instead of clearing it")
	}
}

// TestNewChipAllocs guards machine construction cost: a chip is a few
// pointer-free arrays, not thousands of small tag slices.
func TestNewChipAllocs(t *testing.T) {
	const limit = 32
	if n := testing.AllocsPerRun(20, func() { NewChip(ChipConfig{ID: 0}) }); n > limit {
		t.Fatalf("NewChip allocates %.0f times, want <= %d", n, limit)
	}
}

// TestNewChipBytes guards a chip's footprint: 32-bit line tags keep the
// per-core L1 arrays at 17 KB of a chip's allocation.
func TestNewChipBytes(t *testing.T) {
	const runs, limit = 20, 42_000
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	NewChip(ChipConfig{ID: 0})
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for i := 0; i < runs; i++ {
		NewChip(ChipConfig{ID: 0})
	}
	runtime.ReadMemStats(&after)
	if b := (after.TotalAlloc - before.TotalAlloc) / runs; b > limit {
		t.Fatalf("NewChip allocates %d bytes, want <= %d", b, limit)
	}
}

// TestNewChipMemSizeBound pins the range the 32-bit tags encode exactly:
// a chip of MaxMemSize builds, one byte more panics, and the widest line
// of the largest chip still gets a nonzero tag of its own.
func TestNewChipMemSizeBound(t *testing.T) {
	NewChip(ChipConfig{MemSize: MaxMemSize})
	func() {
		defer func() {
			if recover() == nil {
				t.Fatal("NewChip accepted MemSize above MaxMemSize")
			}
		}()
		NewChip(ChipConfig{MemSize: MaxMemSize + 1})
	}()
	last := uint64(MaxMemSize-1) / L1LineSize
	if lineTag(last) == 0 || lineTag(last) == lineTag(0) {
		t.Fatalf("last line of MaxMemSize gets tag %#x", lineTag(last))
	}
}
