package hw

import (
	"fmt"
	"reflect"
	"testing"

	"bgcnk/internal/sim"
	"bgcnk/internal/upc"
)

// dirtyChip drives ch through every kind of state a job leaves behind:
// the cache_diff_test.go access stream with flushes, resets, parity arms,
// refresh restarts and seeded ECC faults, plus TLB fills, DAC ranges,
// tracepoints, interrupts, BootSRAM contents, an XOR-fold L3 map, disabled
// units, a destructive scan, DDR contents held in self-refresh across a
// reset, and L3 lines filled after it.
func dirtyChip(ch *Chip, seed uint64) {
	f, _ := cacheFaults(seed)
	ch.AttachFaults(f)
	ch.Cache.SetL3Mapping(L3XorFoldMap)
	tr := sim.NewTrace()
	ch.UPC.Trace.Arm(tr, upc.CatAll)
	rng := sim.NewRNG(seed)
	var now sim.Cycles
	for step := 0; step < 5000; step++ {
		now += rng.Cycles(200)
		core := rng.Intn(CoresPerChip)
		switch op := rng.Intn(1000); {
		case op < 2:
			ch.Cache.FlushAll()
		case op < 6:
			ch.Cache.FlushCore(core)
		case op < 7:
			ch.Reset()
		case op < 12:
			ch.Cache.ArmL1Parity(core)
		case op < 14:
			ch.Cache.ResetRefreshPhase(now)
		case op < 40:
			ch.Mem.Write(cacheTestAddr(rng), []byte{byte(step), byte(step >> 8)})
		case op < 60:
			ch.UPC.Trace.Emit(upc.EvSyscall, core, now, uint64(step))
			ch.UPC.Syscall(core, step%upc.MaxSyscalls)
		default:
			ch.Cache.Access(core, cacheTestAddr(rng), uint32(rng.Intn(300)), rng.Intn(3) == 0, now)
		}
	}
	for i, c := range ch.Cores {
		c.TLB.Insert(TLBEntry{PID: 3, VBase: VAddr(i) << 20, PBase: PAddr(i) << 20, Size: Page1M, Perms: PermRWX})
		c.TLB.InsertPinned(TLBEntry{PID: 3, VBase: 1 << 30, PBase: 0, Size: Page16M, Perms: PermRX})
		c.TLB.Lookup(3, VAddr(i)<<20)
		c.TLB.Lookup(4, 0)
		c.DAC[1] = DACRange{Enabled: true, PID: 3, Lo: 0x1000, Hi: 0x2000}
		c.Interrupts, c.IPIs = 5, 6
	}
	copy(ch.BootSRAM[:], "reset magic")
	ch.SetUnitEnabled(UnitTorus, false)
	ch.ClockStopAt = now
	ch.Scan()
	ch.Mem.EnterSelfRefresh()
	ch.Reset()
	for i := 0; i < 200; i++ {
		ch.Cache.Access(i%CoresPerChip, cacheTestAddr(rng), 64, false, now)
	}
}

// sameState deep-compares a and b: every field, exported or not, through
// pointers, slices, maps and arrays, but not pointer identity itself.
func sameState(a, b reflect.Value, path string, seen map[[2]uintptr]bool) error {
	if a.Kind() != b.Kind() {
		return fmt.Errorf("%s: kind %v vs %v", path, a.Kind(), b.Kind())
	}
	switch a.Kind() {
	case reflect.Pointer, reflect.Interface:
		if a.IsNil() || b.IsNil() {
			if a.IsNil() != b.IsNil() {
				return fmt.Errorf("%s: nil %v vs %v", path, a.IsNil(), b.IsNil())
			}
			return nil
		}
		if a.Kind() == reflect.Pointer {
			key := [2]uintptr{a.Pointer(), b.Pointer()}
			if seen[key] {
				return nil
			}
			seen[key] = true
		}
		return sameState(a.Elem(), b.Elem(), path, seen)
	case reflect.Struct:
		for i := 0; i < a.NumField(); i++ {
			if err := sameState(a.Field(i), b.Field(i), path+"."+a.Type().Field(i).Name, seen); err != nil {
				return err
			}
		}
	case reflect.Slice, reflect.Array:
		if a.Len() != b.Len() {
			return fmt.Errorf("%s: len %d vs %d", path, a.Len(), b.Len())
		}
		for i := 0; i < a.Len(); i++ {
			if err := sameState(a.Index(i), b.Index(i), fmt.Sprintf("%s[%d]", path, i), seen); err != nil {
				return err
			}
		}
	case reflect.Map:
		if a.IsNil() != b.IsNil() || a.Len() != b.Len() {
			return fmt.Errorf("%s: map of %d vs %d entries", path, a.Len(), b.Len())
		}
		for _, k := range a.MapKeys() {
			bv := b.MapIndex(k)
			if !bv.IsValid() {
				return fmt.Errorf("%s: key %v missing", path, k)
			}
			if err := sameState(a.MapIndex(k), bv, fmt.Sprintf("%s[%v]", path, k), seen); err != nil {
				return err
			}
		}
	case reflect.Bool:
		if a.Bool() != b.Bool() {
			return fmt.Errorf("%s: %v vs %v", path, a.Bool(), b.Bool())
		}
	case reflect.Int, reflect.Int8, reflect.Int16, reflect.Int32, reflect.Int64:
		if a.Int() != b.Int() {
			return fmt.Errorf("%s: %d vs %d", path, a.Int(), b.Int())
		}
	case reflect.Uint, reflect.Uint8, reflect.Uint16, reflect.Uint32, reflect.Uint64, reflect.Uintptr:
		if a.Uint() != b.Uint() {
			return fmt.Errorf("%s: %d vs %d", path, a.Uint(), b.Uint())
		}
	case reflect.String:
		if a.String() != b.String() {
			return fmt.Errorf("%s: %q vs %q", path, a.String(), b.String())
		}
	default:
		return fmt.Errorf("%s: cannot compare kind %v", path, a.Kind())
	}
	return nil
}

// TestRecycledChipMatchesFresh dirties a chip, recycles its parts into a
// chip of a different configuration, and requires that chip to equal,
// field by field, one built from parts that were never pooled — L3 pages
// and DDR chunks included: a recycled chip holds none.
func TestRecycledChipMatchesFresh(t *testing.T) {
	for seed := uint64(1); seed <= 3; seed++ {
		ch := NewChip(ChipConfig{ID: 2, Coord: [3]int{2, 0, 0}})
		dirtyChip(ch, seed)
		if len(ch.Mem.chunks) == 0 || ch.Resets == 0 {
			t.Fatalf("seed %d: the stream left no DDR contents or no resets", seed)
		}
		cfg := ChipConfig{ID: 9, Coord: [3]int{1, 2, 3}, MemSize: 1 << 30}
		got := buildChip(cfg, ch.recycle())
		want := buildChip(cfg, newChipParts())
		if err := sameState(reflect.ValueOf(got), reflect.ValueOf(want), "chip", map[[2]uintptr]bool{}); err != nil {
			t.Fatalf("seed %d: recycled chip differs from a fresh one: %v", seed, err)
		}
		for i, p := range got.Cache.l3 {
			if p != nil {
				t.Fatalf("seed %d: recycled chip holds L3 page %d", seed, i)
			}
		}
		// The L3 pages and DDR chunks the recycled chip draws from the
		// pools must be as clean as new ones.
		rng := sim.NewRNG(seed)
		for i := 0; i < 2000; i++ {
			core, pa := rng.Intn(CoresPerChip), cacheTestAddr(rng)
			gc, ge := got.Cache.Access(core, pa, 64, false, sim.Cycles(i))
			wc, we := want.Cache.Access(core, pa, 64, false, sim.Cycles(i))
			if gc != wc || ge != we {
				t.Fatalf("seed %d: load %#x costs %d/%d on the recycled chip, %d/%d on a fresh one", seed, uint64(pa), gc, ge, wc, we)
			}
			got.Mem.Write(pa, []byte{1})
			want.Mem.Write(pa, []byte{1})
			var gb, wb [64]byte
			line := pa &^ 63
			got.Mem.Read(line, gb[:])
			want.Mem.Read(line, wb[:])
			if gb != wb {
				t.Fatalf("seed %d: DDR at %#x reads %x on the recycled chip, %x on a fresh one", seed, uint64(pa), gb, wb)
			}
		}
		if err := sameState(reflect.ValueOf(got.Cache), reflect.ValueOf(want.Cache), "cache", map[[2]uintptr]bool{}); err != nil {
			t.Fatalf("seed %d: after the same loads: %v", seed, err)
		}
	}
}

// TestReleasedChipPanics: a released chip is zeroed, so every use of it
// panics on a nil field instead of touching parts another chip now owns.
func TestReleasedChipPanics(t *testing.T) {
	ch := NewChip(ChipConfig{ID: 1})
	ch.Cache.Access(0, 0x4000, 8, false, 0)
	ch.Release()
	uses := map[string]func(){
		"Cache.Access": func() { ch.Cache.Access(0, 0x4000, 8, false, 0) },
		"Mem.Write":    func() { ch.Mem.Write(0x4000, []byte{1}) },
		"Cores":        func() { ch.Cores[0].TLB.Lookup(1, 0) },
		"UPC":          func() { ch.UPC.Inc(0, upc.L1Hit) },
		"BootSRAM":     func() { ch.BootSRAM[0] = 1 },
		"Reset":        ch.Reset,
		"StateHash":    func() { ch.StateHash() },
		"Release":      ch.Release,
	}
	for name, use := range uses {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("%s on a released chip did not panic", name)
				}
			}()
			use()
		}()
	}
}

// TestRecycledChipAllocs: once the pools are warm, building a chip,
// running a job's worth of accesses on it and releasing it allocates only
// the chip header — parts, L3 pages and DDR chunks all come back.
func TestRecycledChipAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector makes sync.Pool drop items at random")
	}
	const limit = 2
	cycle := func() {
		ch := NewChip(ChipConfig{ID: 1})
		for i := 0; i < 16; i++ {
			pa := PAddr(i) << 20
			ch.Cache.Access(i%CoresPerChip, pa, 64, i%2 == 0, 0)
			ch.Mem.Write(pa, []byte{byte(i)})
		}
		ch.Release()
	}
	if n := testing.AllocsPerRun(100, cycle); n > limit {
		t.Fatalf("a NewChip/Release cycle allocates %.0f times, want <= %d", n, limit)
	}
}
