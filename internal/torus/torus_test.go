package torus

import (
	"runtime"
	"testing"

	"bgcnk/internal/hw"
	"bgcnk/internal/sim"
)

func twoNodeNet(t *testing.T) (*sim.Engine, *Interface, *Interface) {
	t.Helper()
	eng := sim.NewEngine()
	net := New(eng, DefaultConfig(Coord{2, 1, 1}))
	a := net.Attach(hw.NewChip(hw.ChipConfig{ID: 0}), Coord{0, 0, 0})
	b := net.Attach(hw.NewChip(hw.ChipConfig{ID: 1}), Coord{1, 0, 0})
	return eng, a, b
}

func TestHopsWraparound(t *testing.T) {
	eng := sim.NewEngine()
	net := New(eng, DefaultConfig(Coord{8, 8, 8}))
	if h := net.Hops(Coord{0, 0, 0}, Coord{7, 0, 0}); h != 1 {
		t.Fatalf("wraparound hops = %d, want 1", h)
	}
	if h := net.Hops(Coord{0, 0, 0}, Coord{4, 4, 4}); h != 12 {
		t.Fatalf("hops = %d, want 12", h)
	}
	if h := net.Hops(Coord{1, 2, 3}, Coord{1, 2, 3}); h != 0 {
		t.Fatalf("self hops = %d", h)
	}
}

func TestActiveMessageDelivery(t *testing.T) {
	eng, a, b := twoNodeNet(t)
	var got Packet
	eng.Go("recv", func(c *sim.Coro) {
		got = b.RecvMatch(c, func(p Packet) bool { return p.Tag == 9 })
	})
	eng.Go("send", func(c *sim.Coro) {
		a.SendPacket(b.Coord(), 9, 1, []byte("eager"))
	})
	eng.RunUntilIdle()
	if string(got.Payload) != "eager" || got.From != a.Coord() || got.Kind != 1 {
		t.Fatalf("got %+v", got)
	}
}

func TestOversizePacketPanics(t *testing.T) {
	_, a, b := twoNodeNet(t)
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	a.SendPacket(b.Coord(), 1, 0, make([]byte, PacketBytes+1))
}

func TestPutMovesBytes(t *testing.T) {
	eng, a, b := twoNodeNet(t)
	a.Chip().Mem.Write(0x1000, []byte("direct-put payload"))
	done := false
	eng.Go("put", func(c *sim.Coro) {
		a.Put(b.Coord(),
			[]PhysRange{{PA: 0x1000, Len: 18}},
			[]PhysRange{{PA: 0x8000, Len: 18}},
			func(error) { done = true })
	})
	eng.RunUntilIdle()
	if !done {
		t.Fatal("completion callback did not run")
	}
	buf := make([]byte, 18)
	b.Chip().Mem.Read(0x8000, buf)
	if string(buf) != "direct-put payload" {
		t.Fatalf("payload corrupted: %q", buf)
	}
}

func TestPutScatterGather(t *testing.T) {
	eng, a, b := twoNodeNet(t)
	a.Chip().Mem.Write(0x1000, []byte("AAAA"))
	a.Chip().Mem.Write(0x3000, []byte("BBBB"))
	eng.Go("put", func(c *sim.Coro) {
		a.Put(b.Coord(),
			[]PhysRange{{0x1000, 4}, {0x3000, 4}},
			[]PhysRange{{0x9000, 8}},
			nil)
	})
	eng.RunUntilIdle()
	buf := make([]byte, 8)
	b.Chip().Mem.Read(0x9000, buf)
	if string(buf) != "AAAABBBB" {
		t.Fatalf("gather: %q", buf)
	}
	if a.Descriptors != 2 {
		t.Fatalf("descriptors = %d, want 2 (one per source range)", a.Descriptors)
	}
}

// TestPutCopiesPayloadOnce checks that Put reads each source range
// straight into the one payload buffer it delivers, with no scratch copy.
func TestPutCopiesPayloadOnce(t *testing.T) {
	eng, a, b := twoNodeNet(t)
	const n = 64 << 10
	a.Chip().Mem.Write(0x1000, []byte("first range"))
	a.Chip().Mem.Write(0x40000, []byte("second range"))
	src := []PhysRange{{0x1000, n}, {0x40000, n}}
	// The fewest bytes of three puts, so another goroutine allocating
	// meanwhile cannot fail the test.
	least := ^uint64(0)
	for k := 0; k < 3; k++ {
		dst := []PhysRange{{hw.PAddr(0x100000 + k*2*n), 2 * n}}
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		a.Put(b.Coord(), src, dst, nil)
		runtime.ReadMemStats(&after)
		least = min(least, after.TotalAlloc-before.TotalAlloc)
	}
	eng.RunUntilIdle()
	if least > 2*n+8<<10 {
		t.Errorf("a %d-byte put allocated %d bytes", 2*n, least)
	}
	got := make([]byte, 12)
	b.Chip().Mem.Read(0x100000+n, got)
	if string(got) != "second range" {
		t.Errorf("second range landed as %q", got)
	}
}

func TestPutSizeMismatchPanics(t *testing.T) {
	_, a, b := twoNodeNet(t)
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	a.Put(b.Coord(), []PhysRange{{0, 4}}, []PhysRange{{0, 8}}, nil)
}

func TestGetFetchesRemote(t *testing.T) {
	eng, a, b := twoNodeNet(t)
	b.Chip().Mem.Write(0x2000, []byte("remote data!"))
	var doneAt sim.Cycles
	eng.Go("get", func(c *sim.Coro) {
		a.Get(b.Coord(), []PhysRange{{0x2000, 12}}, []PhysRange{{0x7000, 12}},
			func(error) { doneAt = eng.Now() })
	})
	eng.RunUntilIdle()
	buf := make([]byte, 12)
	a.Chip().Mem.Read(0x7000, buf)
	if string(buf) != "remote data!" {
		t.Fatalf("get: %q", buf)
	}
	if doneAt == 0 {
		t.Fatal("completion missing")
	}
}

func TestGetCostsMoreThanPut(t *testing.T) {
	// A get is a request + a put, so its completion time must exceed a
	// same-size put's (Table I: DCMF Get 1.6us vs Put 0.9us).
	eng, a, b := twoNodeNet(t)
	b.Chip().Mem.Write(0x2000, make([]byte, 64))
	a.Chip().Mem.Write(0x2000, make([]byte, 64))
	var putDone, getDone sim.Cycles
	eng.Go("put", func(c *sim.Coro) {
		a.Put(b.Coord(), []PhysRange{{0x2000, 64}}, []PhysRange{{0x9000, 64}},
			func(error) { putDone = eng.Now() })
	})
	eng.RunUntilIdle()
	eng.Go("get", func(c *sim.Coro) {
		a.Get(b.Coord(), []PhysRange{{0x2000, 64}}, []PhysRange{{0xA000, 64}},
			func(error) { getDone = eng.Now() - putDone })
	})
	eng.RunUntilIdle()
	if getDone <= putDone {
		t.Fatalf("get (%d) should cost more than put (%d)", getDone, putDone)
	}
}

func TestDescriptorOverheadVisible(t *testing.T) {
	// The same 64KB transfer split into 16 descriptors (FWK 4KB pages)
	// must finish later than as a single descriptor (CNK contiguous).
	run := func(ranges int) sim.Cycles {
		eng, a, b := twoNodeNet(t)
		total := uint64(64 << 10)
		var src []PhysRange
		per := total / uint64(ranges)
		for r := 0; r < ranges; r++ {
			src = append(src, PhysRange{PA: hw.PAddr(uint64(r) * per), Len: per})
		}
		var done sim.Cycles
		eng.Go("put", func(c *sim.Coro) {
			a.Put(b.Coord(), src, []PhysRange{{0, total}}, func(error) { done = eng.Now() })
		})
		eng.RunUntilIdle()
		return done
	}
	one := run(1)
	sixteen := run(16)
	if sixteen <= one {
		t.Fatalf("scatter (%d) should cost more than contiguous (%d)", sixteen, one)
	}
}

func TestLinkContentionBetweenTransfers(t *testing.T) {
	eng, a, b := twoNodeNet(t)
	var t1, t2 sim.Cycles
	eng.Go("puts", func(c *sim.Coro) {
		a.Put(b.Coord(), []PhysRange{{0, 32 << 10}}, []PhysRange{{0x10000, 32 << 10}}, func(error) { t1 = eng.Now() })
		a.Put(b.Coord(), []PhysRange{{0, 32 << 10}}, []PhysRange{{0x20000, 32 << 10}}, func(error) { t2 = eng.Now() })
	})
	eng.RunUntilIdle()
	ser := sim.Cycles(float64(32<<10) * 2.0)
	if t2-t1 < ser/2 {
		t.Fatalf("transfers did not serialize on the link: %d vs %d", t1, t2)
	}
}

func TestBrokenTorusUnitPanics(t *testing.T) {
	_, a, b := twoNodeNet(t)
	a.Chip().SetUnitEnabled(hw.UnitTorus, false)
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic using broken torus")
		}
	}()
	a.SendPacket(b.Coord(), 1, 0, nil)
}

func TestDuplicateAttachPanics(t *testing.T) {
	eng := sim.NewEngine()
	net := New(eng, DefaultConfig(Coord{2, 1, 1}))
	net.Attach(hw.NewChip(hw.ChipConfig{ID: 0}), Coord{0, 0, 0})
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	net.Attach(hw.NewChip(hw.ChipConfig{ID: 1}), Coord{0, 0, 0})
}
