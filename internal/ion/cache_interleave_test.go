package ion

import (
	"bytes"
	"testing"

	"bgcnk/internal/fs"
	"bgcnk/internal/kernel"
	"bgcnk/internal/sim"
)

// raceFixture is a cache shared by coroutines, over two files: a (empty,
// written by the test) and b (8 blocks of 'x', read to force evictions).
type raceFixture struct {
	ca         *Cache
	inoA, inoB uint64
}

func (f *raceFixture) write(c *sim.Coro, block uint64, s string) {
	f.ca.Write(c, f.inoA, block*BlockSize, []byte(s))
}

// readB reads the first byte of each of b's blocks from..to-1.
func (f *raceFixture) readB(c *sim.Coro, from, to int) string {
	var out []byte
	for i := from; i < to; i++ {
		out = append(out, f.ca.Read(c, f.inoB, uint64(i)*BlockSize, 1)...)
	}
	return string(out)
}

// TestCacheCoroutineInterleavings runs two coroutines against one cache,
// timed so that fills, evictions and flush writebacks of one land inside
// the sleeps of the other. Every write must reach the filesystem, reads
// must see the current contents, and the cache must end clean, within
// capacity, with its LRU list and block map in agreement.
func TestCacheCoroutineInterleavings(t *testing.T) {
	cases := []struct {
		name   string
		blocks int // cache capacity
		a      func(c *sim.Coro, f *raceFixture)
		b      func(c *sim.Coro, f *raceFixture) string
		wantA  map[uint64]string // file a: block -> contents at its start
		wantBf map[uint64]string // file b: blocks overwritten on the 'x's
		wantB  string            // what b returned
	}{
		{
			// B's fills evict around A's fills and its two-run flush.
			name:   "flush_two_runs",
			blocks: 4,
			a: func(c *sim.Coro, f *raceFixture) {
				f.write(c, 0, "one")
				f.write(c, 2, "three")
				f.ca.Flush(c, f.inoA) // two runs; sleeps between them
			},
			b: func(c *sim.Coro, f *raceFixture) string {
				c.Sleep(1)
				return f.readB(c, 0, 6)
			},
			wantA: map[uint64]string{0: "one", 2: "three"},
			wantB: "xxxxxx",
		},
		{
			// A's first run (blocks 0-2) sleeps long enough for B to
			// evict and write back block 4, the second run, before A
			// reaches it.
			name:   "later_run_evicted_during_flush",
			blocks: 4,
			a: func(c *sim.Coro, f *raceFixture) {
				f.write(c, 4, "five")
				f.write(c, 0, "one")
				f.write(c, 1, "two")
				f.write(c, 2, "three")
				f.ca.Flush(c, f.inoA)
			},
			b: func(c *sim.Coro, f *raceFixture) string {
				c.Sleep(4501)
				return f.readB(c, 0, 8)
			},
			wantA: map[uint64]string{0: "one", 1: "two", 2: "three", 4: "five"},
			wantB: "xxxxxxxx",
		},
		{
			// A's fill of block 2 evicts dirty block 0; while that
			// writeback sleeps, B's fill evicts A's new block 2.
			name:   "fill_evicted_during_own_eviction",
			blocks: 1,
			a: func(c *sim.Coro, f *raceFixture) {
				f.write(c, 0, "one")
				f.write(c, 2, "three")
				f.ca.Flush(c, f.inoA)
			},
			b: func(c *sim.Coro, f *raceFixture) string {
				c.Sleep(1500)
				return f.readB(c, 0, 6)
			},
			wantA: map[uint64]string{0: "one", 2: "three"},
			wantB: "xxxxxx",
		},
		{
			// B evicts dirty block 0; A writes it again while that
			// writeback sleeps, then flushes after the eviction ends.
			name:   "rewritten_during_eviction",
			blocks: 2,
			a: func(c *sim.Coro, f *raceFixture) {
				f.write(c, 0, "one")
				c.Sleep(2000)
				f.write(c, 0, "ONE")
				c.Sleep(2000)
				f.ca.Flush(c, f.inoA)
			},
			b: func(c *sim.Coro, f *raceFixture) string {
				c.Sleep(1)
				return f.readB(c, 0, 2)
			},
			wantA: map[uint64]string{0: "ONE"},
			wantB: "xx",
		},
		{
			// A and B miss on the same block of b together; A's write
			// into its copy must not be replaced by B's later fill.
			name:   "concurrent_fills_of_one_block",
			blocks: 4,
			a: func(c *sim.Coro, f *raceFixture) {
				f.ca.Write(c, f.inoB, 0, []byte("one"))
				c.Sleep(100)
				f.ca.Flush(c, f.inoB)
			},
			b: func(c *sim.Coro, f *raceFixture) string {
				c.Sleep(1)
				return f.readB(c, 0, 2)
			},
			wantBf: map[uint64]string{0: "one"},
			wantB:  "ox",
		},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			fsys := fs.New()
			fsys.MustMkdirAll("/gpfs")
			if errno := fsys.WriteFile("/gpfs/a", nil, 0644, fs.Root); errno != kernel.OK {
				t.Fatal(errno)
			}
			if errno := fsys.WriteFile("/gpfs/b", bytes.Repeat([]byte("x"), 8*BlockSize), 0644, fs.Root); errno != kernel.OK {
				t.Fatal(errno)
			}
			stA, _ := fsys.Stat("/", "/gpfs/a", fs.Root)
			stB, _ := fsys.Stat("/", "/gpfs/b", fs.Root)
			f := &raceFixture{ca: NewCache(fsys, tc.blocks), inoA: stA.Ino, inoB: stB.Ino}

			eng := sim.NewEngine()
			var gotB string
			eng.Go("A", func(c *sim.Coro) { tc.a(c, f) })
			eng.Go("B", func(c *sim.Coro) { gotB = tc.b(c, f) })
			eng.RunUntilIdle()

			var lastA uint64
			for blk, s := range tc.wantA {
				lastA = max(lastA, blk*BlockSize+uint64(len(s)))
			}
			checkFile(t, fsys, "/gpfs/a", make([]byte, lastA), tc.wantA)
			checkFile(t, fsys, "/gpfs/b", bytes.Repeat([]byte("x"), 8*BlockSize), tc.wantBf)
			if gotB != tc.wantB {
				t.Errorf("B read %q, want %q", gotB, tc.wantB)
			}
			ca := f.ca
			if n := ca.DirtyBlocks(); n != 0 {
				t.Errorf("%d dirty blocks left after the flush", n)
			}
			if len(ca.blocks) > tc.blocks {
				t.Errorf("%d blocks cached, capacity %d", len(ca.blocks), tc.blocks)
			}
			linked := 0
			for b := ca.head; b != nil; b = b.next {
				linked++
				if ca.blocks[b.key] != b {
					t.Errorf("LRU list holds block %+v that the map does not", b.key)
				}
			}
			if linked != len(ca.blocks) {
				t.Errorf("LRU list holds %d blocks, map %d", linked, len(ca.blocks))
			}
		})
	}
}

// checkFile requires the file at path to equal base with blocks overlaid.
func checkFile(t *testing.T, fsys *fs.FS, path string, base []byte, blocks map[uint64]string) {
	t.Helper()
	for blk, s := range blocks {
		copy(base[blk*BlockSize:], s)
	}
	got, errno := fsys.ReadFile(path, fs.Root)
	if errno != kernel.OK {
		t.Fatal(errno)
	}
	if !bytes.Equal(got, base) {
		t.Errorf("%s lost writes: %d bytes on disk, want %d with blocks %v", path, len(got), len(base), blocks)
	}
}
