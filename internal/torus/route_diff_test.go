package torus

import (
	"errors"
	"slices"
	"testing"

	"bgcnk/internal/sim"
)

// ---- reference all-pairs route table ----
//
// The all-pairs builder below is the router the lazy per-source walk
// replaced, kept verbatim as a test-only reference: every path the
// resilient router returns, and every wiring verdict, must match what it
// computes over the same dead set.

// Route is one surviving source→destination path: the successive
// coordinates after Src, ending at Dst.
type Route struct {
	Src, Dst Coord
	Hops     []Coord
}

// RouteTable is the per-network routing state recomputed deterministically
// on every failure event: for every ordered pair of coordinates with a
// surviving path, the shortest detour (BFS over healthy directed links,
// dimensions ascending, positive direction first — a fixed exploration
// order, so the table is a pure function of the dead set).
type RouteTable struct {
	Dims   Coord
	Epoch  uint32
	Routes []Route // sorted by (Src, Dst) lexicographic
}

// BuildRouteTable computes the all-pairs table over links/nodes the
// callbacks report alive.
func BuildRouteTable(dims Coord, epoch uint32, linkAlive func(linkKey) bool, nodeAlive func(Coord) bool) *RouteTable {
	rt := &RouteTable{Dims: dims, Epoch: epoch}
	coords := EnumCoords(dims)
	for _, src := range coords {
		if !nodeAlive(src) {
			continue
		}
		parent := map[Coord]Coord{src: src}
		queue := []Coord{src}
		for len(queue) > 0 {
			u := queue[0]
			queue = queue[1:]
			for d := 0; d < 3; d++ {
				if dims[d] <= 1 {
					continue
				}
				for _, pos := range [2]bool{true, false} {
					k := linkKey{u, d, pos}
					if !linkAlive(k) {
						continue
					}
					v := step(u, d, pos, dims)
					if !nodeAlive(v) {
						continue
					}
					if _, seen := parent[v]; seen {
						continue
					}
					parent[v] = u
					queue = append(queue, v)
				}
			}
		}
		for _, dst := range coords {
			if dst == src {
				continue
			}
			if _, ok := parent[dst]; !ok {
				continue
			}
			var rev []Coord
			for c := dst; c != src; c = parent[c] {
				rev = append(rev, c)
			}
			hops := make([]Coord, len(rev))
			for i, c := range rev {
				hops[len(rev)-1-i] = c
			}
			rt.Routes = append(rt.Routes, Route{Src: src, Dst: dst, Hops: hops})
		}
	}
	return rt
}

// coordsToLinks converts a coordinate path into the directed links it
// crosses. On a size-2 dimension both wires connect the same coordinate
// pair, so the coordinate hop alone cannot name the wire; alive (may be
// nil) resolves the ambiguity toward a live link, matching the wire the
// route BFS actually traversed.
func coordsToLinks(src Coord, hops []Coord, dims Coord, alive func(linkKey) bool) []linkKey {
	out := make([]linkKey, 0, len(hops))
	cur := src
	for _, h := range hops {
		for d := 0; d < 3; d++ {
			if cur[d] == h[d] {
				continue
			}
			pos := h[d] == (cur[d]+1)%dims[d]
			if dims[d] == 2 && alive != nil && !alive(linkKey{cur, d, pos}) {
				pos = !pos
			}
			out = append(out, linkKey{cur, d, pos})
			break
		}
		cur = h
	}
	return out
}

// ---- differential tests ----

// diffDims covers 1-D, 2-D and 3-D shapes, size-2 dimensions (where both
// wires of a dimension join the same pair of nodes) included.
var diffDims = []Coord{
	{2, 1, 1}, {3, 1, 1}, {8, 1, 1},
	{2, 5, 1}, {4, 3, 1}, {1, 4, 4},
	{2, 2, 2}, {3, 2, 2}, {2, 3, 3}, {3, 3, 3}, {4, 4, 2},
}

// refPaths resolves the reference table over f's dead set into the link
// path of every routable ordered pair.
func refPaths(dims Coord, f *faultState) map[[2]Coord][]linkKey {
	rt := BuildRouteTable(dims, 0, f.linkAlive, f.nodeAlive)
	out := make(map[[2]Coord][]linkKey, len(rt.Routes))
	for _, r := range rt.Routes {
		out[[2]Coord{r.Src, r.Dst}] = coordsToLinks(r.Src, r.Hops, dims, f.linkAlive)
	}
	return out
}

// TestRoutesMatchAllPairsReference replays seeded link and node deaths and,
// after every death, requires the lazy per-source router to return the
// reference table's path for every ordered pair — nil exactly where the
// reference has no route.
func TestRoutesMatchAllPairsReference(t *testing.T) {
	const seeds = 4
	var pairs, unroutable int
	for _, dims := range diffDims {
		coords := EnumCoords(dims)
		nLinks := 0
		for d := 0; d < 3; d++ {
			if dims[d] > 1 {
				nLinks += 2 * len(coords)
			}
		}
		for seed := uint64(1); seed <= seeds; seed++ {
			// Kill up to half the wiring, so late states disconnect.
			plan := DrawFaultPlan(sim.NewRNG(seed), dims, int(seed)*nLinks/(2*seeds), int(seed%3), 1000)
			eng := sim.NewEngine()
			net := New(eng, DefaultConfig(dims))
			net.ArmFaults(plan, true, nil)
			f := net.faults
			for death := 0; ; death++ {
				ref := refPaths(dims, f)
				for _, a := range coords {
					for _, b := range coords {
						if a == b {
							continue
						}
						got := f.path(a, b, dims)
						want, ok := ref[[2]Coord{a, b}]
						pairs++
						if !ok {
							unroutable++
						}
						if (got != nil) != ok || !slices.Equal(got, want) {
							t.Fatalf("dims %v seed %d after %d deaths: path %v->%v = %v, reference %v (routable %v)",
								dims, seed, death, a, b, got, want, ok)
						}
					}
				}
				if !eng.Step() {
					break
				}
			}
		}
	}
	if unroutable == 0 || unroutable == pairs {
		t.Fatalf("%d of %d compared pairs unroutable; the sweep must see both kinds", unroutable, pairs)
	}
	t.Logf("%d pairs compared, %d unroutable", pairs, unroutable)
}

// TestWiringCheckMatchesAllPairs: CheckPlanWiring's two-walk verdict must
// equal the reference's all-pairs verdict on seeded plans, disconnecting
// ones included, and a refusal must name a pair the reference cannot
// route.
func TestWiringCheckMatchesAllPairs(t *testing.T) {
	var routable, cut int
	for _, dims := range diffDims {
		coords := EnumCoords(dims)
		for seed := uint64(1); seed <= 24; seed++ {
			plan := DrawFaultPlan(sim.NewRNG(seed), dims, int(seed)%(len(coords)+2), int(seed%4), 1000)
			deadL := map[linkKey]bool{}
			deadN := map[Coord]bool{}
			for _, lf := range plan.Links {
				deadL[linkKey{lf.C, lf.Dim, lf.Pos}] = true
			}
			for _, nf := range plan.Nodes {
				deadN[nf.C] = true
			}
			rt := BuildRouteTable(dims, 0,
				func(k linkKey) bool { return !deadL[k] },
				func(c Coord) bool { return !deadN[c] })
			ok := map[[2]Coord]bool{}
			for _, r := range rt.Routes {
				ok[[2]Coord{r.Src, r.Dst}] = true
			}
			want := true
			for _, a := range coords {
				for _, b := range coords {
					if a != b && !deadN[a] && !deadN[b] && !ok[[2]Coord{a, b}] {
						want = false
					}
				}
			}
			err := CheckPlanWiring(dims, plan)
			if (err == nil) != want {
				t.Fatalf("dims %v seed %d: CheckPlanWiring = %v, all-pairs routable = %v", dims, seed, err, want)
			}
			if want {
				routable++
				continue
			}
			cut++
			if !errors.Is(err, ErrUnroutable) {
				t.Fatalf("dims %v seed %d: refusal %v does not wrap ErrUnroutable", dims, seed, err)
			}
			a, b, _ := unreachablePair(dims,
				func(k linkKey) bool { return !deadL[k] },
				func(c Coord) bool { return !deadN[c] })
			if deadN[a] || deadN[b] || ok[[2]Coord{a, b}] {
				t.Fatalf("dims %v seed %d: refusal names %v -> %v, which is not a live unroutable pair", dims, seed, a, b)
			}
		}
	}
	if routable == 0 || cut == 0 {
		t.Fatalf("sweep saw %d routable and %d disconnecting plans; it must see both", routable, cut)
	}
}
