package torus

import (
	"crypto/sha256"
	"fmt"
	"testing"
)

// TestWireBytesPinned pins the fault plan's exact bytes. A round trip
// cannot see a byte-order or field-order slip made on both sides of the
// codec; a digest of the encoder's output can.
func TestWireBytesPinned(t *testing.T) {
	plan := &FaultPlan{
		Links: []LinkFault{
			{C: Coord{1, 2, 3}, Dim: 2, Pos: true, At: 0x0102030405},
			{C: Coord{7, 0, 5}, Dim: 0, Pos: false, At: 99},
			{C: Coord{0, 6, 1}, Dim: 1, Pos: true, At: 99},
		},
		Nodes: []NodeFault{
			{C: Coord{4, 4, 4}, At: 1 << 40},
			{C: Coord{0, 1, 2}, At: 7},
		},
	}
	for _, c := range []struct {
		name string
		wire []byte
		sum  string
	}{
		{"plan", plan.Marshal(), "d46c8160b6ed3bec63844b875712fab1ba556ead7f04839d654133059c645e15"},
		{"empty plan", (&FaultPlan{}).Marshal(), "46d9417c3966dfa23709e82929fc35ddcebec3275036799e3bed85082ac7f38b"},
	} {
		if got := fmt.Sprintf("%x", sha256.Sum256(c.wire)); got != c.sum {
			t.Errorf("%s: sha256 %s, pinned %s", c.name, got, c.sum)
		}
	}
}
