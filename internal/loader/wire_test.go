package loader

import (
	"crypto/sha256"
	"fmt"
	"testing"
)

// TestWireBytesPinned pins the exact bytes of a populated and an empty
// BELF image. A round trip cannot see a byte-order or field-order slip
// made on both sides of the codec; a digest of the encoder's output can.
func TestWireBytesPinned(t *testing.T) {
	full := testImage("libpinned.so", "libm.so", "libc.so")
	full.BSS = 0x0102030405060708
	full.Symbols = append(full.Symbols, Sym{Name: "pinned_hi", Offset: 1 << 40, Cost: ^uint64(0)})
	for _, c := range []struct {
		name string
		wire []byte
		sum  string
	}{
		{"library", full.Marshal(), "63fe64a4fc413b2016513d014fb0fc66d559af9c9d430deaa6658913104b6185"},
		{"empty", (&Image{}).Marshal(), "92859e6b52aa4dfebee92c736902a6830f840bb8dc2fce9d1a330b516c204231"},
	} {
		if got := fmt.Sprintf("%x", sha256.Sum256(c.wire)); got != c.sum {
			t.Errorf("%s: sha256 %s, pinned %s", c.name, got, c.sum)
		}
	}
}
