package ion

import (
	"crypto/sha256"
	"fmt"
	"testing"
)

// TestWireBytesPinned pins the frame's exact bytes. A round trip cannot
// see a byte-order or field-order slip made on both sides of the codec; a
// digest of the encoder's output can.
func TestWireBytesPinned(t *testing.T) {
	for _, c := range []struct {
		name string
		wire []byte
		sum  string
	}{
		{"frame", MarshalFrame(&Frame{CN: -2, PID: 0x01020304, Tag: 0xa0b0c0d0, Payload: []byte("marshalled request")}), "a00b1d24dab4ee9dac9b88f6c5ce3c121062ee1fbf60b7874be8660edf9e5934"},
		{"empty frame", MarshalFrame(&Frame{CN: 7}), "05ba14e79d5ca8dfa1f3ed4e8ee1e96b62bf6900b4cf771717cd464af0a63053"},
	} {
		if got := fmt.Sprintf("%x", sha256.Sum256(c.wire)); got != c.sum {
			t.Errorf("%s: sha256 %s, pinned %s", c.name, got, c.sum)
		}
	}
}
