package wal

import (
	"crypto/sha256"
	"fmt"
	"testing"
)

// TestWireBytesPinned pins the record frame's exact bytes. A round trip
// cannot see a byte-order or field-order slip made on both sides of the
// codec; a digest of the encoder's output can.
func TestWireBytesPinned(t *testing.T) {
	for _, c := range []struct {
		name string
		wire []byte
		sum  string
	}{
		{"record", EncodeRecord(0x0102030405060708, 0xa5, []byte("journal body \x00\xff")), "c8d178455cea42b6a12193fe943f2daa523932ece7508db07ec8df4bdc54c855"},
		{"empty body", EncodeRecord(1, 12, nil), "1cfa9d926feb5e98cb62e5197edb8a64d676a3825d4a7da535ae9af36914d4a9"},
	} {
		if got := fmt.Sprintf("%x", sha256.Sum256(c.wire)); got != c.sum {
			t.Errorf("%s: sha256 %s, pinned %s", c.name, got, c.sum)
		}
	}
}
