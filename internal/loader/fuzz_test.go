package loader

import (
	"bytes"
	"encoding/binary"
	"reflect"
	"testing"
)

// FuzzImage drives the BELF decoder with corrupted, truncated and hostile
// inputs: Dlopen decodes file bytes a simulated program can write. No
// input may panic. An accepted image must re-marshal to exactly the bytes
// the decoder consumed (a prefix of the input: trailing bytes are
// ignored), and decoding that yields the same image.
func FuzzImage(f *testing.F) {
	typical := testImage("libfoo.so", "libm.so", "libc.so").Marshal()
	f.Add(typical)
	f.Add(typical[:len(typical)-1])
	f.Add((&Image{}).Marshal())
	f.Add([]byte("BELF"))
	f.Add([]byte{})
	// Length fields at and past 2^63, which go negative as an int.
	text := 4 + 4 + len("libfoo.so") // the Text length follows magic and name
	for _, n := range []uint64{1 << 63, ^uint64(0)} {
		b := bytes.Clone(typical)
		binary.BigEndian.PutUint64(b[text:], n)
		f.Add(b)
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		im, err := Unmarshal(data)
		if err != nil {
			return // rejection is fine; the property is about accepted inputs
		}
		wire := im.Marshal()
		if !bytes.HasPrefix(data, wire) {
			t.Fatalf("accepted image re-marshals to bytes the input does not start with:\n in  %x\n out %x", data, wire)
		}
		again, err := Unmarshal(wire)
		if err != nil {
			t.Fatalf("re-decode of own marshal failed: %v", err)
		}
		if !reflect.DeepEqual(im, again) {
			t.Fatalf("round trip changed the image: %+v -> %+v", im, again)
		}
	})
}
