package codec

import (
	"bytes"
	"encoding/binary"
	"errors"
	"math"
	"runtime"
	"strings"
	"testing"
)

func TestRoundTripBothOrders(t *testing.T) {
	for _, order := range []Order{binary.BigEndian, binary.LittleEndian} {
		e := Enc{Order: order}
		e.U8(0xa5)
		e.U16(0x0102)
		e.U32(0x03040506)
		e.U64(0x0708090a0b0c0d0e)
		e.Bool(true)
		e.Bool(false)
		e.Str("name")
		e.Blob([]byte{1, 2, 3})
		e.Blob(nil)

		d := NewDec(e.B, order, "test")
		if v := d.U8(); v != 0xa5 {
			t.Errorf("%v: U8 = %#x", order, v)
		}
		if v := d.U16(); v != 0x0102 {
			t.Errorf("%v: U16 = %#x", order, v)
		}
		if v := d.U32(); v != 0x03040506 {
			t.Errorf("%v: U32 = %#x", order, v)
		}
		if v := d.U64(); v != 0x0708090a0b0c0d0e {
			t.Errorf("%v: U64 = %#x", order, v)
		}
		if !d.Bool() || d.Bool() {
			t.Errorf("%v: Bool pair did not decode as true, false", order)
		}
		if s := d.Str(4); s != "name" {
			t.Errorf("%v: Str = %q", order, s)
		}
		if b := d.Blob(3); !bytes.Equal(b, []byte{1, 2, 3}) {
			t.Errorf("%v: Blob = %v", order, b)
		}
		if b := d.Blob(0); b != nil {
			t.Errorf("%v: empty Blob = %#v, want nil", order, b)
		}
		if err := d.Finish(); err != nil {
			t.Errorf("%v: Finish: %v", order, err)
		}
	}
	be := Enc{Order: binary.BigEndian}
	be.U32(1)
	if !bytes.Equal(be.B, []byte{0, 0, 0, 1}) {
		t.Errorf("big-endian U32(1) = %x", be.B)
	}
	le := Enc{Order: binary.LittleEndian}
	le.U32(1)
	if !bytes.Equal(le.B, []byte{1, 0, 0, 0}) {
		t.Errorf("little-endian U32(1) = %x", le.B)
	}
}

func TestErrorIsStickyAndNamed(t *testing.T) {
	d := NewDec([]byte{1, 2, 3, 4, 5}, binary.BigEndian, "demo format")
	if v := d.U64(); v != 0 || d.Err() == nil {
		t.Fatalf("U64 over 5 bytes = %d, err %v", v, d.Err())
	}
	first := d.Err()
	if !strings.Contains(first.Error(), "demo format") {
		t.Errorf("error %q does not name the format", first)
	}
	// Bytes are still present, but every read after a failure yields the
	// zero value and the first error stays.
	if v := d.U8(); v != 0 {
		t.Errorf("U8 after failure = %d", v)
	}
	if s := d.Str(10); s != "" {
		t.Errorf("Str after failure = %q", s)
	}
	d.Fail("later problem")
	if d.Err() != first || d.Finish() != first {
		t.Errorf("error changed from %q to %v / %v", first, d.Err(), d.Finish())
	}
	if d.Left() != 5 {
		t.Errorf("failed read consumed input: %d bytes left", d.Left())
	}
}

func TestStrAndBlobRespectBounds(t *testing.T) {
	e := Enc{Order: binary.LittleEndian}
	e.Str("abcdef")
	for _, c := range []struct {
		max uint32
		ok  bool
	}{{5, false}, {6, true}, {math.MaxUint32, true}} {
		d := NewDec(e.B, binary.LittleEndian, "t")
		s := d.Str(c.max)
		if (d.Err() == nil) != c.ok || (c.ok && s != "abcdef") {
			t.Errorf("Str(%d) = %q, %v", c.max, s, d.Err())
		}
		d = NewDec(e.B, binary.LittleEndian, "t")
		b := d.Blob(c.max)
		if (d.Err() == nil) != c.ok || (c.ok && string(b) != "abcdef") {
			t.Errorf("Blob(%d) = %q, %v", c.max, b, d.Err())
		}
	}
	// A length the input cannot hold fails without allocating it.
	hostile := []byte{0xff, 0xff, 0xff, 0xff, 'x'}
	d := NewDec(hostile, binary.LittleEndian, "t")
	if d.Blob(math.MaxUint32) != nil || d.Err() == nil {
		t.Fatal("hostile blob length accepted")
	}
	// The fewest bytes of three tries, so another goroutine allocating
	// meanwhile cannot fail the test.
	least := ^uint64(0)
	for i := 0; i < 3; i++ {
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		NewDec(hostile, binary.LittleEndian, "t").Blob(math.MaxUint32)
		runtime.ReadMemStats(&after)
		least = min(least, after.TotalAlloc-before.TotalAlloc)
	}
	if least >= 4096 {
		t.Errorf("hostile blob length allocated %d bytes", least)
	}
	// Blob copies: the result does not alias the input.
	src := []byte{0, 0, 0, 1, 'a'}
	d = NewDec(src, binary.BigEndian, "t")
	b := d.Blob(1)
	src[4] = 'z'
	if string(b) != "a" {
		t.Errorf("Blob aliases its input: %q", b)
	}
}

func TestRawTakesHugeLengths(t *testing.T) {
	for _, n := range []uint64{1 << 63, 1<<63 + 1, math.MaxUint64, 9} {
		d := NewDec(make([]byte, 8), binary.BigEndian, "t")
		if b := d.Raw(n); b != nil || d.Err() == nil {
			t.Errorf("Raw(%d) over 8 bytes = %d bytes, err %v", n, len(b), d.Err())
		}
		if d.Left() != 8 {
			t.Errorf("Raw(%d) consumed input", n)
		}
	}
	d := NewDec([]byte{1, 2, 3}, binary.BigEndian, "t")
	if b := d.Raw(3); !bytes.Equal(b, []byte{1, 2, 3}) || d.Finish() != nil {
		t.Errorf("Raw(3) = %v, %v", b, d.Err())
	}
}

func TestFinishRejectsTrailingBytes(t *testing.T) {
	d := NewDec([]byte{7, 0}, binary.BigEndian, "trailer")
	if v := d.U8(); v != 7 || d.Err() != nil {
		t.Fatalf("U8 = %d, %v", v, d.Err())
	}
	err := d.Finish()
	if err == nil || !strings.Contains(err.Error(), "trailer") {
		t.Errorf("Finish with 1 byte left = %v", err)
	}
	d = NewDec([]byte{7}, binary.BigEndian, "exact")
	d.U8()
	if err := d.Finish(); err != nil {
		t.Errorf("Finish at end of input = %v", err)
	}
}

func TestBoolIsStrict(t *testing.T) {
	for _, b := range []byte{0, 1} {
		d := NewDec([]byte{b}, binary.BigEndian, "flags")
		if v := d.Bool(); v != (b == 1) || d.Finish() != nil {
			t.Errorf("Bool(%#x) = %v, %v", b, v, d.Err())
		}
	}
	for _, b := range []byte{2, 0x80, 0xff} {
		d := NewDec([]byte{0, b, 1}, binary.BigEndian, "flags")
		d.Bool()
		if v := d.Bool(); v || !errors.Is(d.Err(), ErrNotBool) || !strings.Contains(d.Err().Error(), "flags") {
			t.Errorf("Bool(%#x) = %v, %v; want false and a format-named ErrNotBool", b, v, d.Err())
		}
		// The error stays the first one.
		if d.Bool(); !errors.Is(d.Finish(), ErrNotBool) {
			t.Errorf("error after Bool(%#x) changed to %v", b, d.Err())
		}
	}
	// A Bool past the end fails as truncation, not as ErrNotBool.
	d := NewDec(nil, binary.BigEndian, "flags")
	if d.Bool() || d.Err() == nil || errors.Is(d.Err(), ErrNotBool) {
		t.Errorf("Bool over no input = %v", d.Err())
	}
}
