// Package codec is the one binary codec every wire and file format of the
// simulator is written in: the function-shipped CIOD messages, the ION
// frame, the boot personality, the control-system journal and its WAL
// frame, the checkpoint image, the torus fault plan and the BELF image.
//
// A format is fixed-width integers in the format's byte order plus u32
// length-prefixed strings and blobs. Decoding treats its input as
// untrusted: a Dec keeps the first error (naming the format), never reads
// past its input, and never allocates more than the input holds, whatever
// a length prefix claims. Each format keeps its own rules on top — its
// length caps, what it truncates on encode, and whether it tolerates
// trailing bytes (Finish rejects them).
package codec

import (
	"encoding/binary"
	"errors"
	"fmt"
)

// Order is a byte order that both appends and reads: binary.BigEndian or
// binary.LittleEndian. It belongs to the format, never to the caller.
type Order interface {
	binary.ByteOrder
	binary.AppendByteOrder
}

// Enc appends a format's fields to B.
type Enc struct {
	B     []byte
	Order Order
}

// U8, U16, U32 and U64 append one fixed-width field in e.Order.
func (e *Enc) U8(v uint8)   { e.B = append(e.B, v) }
func (e *Enc) U16(v uint16) { e.B = e.Order.AppendUint16(e.B, v) }
func (e *Enc) U32(v uint32) { e.B = e.Order.AppendUint32(e.B, v) }
func (e *Enc) U64(v uint64) { e.B = e.Order.AppendUint64(e.B, v) }

// Bool encodes true as 1 and false as 0.
func (e *Enc) Bool(v bool) {
	if v {
		e.U8(1)
	} else {
		e.U8(0)
	}
}

// Str appends s with a u32 length prefix. A format with a cap truncates
// before calling Str.
func (e *Enc) Str(s string) {
	e.U32(uint32(len(s)))
	e.B = append(e.B, s...)
}

// Blob appends p with a u32 length prefix.
func (e *Enc) Blob(p []byte) {
	e.U32(uint32(len(p)))
	e.B = append(e.B, p...)
}

// Dec reads a format's fields from an untrusted byte string. After the
// first failure every read returns the zero value and the error stays.
type Dec struct {
	b     []byte
	off   int
	order Order
	what  string
	err   error
}

// NewDec returns a decoder over b; what names the format in errors.
func NewDec(b []byte, order Order, what string) *Dec {
	return &Dec{b: b, order: order, what: what}
}

// Fail records a decode error unless one is already recorded.
func (d *Dec) Fail(format string, args ...any) {
	if d.err == nil {
		d.err = fmt.Errorf("%s: %s", d.what, fmt.Sprintf(format, args...))
	}
}

// Err returns the first error, or nil.
func (d *Dec) Err() error { return d.err }

// Left returns the number of unread bytes.
func (d *Dec) Left() int { return len(d.b) - d.off }

// Finish returns the first error, or an error if any input is unread.
func (d *Dec) Finish() error {
	if d.err == nil && d.off != len(d.b) {
		d.Fail("%d trailing bytes", len(d.b)-d.off)
	}
	return d.err
}

// Raw returns the next n bytes without copying them, or nil once the
// decoder has failed or fewer than n bytes are left. n is unsigned so a
// length read from the input, however large, is just too long.
func (d *Dec) Raw(n uint64) []byte {
	if d.err != nil {
		return nil
	}
	if n > uint64(d.Left()) {
		d.Fail("truncated at offset %d: need %d bytes, have %d", d.off, n, d.Left())
		return nil
	}
	v := d.b[d.off : d.off+int(n)]
	d.off += int(n)
	return v
}

// U8, U16, U32 and U64 read one fixed-width field in the decoder's order;
// after a failure they return 0.
func (d *Dec) U8() uint8 {
	if b := d.Raw(1); b != nil {
		return b[0]
	}
	return 0
}

func (d *Dec) U16() uint16 {
	if b := d.Raw(2); b != nil {
		return d.order.Uint16(b)
	}
	return 0
}

func (d *Dec) U32() uint32 {
	if b := d.Raw(4); b != nil {
		return d.order.Uint32(b)
	}
	return 0
}

func (d *Dec) U64() uint64 {
	if b := d.Raw(8); b != nil {
		return d.order.Uint64(b)
	}
	return 0
}

// ErrNotBool is wrapped by the error a decoder records when a boolean
// field holds a byte other than 0 or 1: each value has exactly one
// encoding, so an accepted input re-encodes to the bytes it came from.
var ErrNotBool = errors.New("boolean byte is neither 0 nor 1")

// Bool decodes 1 as true and 0 as false; any other byte fails the decoder
// with an error that names the format and wraps ErrNotBool.
func (d *Dec) Bool() bool {
	off := d.off
	v := d.U8()
	if v > 1 && d.err == nil {
		d.err = fmt.Errorf("%s: %w: %#x at offset %d", d.what, ErrNotBool, v, off)
	}
	return v == 1
}

// Str decodes a u32 length-prefixed string of at most max bytes.
func (d *Dec) Str(max uint32) string {
	return string(d.prefixed(max, "string"))
}

// Blob decodes a u32 length-prefixed byte string of at most max bytes into
// a fresh slice; an empty blob decodes to nil.
func (d *Dec) Blob(max uint32) []byte {
	return append([]byte(nil), d.prefixed(max, "blob")...)
}

func (d *Dec) prefixed(max uint32, kind string) []byte {
	n := d.U32()
	if n > max {
		d.Fail("%s of %d bytes at offset %d exceeds %d", kind, n, d.off, max)
	}
	return d.Raw(uint64(n))
}
