package ion

import (
	"encoding/binary"
	"fmt"
	"math"

	"bgcnk/internal/codec"
)

// Frame is the multiplexed CN→ION framing. When the ION subsystem is
// armed, every function-shipped request crosses the shared uplink wrapped
// in a frame naming its originating compute node, process and reply tag,
// so one daemon can demultiplex many compute nodes' traffic arriving
// interleaved on a single link. The format is strict — fixed magic, exact
// payload length, no trailing bytes — so a corrupted frame is rejected
// rather than misrouted.
type Frame struct {
	CN      int32  // originating compute node ID
	PID     uint32 // process whose ioproxy should serve the payload
	Tag     uint32 // reply tag the CN is waiting on
	Payload []byte // marshalled ciod request
}

// frameMagic guards against unframed traffic reaching a demux and vice
// versa.
const frameMagic = 0xB6

// frameHeader is magic(1) + cn(4) + pid(4) + tag(4) + paylen(4).
const frameHeader = 1 + 4 + 4 + 4 + 4

// MarshalFrame renders the frame in wire format (big-endian, like the
// rest of the protocol stack).
func MarshalFrame(f *Frame) []byte {
	e := codec.Enc{B: make([]byte, 0, frameHeader+len(f.Payload)), Order: binary.BigEndian}
	e.U8(frameMagic)
	e.U32(uint32(f.CN))
	e.U32(f.PID)
	e.U32(f.Tag)
	e.Blob(f.Payload)
	return e.B
}

// UnmarshalFrame parses wire format strictly: bad magic, short buffers,
// and length mismatches (including trailing garbage) are all errors.
func UnmarshalFrame(b []byte) (*Frame, error) {
	d := codec.NewDec(b, binary.BigEndian, "ion: frame")
	if m := d.U8(); d.Err() == nil && m != frameMagic {
		return nil, fmt.Errorf("ion: bad frame magic %#x", m)
	}
	f := &Frame{CN: int32(d.U32()), PID: d.U32(), Tag: d.U32(), Payload: d.Blob(math.MaxUint32)}
	if err := d.Finish(); err != nil {
		return nil, err
	}
	return f, nil
}
