package ctrlsys

import (
	"encoding/binary"
	"fmt"

	"bgcnk/internal/codec"
)

// Personality is the per-node boot record the control system delivers
// with the kernel image: who the node is, where it sits, and how its
// kernel should come up. On the real machine this is the BG personality
// structure written into each node's SRAM by the service node; here it is
// the unit of per-node traffic in the boot-protocol model and the wire
// format the FuzzPersonality harness attacks.
type Personality struct {
	Rank      int32  // node's rank within the partition
	Nodes     int32  // partition size
	X, Y, Z   int32  // torus coordinates
	Partition int32  // owning partition ID
	Base      int32  // partition's base midplane
	Block     string // control-system block name, e.g. "R00-M1"
	Kind      uint8  // kernel kind (machine.KernelKind)
	Seed      uint64 // kernel seed
	MemBytes  uint64 // DDR size
}

// Wire format (the control system's little-endian codec, u32
// length-prefixed strings): magic, version, fixed-width fields, block
// name. Decoders must accept exactly what Marshal produces and nothing
// else (no trailing bytes), so any accepted input re-marshals to itself.
const (
	personalityMagic   = 0x42475062 // "BGPb"
	personalityVersion = 1
	maxBlockName       = 256
)

// Marshal encodes the personality, truncating the block name to
// maxBlockName bytes.
func (p *Personality) Marshal() []byte {
	e := newEnc()
	e.U32(personalityMagic)
	e.U8(personalityVersion)
	e.U32(uint32(p.Rank))
	e.U32(uint32(p.Nodes))
	e.U32(uint32(p.X))
	e.U32(uint32(p.Y))
	e.U32(uint32(p.Z))
	e.U32(uint32(p.Partition))
	e.U32(uint32(p.Base))
	e.Str(p.Block[:min(len(p.Block), maxBlockName)])
	e.U8(p.Kind)
	e.U64(p.Seed)
	e.U64(p.MemBytes)
	return e.B
}

// UnmarshalPersonality decodes one personality record, rejecting bad
// magic, unknown versions, oversized block names, truncation, and
// trailing garbage.
func UnmarshalPersonality(b []byte) (*Personality, error) {
	d := codec.NewDec(b, binary.LittleEndian, "ctrlsys: personality")
	if m := d.U32(); d.Err() == nil && m != personalityMagic {
		return nil, fmt.Errorf("ctrlsys: bad personality magic %#x", m)
	}
	if v := d.U8(); d.Err() == nil && v != personalityVersion {
		return nil, fmt.Errorf("ctrlsys: unsupported personality version %d", v)
	}
	p := &Personality{}
	p.Rank = int32(d.U32())
	p.Nodes = int32(d.U32())
	p.X = int32(d.U32())
	p.Y = int32(d.U32())
	p.Z = int32(d.U32())
	p.Partition = int32(d.U32())
	p.Base = int32(d.U32())
	p.Block = d.Str(maxBlockName)
	p.Kind = d.U8()
	p.Seed = d.U64()
	p.MemBytes = d.U64()
	if err := d.Finish(); err != nil {
		return nil, err
	}
	return p, nil
}

// personalityWireBytes is the marshalled size of a representative record;
// the boot model charges this much control-network traffic per node.
func personalityWireBytes() int {
	p := Personality{Block: "R00-M0", Seed: 1, MemBytes: 256 << 20}
	return len(p.Marshal())
}
