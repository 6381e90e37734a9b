package ctrlsys

import (
	"fmt"
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

// Wire format (the journal codec's: little-endian integers, u32
// length-prefixed strings): magic, version, fixed-width fields, block
// name. Decoders must accept exactly what Marshal produces and nothing
// else (no trailing bytes), so any accepted input re-marshals to itself.
const (
	personalityMagic   = 0x42475062 // "BGPb"
	personalityVersion = 1
	maxBlockName       = 256
)

// Marshal encodes the personality.
func (p *Personality) Marshal() []byte {
	block := p.Block
	if len(block) > maxBlockName {
		block = block[:maxBlockName]
	}
	e := &jenc{}
	e.u32(personalityMagic)
	e.u8(personalityVersion)
	e.u32(uint32(p.Rank))
	e.u32(uint32(p.Nodes))
	e.u32(uint32(p.X))
	e.u32(uint32(p.Y))
	e.u32(uint32(p.Z))
	e.u32(uint32(p.Partition))
	e.u32(uint32(p.Base))
	e.str(block)
	e.u8(p.Kind)
	e.u64(p.Seed)
	e.u64(p.MemBytes)
	return e.b
}

// UnmarshalPersonality decodes one personality record, rejecting bad
// magic, unknown versions, oversized block names, truncation, and
// trailing garbage.
func UnmarshalPersonality(b []byte) (*Personality, error) {
	d := &jdec{b: b, what: "personality"}
	if m := d.u32(); d.err == nil && m != personalityMagic {
		return nil, fmt.Errorf("ctrlsys: bad personality magic %#x", m)
	}
	if v := d.u8(); d.err == nil && v != personalityVersion {
		return nil, fmt.Errorf("ctrlsys: unsupported personality version %d", v)
	}
	p := &Personality{}
	p.Rank = int32(d.u32())
	p.Nodes = int32(d.u32())
	p.X = int32(d.u32())
	p.Y = int32(d.u32())
	p.Z = int32(d.u32())
	p.Partition = int32(d.u32())
	p.Base = int32(d.u32())
	p.Block = d.str(maxBlockName)
	p.Kind = d.u8()
	p.Seed = d.u64()
	p.MemBytes = d.u64()
	if err := d.finish(); err != nil {
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
