package ckpt

import (
	"crypto/sha256"
	"fmt"
	"strings"
	"testing"

	"bgcnk/internal/upc"
)

// pinnedImage is a fully populated image: every counter of every slot is
// nonzero and distinct, and one file path is longer than MaxPath, so the
// pinned bytes cover the encoder's truncation too.
func pinnedImage() *Image {
	var c upc.Snapshot
	for sl := 0; sl < upc.NumSlots; sl++ {
		for i := range c.Vals[sl] {
			c.Vals[sl][i] = uint64(sl+1)<<40 | uint64(i+1)<<8 | 0x81
		}
		for i := range c.Sys[sl] {
			c.Sys[sl][i] = uint64(sl+1)<<48 | uint64(i+1)<<16 | 0x42
		}
	}
	img := testImage()
	img.JobID, img.Epoch, img.Kind = -9, 0x01020304, 0xa5
	img.Nodes[0].Counters = c
	img.Nodes[1].Counters = c
	img.Nodes[1].Files = []FileState{{FD: 0x7ffffffe, Offset: ^uint64(0), Flags: 0x8000_0000_0000_0001,
		Path: strings.Repeat("/gpfs/deep", MaxPath/10+5)}}
	return img
}

// TestWireBytesPinned pins the image's exact bytes. A round trip cannot
// see a byte-order or field-order slip made on both sides of the codec;
// a digest of the encoder's output can.
func TestWireBytesPinned(t *testing.T) {
	for _, c := range []struct {
		name string
		wire []byte
		sum  string
	}{
		{"populated", pinnedImage().Marshal(), "5f6deaddbbfa7c10db028e5ab287e350c3b3f69327fb2fc7e3eea452c3226ecc"},
		{"extremes", fuzzSeedImages()[2].Marshal(), "7da4cad4c6cce3d9d83b030909f1592dd44d94446cbe3961ba4f76f5f375b0a6"},
		{"pageruns", fuzzSeedImages()[4].Marshal(), "bf5c7f2cbf8f0becce764698acf368d5407aaaa5ee19dfe2ea12e3ed02c7ff6d"},
	} {
		if got := fmt.Sprintf("%x", sha256.Sum256(c.wire)); got != c.sum {
			t.Errorf("%s: sha256 %s, pinned %s", c.name, got, c.sum)
		}
	}
}

// TestMarshalAllocatesOnce checks that Marshal sizes its buffer from the
// node, region, thread and file counts up front: one allocation, no
// growth, no slack.
func TestMarshalAllocatesOnce(t *testing.T) {
	for i, img := range append(fuzzSeedImages(), pinnedImage()) {
		wire := img.Marshal()
		if len(wire) != cap(wire) {
			t.Errorf("image %d: len %d, cap %d", i, len(wire), cap(wire))
		}
		if n := testing.AllocsPerRun(10, func() { wire = img.Marshal() }); n != 1 {
			t.Errorf("image %d: Marshal made %v allocations, want 1", i, n)
		}
	}
}
