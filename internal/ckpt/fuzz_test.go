package ckpt

import (
	"bytes"
	"fmt"
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"testing"

	"bgcnk/internal/upc"
)

// fuzzSeedImages are the hand-picked images seeded into the corpus: the
// empty image, the representative two-node image, extreme field values,
// a path at the cap, and a many-region FWK-shaped node.
func fuzzSeedImages() []*Image {
	pages := &Image{Nodes: []NodeState{{Node: 0}}}
	for i := 0; i < 64; i++ {
		vb := uint64(0x1000 + i*0x2000)
		pages.Nodes[0].Regions = append(pages.Nodes[0].Regions,
			Region{VBase: vb, Size: 4096, Digest: RegionDigest("fwk", vb, 4096)})
	}
	return []*Image{
		{},
		testImage(),
		{
			JobID: -1, Epoch: ^uint32(0), Kind: 0xff,
			Nodes: []NodeState{{
				Node:    -2,
				Regions: []Region{{VBase: 0, Size: ^uint64(0), Digest: ^uint64(0)}},
				Threads: []RegState{{TID: ^uint32(0), PC: ^uint64(0), SP: ^uint64(0)}},
				Files:   []FileState{{FD: 0x7fffffff, Offset: ^uint64(0), Flags: ^uint64(0)}},
			}},
		},
		{Nodes: []NodeState{{Node: 0, Files: []FileState{{FD: 1, Path: strings.Repeat("p", MaxPath)}}}}},
		pages,
	}
}

// FuzzCheckpointImage drives the decoder with corrupted, truncated and
// hostile inputs. The invariant on every accepted input is canonicality:
// it re-marshals to exactly the bytes that were accepted, and the
// re-decode yields the same image. Rejections just need to be clean (no
// panic, no huge allocation — length prefixes are validated against the
// bytes actually present before any make()).
func FuzzCheckpointImage(f *testing.F) {
	for _, img := range fuzzSeedImages() {
		wire := img.Marshal()
		f.Add(wire)
		f.Add(wire[:len(wire)-1]) // truncated tail
		f.Add(wire[:len(wire)/2]) // truncated mid-image
	}
	// Length-prefix abuse: huge node and region counts.
	hostile := testImage().Marshal()
	for _, off := range []int{17, 25} {
		b := append([]byte{}, hostile...)
		b[off], b[off+1], b[off+2], b[off+3] = 0xff, 0xff, 0xff, 0x7f
		f.Add(b)
	}
	f.Add([]byte{})
	f.Add([]byte{0xff, 0xff, 0xff, 0xff})
	f.Add([]byte("go test fuzz is not a checkpoint"))
	f.Fuzz(func(t *testing.T, data []byte) {
		img, err := Unmarshal(data)
		if err != nil {
			return // rejection is fine; the property is about accepted inputs
		}
		wire := img.Marshal()
		if !bytes.Equal(wire, data) {
			t.Fatalf("accepted non-canonical input:\n in  %x\n out %x", data, wire)
		}
		again, err := Unmarshal(wire)
		if err != nil {
			t.Fatalf("re-decode of own marshal failed: %v", err)
		}
		if !imagesEqual(img, again) {
			t.Fatal("round trip changed image")
		}
	})
}

// TestWriteCheckpointCorpus writes the committed seed corpus under
// testdata/fuzz/FuzzCheckpointImage. Skipped unless GEN_CORPUS=1; rerun
// after changing the wire format or the seed set. Layout-dependent seeds
// carry the counter-block dimensions in their names, so seeds written for
// an older UPC layout stay in the corpus as foreign-layout rejects.
func TestWriteCheckpointCorpus(t *testing.T) {
	if os.Getenv("GEN_CORPUS") == "" {
		t.Skip("set GEN_CORPUS=1 to regenerate the committed fuzz corpus")
	}
	dir := filepath.Join("testdata", "fuzz", "FuzzCheckpointImage")
	if err := os.MkdirAll(dir, 0o755); err != nil {
		t.Fatal(err)
	}
	write := func(name string, data []byte) {
		body := fmt.Sprintf("go test fuzz v1\n[]byte(%s)\n", strconv.Quote(string(data)))
		if err := os.WriteFile(filepath.Join(dir, name), []byte(body), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	layout := fmt.Sprintf("seed_%dx%dx%d_", upc.NumSlots, upc.NumCounters, upc.MaxSyscalls)
	seeds := fuzzSeedImages()
	write(layout+"empty_image", seeds[0].Marshal())
	write(layout+"typical", seeds[1].Marshal())
	write(layout+"extremes", seeds[2].Marshal())
	write(layout+"maxpath", seeds[3].Marshal())
	write(layout+"pageruns", seeds[4].Marshal())
	typical := seeds[1].Marshal()
	write(layout+"trunc_tail", typical[:len(typical)-1])
	write(layout+"trunc_half", typical[:len(typical)/2])
	hostileNodes := append([]byte{}, typical...)
	hostileNodes[17], hostileNodes[18], hostileNodes[19], hostileNodes[20] = 0xff, 0xff, 0xff, 0x7f
	write(layout+"hostile_nodes", hostileNodes)
	hostileRegions := append([]byte{}, typical...)
	hostileRegions[25], hostileRegions[26], hostileRegions[27], hostileRegions[28] = 0xff, 0xff, 0xff, 0x7f
	write(layout+"hostile_regions", hostileRegions)
	write("seed_empty", []byte{})
	write("seed_junk", []byte{0xff, 0xff, 0xff, 0xff})
}

// TestCommittedCorpusDecodes guards the committed corpus against going
// stale: at least one seed must decode under the current layout and carry
// regions, threads and files, so the fuzzer starts past the header checks.
func TestCommittedCorpusDecodes(t *testing.T) {
	dir := filepath.Join("testdata", "fuzz", "FuzzCheckpointImage")
	ents, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	deep := 0
	for _, e := range ents {
		raw, err := os.ReadFile(filepath.Join(dir, e.Name()))
		if err != nil {
			t.Fatal(err)
		}
		lit, ok := strings.CutPrefix(strings.TrimSpace(string(raw)), "go test fuzz v1\n[]byte(")
		if !ok {
			t.Fatalf("%s: not a one-argument []byte corpus file", e.Name())
		}
		data, err := strconv.Unquote(strings.TrimSuffix(lit, ")"))
		if err != nil {
			t.Fatalf("%s: %v", e.Name(), err)
		}
		img, err := Unmarshal([]byte(data))
		if err != nil {
			continue
		}
		for _, n := range img.Nodes {
			if len(n.Regions) > 0 && len(n.Threads) > 0 && len(n.Files) > 0 {
				deep++
				break
			}
		}
	}
	if deep == 0 {
		t.Errorf("no committed seed in %s decodes to a node with regions, threads and files; regenerate with GEN_CORPUS=1", dir)
	}
}
