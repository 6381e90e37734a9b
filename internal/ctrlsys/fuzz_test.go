package ctrlsys

import (
	"bytes"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"testing"

	"bgcnk/internal/codec"
)

// fuzzSeedPersonalities are the hand-picked records seeded into the fuzz
// corpus: the zero value, a typical record, extreme field values, and the
// block-name edge cases (empty, multi-midplane, maximum length).
func fuzzSeedPersonalities() []Personality {
	return []Personality{
		{},
		{Rank: 3, Nodes: 8, X: 3, Partition: 2, Base: 1, Block: "R00-M1",
			Kind: 1, Seed: 0xdeadbeef, MemBytes: 256 << 20},
		{Rank: -1, Nodes: -1, X: -1, Y: -1, Z: -1, Partition: -1, Base: -1,
			Block: "R01-M0+2", Kind: 0xff, Seed: ^uint64(0), MemBytes: ^uint64(0)},
		{Block: strings.Repeat("b", maxBlockName)},
	}
}

func FuzzPersonality(f *testing.F) {
	for _, p := range fuzzSeedPersonalities() {
		p := p
		wire := p.Marshal()
		f.Add(wire)
		f.Add(wire[:len(wire)-1]) // truncated tail
		f.Add(wire[:len(wire)/2]) // truncated mid-record
	}
	f.Add([]byte{})
	f.Add([]byte{0xff, 0xff, 0xff, 0xff})
	f.Add([]byte("go test fuzz is not a personality"))
	f.Fuzz(func(t *testing.T, data []byte) {
		p, err := UnmarshalPersonality(data)
		if err != nil {
			return // rejection is fine; the property is about accepted inputs
		}
		// Accepted input must be canonical: it re-marshals to exactly the
		// bytes that were accepted, and that round-trips to the same record.
		wire := p.Marshal()
		if !bytes.Equal(wire, data) {
			t.Fatalf("accepted non-canonical input:\n in  %x\n out %x", data, wire)
		}
		q, err := UnmarshalPersonality(wire)
		if err != nil {
			t.Fatalf("re-decode of own marshal failed: %v", err)
		}
		if *q != *p {
			t.Fatalf("round trip changed record: %+v vs %+v", *q, *p)
		}
	})
}

// TestPersonalityCodecRejects pins the decoder's rejection behaviour
// deterministically, independent of the fuzzer.
func TestPersonalityCodecRejects(t *testing.T) {
	good := fuzzSeedPersonalities()[1]
	wire := good.Marshal()

	for cut := 0; cut < len(wire); cut++ {
		if _, err := UnmarshalPersonality(wire[:cut]); err == nil {
			t.Errorf("truncation to %d bytes accepted", cut)
		}
	}
	if _, err := UnmarshalPersonality(append(append([]byte{}, wire...), 0)); err == nil {
		t.Error("trailing byte accepted")
	}
	bad := append([]byte{}, wire...)
	bad[0] ^= 0x01
	if _, err := UnmarshalPersonality(bad); err == nil {
		t.Error("bad magic accepted")
	}
	bad = append([]byte{}, wire...)
	bad[4] = personalityVersion + 1
	if _, err := UnmarshalPersonality(bad); err == nil {
		t.Error("unknown version accepted")
	}
	// A hostile block-name length must be rejected without a big allocation.
	hostile := good
	hostile.Block = ""
	hw := hostile.Marshal()
	hw[33], hw[34], hw[35], hw[36] = 0xff, 0xff, 0xff, 0x7f // length field
	if _, err := UnmarshalPersonality(hw); err == nil {
		t.Error("hostile block length accepted")
	}
	// A name longer than the cap never marshals, so the decoder may
	// reject the cap boundary strictly.
	long := Personality{Block: strings.Repeat("x", maxBlockName+10)}
	rt, err := UnmarshalPersonality(long.Marshal())
	if err != nil {
		t.Fatalf("capped marshal did not decode: %v", err)
	}
	if len(rt.Block) != maxBlockName {
		t.Errorf("block name cap not applied: got %d bytes", len(rt.Block))
	}
}

// TestWritePersonalityCorpus regenerates the committed seed corpus under
// testdata/fuzz/FuzzPersonality. Skipped unless GEN_CORPUS=1; rerun it
// after changing the wire format or the seed set.
func TestWritePersonalityCorpus(t *testing.T) {
	if os.Getenv("GEN_CORPUS") == "" {
		t.Skip("set GEN_CORPUS=1 to regenerate the committed fuzz corpus")
	}
	dir := filepath.Join("testdata", "fuzz", "FuzzPersonality")
	if err := os.MkdirAll(dir, 0o755); err != nil {
		t.Fatal(err)
	}
	write := func(name string, data []byte) {
		body := fmt.Sprintf("go test fuzz v1\n[]byte(%s)\n", strconv.Quote(string(data)))
		if err := os.WriteFile(filepath.Join(dir, name), []byte(body), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	seeds := fuzzSeedPersonalities()
	write("seed_zero", seeds[0].Marshal())
	write("seed_typical", seeds[1].Marshal())
	write("seed_extremes", seeds[2].Marshal())
	write("seed_maxname", seeds[3].Marshal())
	typical := seeds[1].Marshal()
	write("seed_trunc_tail", typical[:len(typical)-1])
	write("seed_trunc_half", typical[:len(typical)/2])
	write("seed_empty", []byte{})
	write("seed_junk", []byte{0xff, 0xff, 0xff, 0xff})
}

// journalBodies pairs every journal body kind's decoder with its encoder:
// remarshal decodes b and, if it is accepted, encodes the result again.
var journalBodies = []struct {
	name      string
	remarshal func(b []byte) ([]byte, error)
}{
	{"job", func(b []byte) ([]byte, error) {
		j, err := unmarshalJob(b)
		return marshalJob(j), err
	}},
	{"id", func(b []byte) ([]byte, error) {
		id, err := decodeID(b)
		return idBody(id), err
	}},
	{"triple", func(b []byte) ([]byte, error) {
		x, y, z, err := decodeTriple(b)
		return tripleBody(x, y, z), err
	}},
	{"boot", func(b []byte) ([]byte, error) {
		id, seed, err := decodeBoot(b)
		return bootBody(id, seed), err
	}},
	{"job result", func(b []byte) ([]byte, error) {
		r, err := unmarshalJobResult(b)
		if err != nil {
			return nil, err
		}
		return marshalJobResult(r), nil
	}},
	{"complete", func(b []byte) ([]byte, error) {
		id, r, err := decodeComplete(b)
		if err != nil {
			return nil, err
		}
		return completeBody(id, r), nil
	}},
	{"resume", func(b []byte) ([]byte, error) {
		rp, err := unmarshalResume(b)
		if err != nil {
			return nil, err
		}
		return marshalResume(rp), nil
	}},
	{"ckpt commit", func(b []byte) ([]byte, error) {
		id, rp, err := decodeCkptCommit(b)
		if err != nil {
			return nil, err
		}
		return ckptCommitBody(id, rp), nil
	}},
}

// pinnedJournalBodies returns one body per journal body kind, indexed like
// journalBodies, built from the values TestWireBytesPinned pins.
func pinnedJournalBodies() [][]byte {
	res := pinnedJobResult()
	rp := &resumePoint{res: *res, rasHash: 0x1122334455667788, next: 3, image: []byte("checkpoint image bytes")}
	return [][]byte{
		marshalJob(res.Job),
		idBody(-3),
		tripleBody(9, -1, 4),
		bootBody(12, 0x0123456789abcdef),
		marshalJobResult(res),
		completeBody(41, res),
		marshalResume(rp),
		ckptCommitBody(41, rp),
	}
}

// FuzzJournalBody decodes arbitrary bytes as the journal body kind the
// first argument names. Its property: an accepted body is canonical — it
// re-marshals to exactly the bytes that were accepted.
func FuzzJournalBody(f *testing.F) {
	for k, wire := range pinnedJournalBodies() {
		f.Add(uint8(k), wire)
		f.Add(uint8(k), wire[:len(wire)-1]) // truncated tail
		f.Add(uint8(k), append(wire, 0))    // trailing byte
	}
	res := pinnedJobResult()
	crash2 := marshalJobResult(res)
	crash2[len(crash2)-1] = 2 // CrashAborted byte 2: refused, never re-marshalled as 1
	f.Add(uint8(4), crash2)
	f.Add(uint8(5), completeBody(41, &JobResult{}))
	f.Add(uint8(7), ckptCommitBody(41, &resumePoint{res: *res}))
	f.Add(uint8(0), []byte{})
	f.Fuzz(func(t *testing.T, kind uint8, data []byte) {
		b := journalBodies[int(kind)%len(journalBodies)]
		wire, err := b.remarshal(data)
		if err != nil {
			return // rejection is fine; the property is about accepted inputs
		}
		if !bytes.Equal(wire, data) {
			t.Fatalf("%s: accepted non-canonical body:\n in  %x\n out %x", b.name, data, wire)
		}
	})
}

// TestJobResultRejectsNonBooleanFlags: a job result whose BudgetExhausted
// or CrashAborted byte is neither 0 nor 1 is refused with the typed codec
// error, on its own and inside a complete record, instead of decoding as
// true and re-marshalling to different bytes.
func TestJobResultRejectsNonBooleanFlags(t *testing.T) {
	good := marshalJobResult(pinnedJobResult())
	for _, back := range []int{1, 2} { // CrashAborted, BudgetExhausted
		for _, v := range []byte{2, 0xff} {
			bad := append([]byte(nil), good...)
			bad[len(bad)-back] = v
			if _, err := unmarshalJobResult(bad); !errors.Is(err, codec.ErrNotBool) {
				t.Errorf("flag byte -%d = %#x: err %v, want codec.ErrNotBool", back, v, err)
			}
			e := newEnc()
			e.U32(41)
			e.Blob(bad)
			if _, _, err := decodeComplete(e.B); !errors.Is(err, codec.ErrNotBool) {
				t.Errorf("complete record, flag byte -%d = %#x: err %v, want codec.ErrNotBool", back, v, err)
			}
		}
	}
}
