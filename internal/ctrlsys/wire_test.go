package ctrlsys

import (
	"crypto/sha256"
	"fmt"
	"strings"
	"testing"

	"bgcnk/internal/machine"
	"bgcnk/internal/upc"
)

// pinnedJobResult is a fully populated result: every field nonzero,
// every counter distinct.
func pinnedJobResult() *JobResult {
	r := &JobResult{
		Job:   Job{ID: 41, Name: "pinned-job", Midplanes: 4, Work: 0x0102030405, Exchanges: 17, IOBytes: 1 << 33},
		Nodes: 2048,
		Boot: BootResult{Kind: machine.KernelKind(1), Nodes: 2048, ImageBytes: 0x0a0b0c0d0e,
			Waves: 11, ImagePhase: 1001, PerNodePhase: 2002, InitPhase: 3003, Total: 6006},
		Run: 0x7766554433, Teardown: 99,
		ExitCodes: []int{0, 1, -1, 255},
		RASEvents: 12, RASHash: 0xfeedfacecafebeef, Err: "node 3: machine check",
		Attempts: []Attempt{
			{Boot: 10, Run: 20, ResumeEpoch: -1, FaultMidplane: 2, Backoff: 30},
			{Boot: 11, Run: 21, ResumeEpoch: 4, FaultMidplane: -1, Completed: true},
		},
		Restarts: 1, Wasted: 5000, RestartOverhead: 5030, BudgetExhausted: true, CrashAborted: true,
	}
	for sl := 0; sl < upc.NumSlots; sl++ {
		for i := range r.Counters.Vals[sl] {
			r.Counters.Vals[sl][i] = uint64(sl+1)<<40 | uint64(i+1)<<8 | 0x81
		}
		for i := range r.Counters.Sys[sl] {
			r.Counters.Sys[sl][i] = uint64(sl+1)<<48 | uint64(i+1)<<16 | 0x42
		}
	}
	return r
}

// TestWireBytesPinned pins the exact bytes of every journal body kind and
// of the personality, including the encoder's block-name truncation. A
// round trip cannot see a byte-order or field-order slip made on both
// sides of the codec; a digest of the encoder's output can.
func TestWireBytesPinned(t *testing.T) {
	res := pinnedJobResult()
	rp := &resumePoint{res: *res, rasHash: 0x1122334455667788, next: 3, image: []byte("checkpoint image bytes")}
	full := Personality{Rank: 1027, Nodes: 2048, X: 3, Y: -4, Z: 5, Partition: 6, Base: 7,
		Block: "R01-M0+2", Kind: 2, Seed: 0x0123456789abcdef, MemBytes: 512 << 20}
	long := full
	long.Block = strings.Repeat("R77-M1", maxBlockName/6+3)
	for _, c := range []struct {
		name string
		wire []byte
		sum  string
	}{
		{"job", marshalJob(res.Job), "592ef35383dad3f67f96b8f6a81ba3ec9d8da09581269a35fc143c1f6ef28fb8"},
		{"id", idBody(-3), "23e9829bfb4e23fbd3c4848baa035af15d73bcb83e510f7f097f90a21a4280d2"},
		{"triple", tripleBody(9, -1, 4), "88fc22ab317db7c5d84e8be7da19176fc22f6f813fba05cfd8d74be249ce52aa"},
		{"boot", bootBody(12, 0x0123456789abcdef), "e447006713cb50319e285e8c906f6f3ccd1184f125409aa59030a099ac9e5ed6"},
		{"job result", marshalJobResult(res), "ca93fc146ae42bc88da5874bc4e514ed4b14c8f33154d6fc1af8cf39d963cc35"},
		{"complete", completeBody(41, res), "b51895bc682b0549ec41aa64f34422c43dee493b14140a3cb4a234c1ace6f651"},
		{"resume", marshalResume(rp), "30059a4adc97d91d9f76a508992f009e122e43081c1b28e6c74cf3c856f08311"},
		{"ckpt commit", ckptCommitBody(41, rp), "dea5c433bb1fa93e258a7e508ccc8a01730af2d5f83155c6ea3ffdeac76863b0"},
		{"cold ckpt commit", ckptCommitBody(41, &resumePoint{res: *res}), "faf6def5f2357b94811d85de3e6fdcd0367620dcf903efbe84bc2f7d549f6fe4"},
		{"personality", full.Marshal(), "deeaab521e0245748c704111aa0ad9da0c673fad157585edfbcd70f844097d4c"},
		{"personality long block", long.Marshal(), "62882179e68e77422562c3537b3adc30da477cefa7a763a19d35333c09db47dc"},
	} {
		if got := fmt.Sprintf("%x", sha256.Sum256(c.wire)); got != c.sum {
			t.Errorf("%s: sha256 %s, pinned %s", c.name, got, c.sum)
		}
	}
}
