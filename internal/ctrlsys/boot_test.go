package ctrlsys

import (
	"sync"
	"testing"

	"bgcnk/internal/machine"
	"bgcnk/internal/sim"
)

// TestBootProbeMemoMatchesFreshProbe runs SimulateBoot for all three probe
// cases from many goroutines at once (run it under -race) and requires
// every result to carry exactly the init cost an un-memoized probe
// measures.
func TestBootProbeMemoMatchesFreshProbe(t *testing.T) {
	cases := []struct {
		name     string
		kind     machine.KernelKind
		stripped bool
		extra    sim.Cycles
	}{
		{"cnk", machine.KindCNK, false, 0},
		{"fwk", machine.KindFWK, false, fwkDaemonStartCost},
		{"fwk_stripped", machine.KindFWK, true, fwkDaemonStartCost},
	}
	want := make([]sim.Cycles, len(cases))
	for i, c := range cases {
		want[i] = sim.Cycles(probeBootInstr(c.kind, c.stripped)) + c.extra
		if want[i] == 0 {
			t.Fatalf("%s: probe measured no boot cost", c.name)
		}
	}
	if want[1] == want[2] {
		t.Fatalf("stripped and full FWK probes agree (%d): the memo cannot tell them apart", want[1])
	}

	const callers = 8
	got := make([][callers]sim.Cycles, len(cases))
	var wg sync.WaitGroup
	for i, c := range cases {
		for g := 0; g < callers; g++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				r := SimulateBoot(BootConfig{Kind: c.kind, Nodes: 64, NodesPerMidplane: 32, Stripped: c.stripped})
				got[i][g] = r.InitPhase
			}()
		}
	}
	wg.Wait()
	for i, c := range cases {
		for g, v := range got[i] {
			if v != want[i] {
				t.Errorf("%s caller %d: InitPhase %d, fresh probe %d", c.name, g, v, want[i])
			}
		}
	}
}
