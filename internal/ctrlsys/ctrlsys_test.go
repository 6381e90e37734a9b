package ctrlsys

import (
	"testing"

	"bgcnk/internal/machine"
	"bgcnk/internal/sim"
)

func TestAllocateFirstFitAndRelease(t *testing.T) {
	s := New(Config{Topology: Topology{Racks: 2, MidplanesPerRack: 2, NodesPerMidplane: 4}})
	if got := s.Topology().Midplanes(); got != 4 {
		t.Fatalf("midplanes = %d, want 4", got)
	}
	a, err := s.Allocate(2)
	if err != nil {
		t.Fatal(err)
	}
	if a.Base != 0 || a.Nodes != 8 || a.Block != "R00-M0+2" {
		t.Errorf("first partition: base %d nodes %d block %q", a.Base, a.Nodes, a.Block)
	}
	b, err := s.Allocate(1)
	if err != nil {
		t.Fatal(err)
	}
	if b.Base != 2 || b.Block != "R01-M0" {
		t.Errorf("second partition: base %d block %q", b.Base, b.Block)
	}
	if _, err := s.Allocate(2); err == nil {
		t.Error("expected contiguity failure: only midplane 3 is free")
	}
	s.Release(a)
	c, err := s.Allocate(2)
	if err != nil {
		t.Fatal(err)
	}
	if c.Base != 0 {
		t.Errorf("reallocation after release: base %d, want 0", c.Base)
	}
	if _, err := s.Allocate(99); err == nil {
		t.Error("expected oversized-partition error")
	}
	if got := s.FreeMidplanes(); got != 1 {
		t.Errorf("free midplanes = %d, want 1", got)
	}
}

// TestBootScalingShape pins the paper's qualitative boot result at the
// model level: doubling the node count barely moves a CNK broadcast boot
// but roughly doubles an FWK staggered boot.
func TestBootScalingShape(t *testing.T) {
	for n := 64; n <= 1024; n *= 2 {
		small := SimulateBoot(BootConfig{Kind: machine.KindCNK, Nodes: n, NodesPerMidplane: 32})
		big := SimulateBoot(BootConfig{Kind: machine.KindCNK, Nodes: 2 * n, NodesPerMidplane: 32})
		if ratio := float64(big.Total) / float64(small.Total); ratio > 1.2 {
			t.Errorf("CNK boot %d->%d nodes grew %.2fx; broadcast should be near-flat", n, 2*n, ratio)
		}
		small = SimulateBoot(BootConfig{Kind: machine.KindFWK, Nodes: n, NodesPerMidplane: 32})
		big = SimulateBoot(BootConfig{Kind: machine.KindFWK, Nodes: 2 * n, NodesPerMidplane: 32})
		if ratio := float64(big.Total) / float64(small.Total); ratio < 1.7 {
			t.Errorf("FWK boot %d->%d nodes grew only %.2fx; staggered load should be ~linear", n, 2*n, ratio)
		}
	}
	// Phases must add up, and the stripped image must beat the full one.
	r := SimulateBoot(BootConfig{Kind: machine.KindFWK, Nodes: 128, NodesPerMidplane: 32})
	if r.Total != r.ImagePhase+r.PerNodePhase+r.InitPhase {
		t.Error("FWK boot phases do not sum to total")
	}
	stripped := SimulateBoot(BootConfig{Kind: machine.KindFWK, Nodes: 128, NodesPerMidplane: 32, Stripped: true})
	if stripped.Total >= r.Total {
		t.Error("stripped FWK boot is not faster than full")
	}
}

func TestScheduleFIFOBackfill(t *testing.T) {
	topo := Topology{Racks: 2, MidplanesPerRack: 2, NodesPerMidplane: 4} // 4 midplanes
	jobs := []Job{
		{ID: 0, Midplanes: 2},
		{ID: 1, Midplanes: 4},
		{ID: 2, Midplanes: 2},
		{ID: 3, Midplanes: 1},
	}
	durs := []sim.Cycles{100, 100, 150, 40}
	// No failed attempts: ScheduleResilient is plain FIFO + EASY backfill.
	sched := ScheduleResilient(topo, jobs, durationResults(jobs, durs), CkptConfig{}.normalized())

	p := sched.Placements
	if p[0].Start != 0 {
		t.Errorf("job 0 start %d, want 0", p[0].Start)
	}
	// Job 1 (the blocked head, needs the whole machine) must start the
	// moment job 0 frees its block — backfill may not delay it.
	if p[1].Start != 100 {
		t.Errorf("job 1 start %d, want 100 (EASY reservation violated)", p[1].Start)
	}
	// Job 2 fits at t=0 but its 150 cycles would run past the head's
	// t=100 reservation; it must NOT backfill. Job 3 drains before the
	// reservation and must.
	if p[2].Backfilled || p[2].Start != 200 {
		t.Errorf("job 2: backfilled=%v start=%d, want queued start at 200", p[2].Backfilled, p[2].Start)
	}
	if !p[3].Backfilled || p[3].Start != 0 {
		t.Errorf("job 3: backfilled=%v start=%d, want backfill at 0", p[3].Backfilled, p[3].Start)
	}
	if sched.Backfilled != 1 {
		t.Errorf("backfilled = %d, want 1", sched.Backfilled)
	}
	if sched.Makespan != 350 {
		t.Errorf("makespan = %d, want 350", sched.Makespan)
	}
	if sched.Utilization <= 0 || sched.Utilization > 1 {
		t.Errorf("utilization = %f out of range", sched.Utilization)
	}
	if sched.Resubmits != 0 || sched.Drained != nil {
		t.Errorf("resubmits %d, drained %v; want none without failed attempts", sched.Resubmits, sched.Drained)
	}
}

func TestGenerateJobsDeterministic(t *testing.T) {
	a := GenerateJobs(7, 50, 4)
	b := GenerateJobs(7, 50, 4)
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("job %d differs across identical seeds: %+v vs %+v", i, a[i], b[i])
		}
		if a[i].Midplanes < 1 || a[i].Midplanes > 4 {
			t.Fatalf("job %d midplanes %d out of range", i, a[i].Midplanes)
		}
	}
	if c := GenerateJobs(8, 50, 4); c[0] == a[0] && c[1] == a[1] && c[2] == a[2] {
		t.Error("different seeds produced an identical job prefix")
	}
}

// TestDrainSmoke drains a small CNK queue serially and checks the basics:
// every job succeeds, the schedule covers every job, and a repeat drain
// is signature-identical.
func TestDrainSmoke(t *testing.T) {
	cfg := Config{
		Topology: Topology{Racks: 2, MidplanesPerRack: 2, NodesPerMidplane: 2},
		Kind:     machine.KindCNK,
		Seed:     3,
	}
	s := New(cfg)
	jobs := GenerateJobs(cfg.Seed, 8, cfg.Topology.Midplanes())
	d, err := s.Drain(jobs)
	if err != nil {
		t.Fatal(err)
	}
	if d.Failures != 0 {
		for _, r := range d.Results {
			if r.Failed() {
				t.Errorf("job %d failed: err=%q exits=%v", r.Job.ID, r.Err, r.ExitCodes)
			}
		}
	}
	for id, p := range d.Sched.Placements {
		if p.End <= p.Start {
			t.Errorf("job %d placement [%d,%d] is empty", id, p.Start, p.End)
		}
	}
	if d.JobsPerSecond() <= 0 {
		t.Error("jobs/sec not positive")
	}
	d2, err := New(cfg).Drain(jobs)
	if err != nil {
		t.Fatal(err)
	}
	if d.Signature() != d2.Signature() {
		t.Errorf("repeat drain signature %016x != %016x", d2.Signature(), d.Signature())
	}
}

// TestDrainTwiceWithoutJournal pins how long journal-free drain state
// lives: one Drain call. A node drained a second time must answer the
// second queue exactly as a fresh node would — the same job IDs must not
// hand back the first queue's results.
func TestDrainTwiceWithoutJournal(t *testing.T) {
	cfg := Config{Topology: Topology{Racks: 1, MidplanesPerRack: 2, NodesPerMidplane: 2}, Kind: machine.KindCNK, Seed: 7}
	first, second := GenerateJobs(1, 3, 2), GenerateJobs(2, 3, 2)
	s := New(cfg)
	d1, err := s.Drain(first)
	if err != nil {
		t.Fatal(err)
	}
	got, err := s.Drain(second)
	if err != nil {
		t.Fatal(err)
	}
	want, err := New(cfg).Drain(second)
	if err != nil {
		t.Fatal(err)
	}
	if want.Signature() == d1.Signature() {
		t.Fatal("both queues drain to one signature; the test cannot tell them apart")
	}
	if got.Signature() != want.Signature() {
		t.Errorf("second drain signature %016x, fresh node %016x (first drain %016x)",
			got.Signature(), want.Signature(), d1.Signature())
	}
}

func TestPartitionPersonalities(t *testing.T) {
	s := New(Config{Topology: DefaultTopology(), Kind: machine.KindFWK, Seed: 9})
	p, err := s.Allocate(2)
	if err != nil {
		t.Fatal(err)
	}
	pers := p.Personalities()
	if len(pers) != p.Nodes {
		t.Fatalf("%d personalities for %d nodes", len(pers), p.Nodes)
	}
	seen := map[int32]bool{}
	for _, per := range pers {
		if seen[per.Rank] {
			t.Fatalf("duplicate rank %d", per.Rank)
		}
		seen[per.Rank] = true
		got, err := UnmarshalPersonality(per.Marshal())
		if err != nil {
			t.Fatal(err)
		}
		if *got != per {
			t.Fatalf("round trip changed: %+v vs %+v", *got, per)
		}
	}
}
