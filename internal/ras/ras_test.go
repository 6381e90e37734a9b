package ras

import (
	"fmt"
	"hash/fnv"
	"strings"
	"testing"

	"bgcnk/internal/sim"
)

// drawAll exercises every site on two nodes and returns the log hash.
func drawAll(seed uint64) uint64 {
	eng := sim.NewEngine()
	l := NewLog(nil)
	in := NewInjector(eng, l, Plan{
		Seed: seed, DDRCorrectable: 0.2, DDRUncorrectable: 0.05,
		TLBParity: 0.1, LinkCRC: 0.3, CIODDrop: 0.4, CIODCrashEvery: 3,
	})
	for _, n := range []int{0, 1, -1} {
		f := in.Node(n)
		for i := 0; i < 50; i++ {
			f.DDRAccess()
			f.TLBParity()
			f.LinkRetransmits("torus")
			f.ReplyDrop()
			f.CrashDue()
		}
	}
	return l.Hash()
}

func TestScheduleDeterministic(t *testing.T) {
	if drawAll(7) != drawAll(7) {
		t.Fatal("same seed must give identical fault schedules")
	}
	if drawAll(7) == drawAll(8) {
		t.Fatal("different seeds should diverge")
	}
}

func TestStreamsIndependentOfCreationOrder(t *testing.T) {
	eng := sim.NewEngine()
	plan := Plan{Seed: 3, LinkCRC: 0.5}
	a := NewInjector(eng, NewLog(nil), plan)
	b := NewInjector(eng, NewLog(nil), plan)
	a.Node(0)
	a.Node(5)
	b.Node(5) // reversed creation order
	b.Node(0)
	for i := 0; i < 20; i++ {
		if a.Node(5).LinkRetransmits("x") != b.Node(5).LinkRetransmits("x") {
			t.Fatal("stream depends on Node() creation order")
		}
	}
}

func TestResetRewindsSchedule(t *testing.T) {
	eng := sim.NewEngine()
	in := NewInjector(eng, NewLog(nil), Plan{Seed: 11, DDRUncorrectable: 0.3, CIODCrashEvery: 2})
	f := in.Node(0)
	var first []bool
	for i := 0; i < 30; i++ {
		u, _ := f.DDRAccess()
		first = append(first, u, f.CrashDue())
	}
	in.Reset()
	for i := 0; i < 30; i++ {
		u, _ := f.DDRAccess()
		if u != first[2*i] {
			t.Fatalf("draw %d not replayed after Reset", i)
		}
		if f.CrashDue() != first[2*i+1] {
			t.Fatalf("crash countdown %d not rewound after Reset", i)
		}
	}
}

func TestLogTableAndCounts(t *testing.T) {
	l := NewLog(nil)
	if got := l.Table(); got != "no RAS events\n" {
		t.Fatalf("empty table: %q", got)
	}
	l.Append(Event{Node: 0, Comp: "ddr", Class: CorrectableECC})
	l.Append(Event{Node: 0, Comp: "ddr", Class: CorrectableECC})
	l.Append(Event{Node: 1, Comp: "cnk", Class: JobKill, Detail: "x"})
	if l.Count(CorrectableECC) != 2 || l.Count(JobKill) != 1 || l.Total() != 3 {
		t.Fatalf("counts: %d %d %d", l.Count(CorrectableECC), l.Count(JobKill), l.Total())
	}
	tab := l.Table()
	if !strings.Contains(tab, "correctable_ecc") || !strings.Contains(tab, "job_kill") {
		t.Fatalf("table: %q", tab)
	}
	if strings.Contains(tab, "link_crc") {
		t.Fatal("zero classes must not render")
	}
}

func TestAttachTraceMirrorsEvents(t *testing.T) {
	tr := sim.NewTrace()
	before := tr.Hash()
	l := NewLog(tr)
	l.Append(Event{Node: 2, Comp: "torus", Class: LinkCRC})
	if tr.Hash() == before || tr.Count() != 1 {
		t.Fatal("RAS events must feed the reproducibility trace hash")
	}
	again := sim.NewTrace()
	NewLog(again).Append(Event{Node: 2, Comp: "torus", Class: LinkCRC, Detail: "x"})
	if again.Hash() == tr.Hash() {
		t.Fatal("the mirrored record must cover the event's detail")
	}
}

// fmtHash is the reference formulation of the log digest: FNV-1a over
// each event's "%d|%d|%s|%d|%s" text, folded in order.
func fmtHash(events []Event, base sim.Cycles) uint64 {
	hash := uint64(14695981039346656037)
	for _, e := range events {
		h := fnv.New64a()
		fmt.Fprintf(h, "%d|%d|%s|%d|%s", uint64(e.At-base), e.Node, e.Comp, e.Class, e.Detail)
		hash = hash*1099511628211 ^ h.Sum64()
	}
	return hash
}

// TestDigestMatchesFmt holds Hash and HashSince byte-identical to the fmt
// formulation over a seeded fault run: every site drawn on compute and
// I/O nodes (negative IDs) at spread-out cycles, plus reaction events.
func TestDigestMatchesFmt(t *testing.T) {
	eng := sim.NewEngine()
	defer eng.Shutdown()
	l := NewLog(eng.Trace())
	in := NewInjector(eng, l, Plan{
		Seed: 42, DDRCorrectable: 0.2, DDRUncorrectable: 0.05,
		TLBParity: 0.1, LinkCRC: 0.3, CIODDrop: 0.4, CIODCrashEvery: 3,
	})
	rng := sim.NewRNG(5)
	for i := 0; i < 200; i++ {
		f := in.Node([]int{0, 3, 17, -1, -2}[i%5])
		eng.At(rng.Cycles(1<<40), func() {
			f.DDRAccess()
			f.TLBParity()
			f.LinkRetransmits("torus")
			f.ReplyDrop()
			if f.CrashDue() {
				f.Report(JobKill, "cnk", "job terminated after daemon loss")
			}
		})
	}
	eng.RunUntilIdle()
	events := l.Events()
	if len(events) < 100 {
		t.Fatalf("fault run logged only %d events", len(events))
	}
	if n := testing.AllocsPerRun(100, func() { digest(&events[0], 0) }); n != 0 {
		t.Fatalf("digest allocates %v times", n)
	}
	if got, want := l.Hash(), fmtHash(events, 0); got != want {
		t.Fatalf("Hash %016x, fmt formulation %016x", got, want)
	}
	for _, m := range []int{0, 1, len(events) / 3, len(events) - 1, len(events)} {
		var base sim.Cycles
		if m < len(events) {
			base = events[m].At
		}
		if got, want := l.HashSince(Mark(m), base), fmtHash(events[m:], base); got != want {
			t.Fatalf("HashSince(%d, %d) %016x, fmt formulation %016x", m, base, got, want)
		}
	}
}

func TestPlanEnabled(t *testing.T) {
	var nilPlan *Plan
	if nilPlan.Enabled() || (&Plan{Seed: 9}).Enabled() {
		t.Fatal("empty plans must be disabled")
	}
	if !(&Plan{CIODCrashEvery: 1}).Enabled() || !(&Plan{LinkCRC: 0.1}).Enabled() {
		t.Fatal("non-empty plans must be enabled")
	}
	if !DefaultPlan(1).Enabled() {
		t.Fatal("DefaultPlan must inject")
	}
}
