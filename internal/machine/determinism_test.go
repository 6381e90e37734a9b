package machine

import (
	"fmt"
	"slices"
	"testing"

	"bgcnk/internal/apps"
	"bgcnk/internal/hw"
	"bgcnk/internal/kernel"
	"bgcnk/internal/sim"
	"bgcnk/internal/upc"
)

// The determinism property battery: every kernel × workload pair must
// produce bit-identical trace hashes AND bit-identical UPC counter
// snapshots across runs with the same seed, and enabling tracepoints
// must not move a single simulated cycle. This is the paper's
// "cycle reproducible execution" claim stated as a property over the
// whole machine model, and it is what makes the UPC layer trustworthy:
// observing the machine never perturbs it.

type detOutcome struct {
	hash     uint64
	counters upc.Snapshot
	cycles   sim.Cycles
	points   []uint64 // tracepoints emitted per chip
}

// detRun boots one machine, runs the named workload, and returns the
// trace hash, merged counter snapshot, final simulated time and per-chip
// tracepoint counts.
func detRun(t *testing.T, kind KernelKind, workload string, traced bool) detOutcome {
	t.Helper()
	nodes := 1
	if workload == "allreduce" {
		nodes = 4
	}
	m, err := New(Config{Nodes: nodes, Kind: kind, Seed: 11})
	if err != nil {
		t.Fatal(err)
	}
	defer m.Shutdown()
	if traced {
		m.EnableTracepoints(upc.CatAll)
	}
	var body func(ctx kernel.Context, env *Env)
	switch workload {
	case "fwq":
		cfg := apps.DefaultFWQ()
		cfg.Samples = 400
		body = func(ctx kernel.Context, env *Env) {
			apps.FWQ(ctx, m.HeapBase(ctx)+hw.VAddr(1<<20), cfg)
		}
	case "allreduce":
		body = func(ctx kernel.Context, env *Env) {
			if _, errno := apps.AllreduceBench(ctx, env.MPI, 40); errno != kernel.OK {
				t.Errorf("allreduce: %v", errno)
			}
		}
	case "ioffload":
		body = func(ctx kernel.Context, env *Env) {
			base := m.HeapBase(ctx)
			ctx.Store(base, append([]byte("/gpfs/det"), 0))
			fd, errno := ctx.Syscall(kernel.SysOpen, uint64(base), kernel.OCreat|kernel.OWronly, 0644)
			if errno != kernel.OK {
				t.Errorf("open: %v", errno)
				return
			}
			ctx.Store(base+4096, make([]byte, 512))
			for i := 0; i < 8; i++ {
				ctx.Syscall(kernel.SysWrite, fd, uint64(base+4096), 512)
			}
			ctx.Syscall(kernel.SysClose, fd)
		}
	default:
		t.Fatalf("unknown workload %q", workload)
	}
	if err := m.Run(body, kernel.JobParams{}, sim.FromSeconds(600)); err != nil {
		t.Fatal(err)
	}
	out := detOutcome{
		hash:     m.Eng.Trace().Hash(),
		counters: m.MergedCounters(),
		cycles:   m.Eng.Now(),
	}
	for _, ch := range m.Chips {
		out.points = append(out.points, ch.UPC.Trace.Count())
	}
	return out
}

func TestDeterminismBattery(t *testing.T) {
	for _, kind := range []KernelKind{KindCNK, KindFWK} {
		for _, workload := range []string{"fwq", "allreduce", "ioffload"} {
			kind, workload := kind, workload
			t.Run(fmt.Sprintf("%v/%s", kind, workload), func(t *testing.T) {
				a := detRun(t, kind, workload, false)
				b := detRun(t, kind, workload, false)
				if a.hash != b.hash {
					t.Errorf("trace hash differs across identical runs: %x vs %x", a.hash, b.hash)
				}
				if a.counters != b.counters {
					t.Errorf("counter snapshots differ across identical runs:\n%s\nvs\n%s",
						a.counters.Text(), b.counters.Text())
				}
				if a.cycles != b.cycles {
					t.Errorf("simulated time differs: %d vs %d", a.cycles, b.cycles)
				}
				// Two more runs with every tracepoint category enabled: the
				// points feed the trace hash (so it differs from the untraced
				// run by design) but must not move simulated time or any
				// counter, and traced reruns must agree on hash and points.
				c := detRun(t, kind, workload, true)
				d := detRun(t, kind, workload, true)
				if c.cycles != a.cycles {
					t.Errorf("tracepoints perturbed simulated time: %d vs %d", c.cycles, a.cycles)
				}
				if c.counters != a.counters {
					t.Errorf("tracepoints perturbed the counters:\n%s\nvs\n%s",
						c.counters.Text(), a.counters.Text())
				}
				if c.hash != d.hash {
					t.Errorf("traced trace hash differs across identical runs: %x vs %x", c.hash, d.hash)
				}
				if c.hash == a.hash {
					t.Error("tracepoints did not reach the trace hash")
				}
				if !slices.Equal(c.points, d.points) {
					t.Errorf("per-chip tracepoint counts differ across identical runs: %v vs %v", c.points, d.points)
				}
				for i, n := range c.points {
					if n == 0 {
						t.Errorf("chip %d emitted no tracepoints", i)
					}
				}
			})
		}
	}
}

// TestCNKQuietFWKNoisy is the counter-level statement of Figs 5-7: over
// the same FWQ run, CNK records zero timer ticks and zero preemptions
// (tickless, non-preemptive) while the FWK records plenty of both.
func TestCNKQuietFWKNoisy(t *testing.T) {
	cnk := detRun(t, KindCNK, "fwq", false).counters
	fwk := detRun(t, KindFWK, "fwq", false).counters
	if n := cnk.Total(upc.TimerTick); n != 0 {
		t.Errorf("CNK recorded %d timer ticks; the kernel is tickless", n)
	}
	if n := cnk.Total(upc.Preemption); n != 0 {
		t.Errorf("CNK recorded %d preemptions; the scheduler is non-preemptive", n)
	}
	if n := fwk.Total(upc.TimerTick); n == 0 {
		t.Error("FWK recorded no timer ticks; the 850k-cycle tick should fire")
	}
	if n := fwk.Total(upc.Preemption); n == 0 {
		t.Error("FWK recorded no preemptions; daemon dispatch should preempt the app")
	}
}
