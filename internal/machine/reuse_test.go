package machine

// Machine reuse across sequential jobs: the control system tears a
// partition down and reboots it between queued jobs, and the whole
// throughput story rests on the rebooted machine being indistinguishable
// from a freshly built one. These tests pin that contract byte-for-byte:
// job 2 on a rebooted machine must produce the same UPC counters, exit
// codes and (boot-relative) RAS event stream as job 1 on a fresh machine.

import (
	"fmt"
	"testing"

	"bgcnk/internal/hw"
	"bgcnk/internal/kernel"
	"bgcnk/internal/ras"
	"bgcnk/internal/sim"
	"bgcnk/internal/upc"
)

// reuseFacts is everything observable about one job that must survive the
// fresh-vs-rebooted comparison.
type reuseFacts struct {
	relEnd   sim.Cycles // job end relative to the kernel boot instant
	codes    []int
	counters upc.Snapshot
	rasCount uint64
	rasHash  uint64 // boot-relative, so a time-shifted replay hashes equal
}

func bootInstant(m *Machine) sim.Cycles {
	if len(m.CNKs) > 0 {
		return m.CNKs[0].BootedAt
	}
	return m.FWKs[0].BootedAt
}

// reuseWorkload mixes everything a real job touches: compute, memory
// traffic, an MPI exchange, and function-shipped file I/O.
func reuseWorkload(m *Machine) App {
	return func(ctx kernel.Context, env *Env) {
		base := m.HeapBase(ctx)
		for i := 0; i < 4; i++ {
			ctx.Compute(60_000)
			ctx.Touch(base+hw.VAddr(i*8192), 2048, true)
		}
		switch env.Rank {
		case 0:
			env.Dev.Send(ctx, 1, 9, []byte("reuse"))
		case 1:
			env.Dev.Recv(ctx, 9)
		}
		ctx.Store(base, append([]byte("/gpfs/reuse"), 0))
		fd, errno := ctx.Syscall(kernel.SysOpen, uint64(base), kernel.OCreat|kernel.OWronly, 0644)
		if errno == kernel.OK {
			ctx.Store(base+4096, make([]byte, 256))
			for i := 0; i < 6; i++ {
				ctx.Syscall(kernel.SysWrite, fd, uint64(base+4096), 256)
			}
			ctx.Syscall(kernel.SysClose, fd)
		}
		ctx.Compute(40_000)
	}
}

func runReuseJob(t *testing.T, m *Machine) reuseFacts {
	t.Helper()
	var mark ras.Mark
	if m.RAS != nil {
		mark = m.RAS.Mark()
	}
	base := bootInstant(m)
	if err := m.Run(reuseWorkload(m), kernel.JobParams{}, 0); err != nil {
		t.Fatal(err)
	}
	f := reuseFacts{
		relEnd:   m.Eng.Now() - base,
		codes:    m.ExitCodes(),
		counters: m.MergedCounters(),
	}
	if m.RAS != nil {
		f.rasCount = m.RAS.CountSince(mark)
		f.rasHash = m.RAS.HashSince(mark, base)
	}
	return f
}

func assertFactsEqual(t *testing.T, label string, got, want reuseFacts) {
	t.Helper()
	if got.relEnd != want.relEnd {
		t.Errorf("%s: boot-relative end %d != %d", label, got.relEnd, want.relEnd)
	}
	if len(got.codes) != len(want.codes) {
		t.Fatalf("%s: %d exit codes != %d", label, len(got.codes), len(want.codes))
	}
	for i := range got.codes {
		if got.codes[i] != want.codes[i] {
			t.Errorf("%s: exit code[%d] %d != %d", label, i, got.codes[i], want.codes[i])
		}
	}
	if got.counters != want.counters {
		t.Errorf("%s: merged UPC counters differ:\n%s\nvs\n%s",
			label, got.counters.Text(), want.counters.Text())
	}
	if got.rasCount != want.rasCount || got.rasHash != want.rasHash {
		t.Errorf("%s: RAS stream differs: %d events hash %016x vs %d events hash %016x",
			label, got.rasCount, got.rasHash, want.rasCount, want.rasHash)
	}
}

// TestRebootedMachineMatchesFresh is the reuse contract: build a machine,
// run a job, Reboot, run the job again, and compare against the same job
// on a machine built from scratch — under an armed fault injector, so the
// fault schedule's rewind is covered too. The machine also carries an
// armed checkpoint schedule into the reboot: a rebooted partition must
// forget it (a fresh machine never heard of the old job's schedule), and
// the armed state itself must not perturb the job.
func TestRebootedMachineMatchesFresh(t *testing.T) {
	for _, kind := range []KernelKind{KindCNK, KindFWK} {
		t.Run(kind.String(), func(t *testing.T) {
			cfg := Config{Nodes: 2, Kind: kind, Seed: 11, Faults: ras.DefaultPlan(5)}
			a, err := New(cfg)
			if err != nil {
				t.Fatal(err)
			}
			defer a.Shutdown()
			a.ArmCheckpoints(7, 2)
			first := runReuseJob(t, a)
			if err := a.Reboot(); err != nil {
				t.Fatal(err)
			}
			if a.CheckpointsArmed() || a.CheckpointInterval() != 0 || a.LastImage() != nil {
				t.Error("rebooted machine still remembers a checkpoint schedule")
			}
			second := runReuseJob(t, a)

			b, err := New(cfg)
			if err != nil {
				t.Fatal(err)
			}
			defer b.Shutdown()
			fresh := runReuseJob(t, b)

			// Sanity: the model is deterministic at all.
			assertFactsEqual(t, "fresh A vs fresh B", first, fresh)
			// The regression: a rebooted machine's second job is
			// byte-identical to a fresh machine's first.
			assertFactsEqual(t, "rebooted job 2 vs fresh job 1", second, fresh)
		})
	}
}

// TestRecoveredMachineMatchesFresh extends the reuse contract to the
// crash-recovery cycle: a machine that captured a checkpoint, sealed it,
// was cleared, and relaunched restoring from the image — the full
// recovered-job lifecycle — must, after Reboot, be byte-identical to a
// fresh machine. Scan() is the witness: it must show the recovery residue
// (restores, armed schedule) before the reboot and a clean machine after,
// without perturbing anything (scanning is read-only and idempotent).
func TestRecoveredMachineMatchesFresh(t *testing.T) {
	for _, kind := range []KernelKind{KindCNK, KindFWK} {
		t.Run(kind.String(), func(t *testing.T) {
			cfg := Config{Nodes: 2, Kind: kind, Seed: 11, Faults: ras.DefaultPlan(5)}
			a, err := New(cfg)
			if err != nil {
				t.Fatal(err)
			}
			defer a.Shutdown()

			// Phase 1: a job that checkpoints mid-run.
			a.ArmCheckpoints(7, 2)
			capture := func(ctx kernel.Context, env *Env) {
				ctx.Compute(20_000)
				a.CaptureNode(ctx, 1)
				ctx.Compute(20_000)
			}
			if err := a.Run(capture, kernel.JobParams{}, 0); err != nil {
				t.Fatal(err)
			}
			img := a.SealCheckpoint()
			if img == nil || len(img.Nodes) != cfg.Nodes {
				t.Fatalf("sealed image %+v, want %d nodes", img, cfg.Nodes)
			}

			// Phase 2: the recovery — clear job state, relaunch restoring
			// every node from the sealed image.
			a.ClearJobs()
			restore := func(ctx kernel.Context, env *Env) {
				if err := a.RestoreNode(ctx, img); err != nil {
					t.Error(err)
				}
				ctx.Compute(20_000)
			}
			if err := a.Run(restore, kernel.JobParams{}, 0); err != nil {
				t.Fatal(err)
			}
			if a.Restores() != cfg.Nodes {
				t.Fatalf("restores = %d, want %d; the recovery cycle is vacuous", a.Restores(), cfg.Nodes)
			}

			// The scan sees the residue, twice identically (idempotent).
			scan := a.Scan()
			if !scan.CheckpointsArmed || scan.CheckpointJobID != 7 || scan.Restores != cfg.Nodes {
				t.Errorf("post-recovery scan missed the residue: %+v", scan)
			}
			if scan.JobsLaunched != cfg.Nodes || !scan.JobsDone {
				t.Errorf("post-recovery scan job state: %+v", scan)
			}
			if again := a.Scan(); fmt.Sprint(again) != fmt.Sprint(scan) {
				t.Errorf("second scan differs: %+v vs %+v", again, scan)
			}

			// Phase 3: reboot. All recovery residue must be gone...
			if err := a.Reboot(); err != nil {
				t.Fatal(err)
			}
			scan = a.Scan()
			if scan.CheckpointsArmed || scan.Restores != 0 || scan.JobsLaunched != 0 {
				t.Errorf("rebooted scan still shows recovery residue: %+v", scan)
			}

			// ... and the next job must be byte-identical to a fresh
			// machine's first.
			second := runReuseJob(t, a)
			b, err := New(cfg)
			if err != nil {
				t.Fatal(err)
			}
			defer b.Shutdown()
			fresh := runReuseJob(t, b)
			assertFactsEqual(t, "recovered-then-rebooted vs fresh", second, fresh)
		})
	}
}

// TestClearJobsKeepsCheckpointSchedule pins the narrower ClearJobs
// contract for the checkpoint layer: per-job residue (pending captures,
// the sealed image, restore counts) is dropped, but the armed schedule
// survives — ClearJobs clears job state, not machine configuration.
// Reboot, by contrast, disarms everything.
func TestClearJobsKeepsCheckpointSchedule(t *testing.T) {
	m, err := New(Config{Nodes: 2, Kind: KindCNK})
	if err != nil {
		t.Fatal(err)
	}
	defer m.Shutdown()
	m.ArmCheckpoints(3, 2)
	app := func(ctx kernel.Context, env *Env) {
		ctx.Compute(10_000)
		m.CaptureNode(ctx, 1)
	}
	if err := m.Run(app, kernel.JobParams{}, 0); err != nil {
		t.Fatal(err)
	}
	if img := m.SealCheckpoint(); img == nil || len(img.Nodes) != 2 {
		t.Fatalf("sealed image %+v, want 2 nodes", img)
	}
	if m.LastImage() == nil {
		t.Fatal("no last image after seal")
	}

	m.ClearJobs()
	if !m.CheckpointsArmed() || m.CheckpointInterval() != 2 {
		t.Error("ClearJobs dropped the armed checkpoint schedule")
	}
	if m.LastImage() != nil || m.Restores() != 0 {
		t.Error("ClearJobs kept per-job checkpoint residue")
	}
	if img := m.SealCheckpoint(); img == nil || len(img.Nodes) != 0 {
		t.Errorf("pending captures survived ClearJobs: %+v", img)
	}

	if err := m.Reboot(); err != nil {
		t.Fatal(err)
	}
	if m.CheckpointsArmed() || m.CheckpointInterval() != 0 {
		t.Error("Reboot kept the checkpoint schedule armed")
	}
}

// TestClearJobsResetsNumbering pins the narrower ClearJobs contract used
// by the recovery path: after ClearJobs (no chip reset), a relaunch gets
// the same PIDs a fresh launch would, so CIOD proxy keys and RAS details
// do not drift across relaunches.
func TestClearJobsResetsNumbering(t *testing.T) {
	m, err := New(Config{Nodes: 1, Kind: KindCNK})
	if err != nil {
		t.Fatal(err)
	}
	defer m.Shutdown()
	var pid uint32
	app := func(ctx kernel.Context, env *Env) {
		pid = ctx.PID()
		ctx.Compute(10_000)
	}
	if err := m.Run(app, kernel.JobParams{}, 0); err != nil {
		t.Fatal(err)
	}
	firstPID := pid
	m.ClearJobs()
	if err := m.Run(app, kernel.JobParams{}, 0); err != nil {
		t.Fatal(err)
	}
	if pid != firstPID {
		t.Errorf("relaunch after ClearJobs got PID %d, fresh launch got %d", pid, firstPID)
	}
}

// TestDoubleShutdownRecyclesChipsOnce: Shutdown hands every chip back to
// the pool exactly once, so calling it twice can never give one chip's
// parts to two later machines.
func TestDoubleShutdownRecyclesChipsOnce(t *testing.T) {
	const nodes = 4
	for _, kind := range []KernelKind{KindCNK, KindFWK} {
		m, err := New(Config{Nodes: nodes, Kind: kind})
		if err != nil {
			t.Fatal(err)
		}
		m.Shutdown()
		m.Shutdown()
		if m.Chips != nil {
			t.Fatalf("%v: Shutdown left %d chips on the machine", kind, len(m.Chips))
		}
		owner := map[*hw.CacheSim]string{}
		for i := 0; i < 2; i++ {
			next, err := New(Config{Nodes: nodes, Kind: kind})
			if err != nil {
				t.Fatal(err)
			}
			defer next.Shutdown()
			for n, ch := range next.Chips {
				me := fmt.Sprintf("machine %d node %d", i, n)
				if prev, ok := owner[ch.Cache]; ok {
					t.Fatalf("%v: %s and %s share one chip's parts", kind, prev, me)
				}
				owner[ch.Cache] = me
			}
		}
	}
}
