package fwk

import (
	"testing"

	"bgcnk/internal/fs"
	"bgcnk/internal/hw"
	"bgcnk/internal/kernel"
	"bgcnk/internal/sim"
)

func fnode(t *testing.T, cfg Config) (*sim.Engine, *Kernel) {
	t.Helper()
	eng := sim.NewEngine()
	chip := hw.NewChip(hw.ChipConfig{ID: 0})
	k := New(eng, chip, cfg)
	if err := k.Boot(); err != nil {
		t.Fatal(err)
	}
	return eng, k
}

func frun(t *testing.T, eng *sim.Engine, k *Kernel, spec JobSpec) *Job {
	t.Helper()
	job, err := k.Launch(spec)
	if err != nil {
		t.Fatal(err)
	}
	eng.Run(eng.Now() + sim.FromSeconds(30)) // daemons run forever; bounded drive
	eng.Shutdown()
	if !job.Done() {
		t.Fatal("job did not finish")
	}
	return job
}

func TestBootSlowerThanCNK(t *testing.T) {
	eng, k := fnode(t, Config{})
	defer eng.Shutdown()
	if k.BootInstr < 10_000_000 {
		t.Fatalf("full FWK boot = %d instructions; should dwarf CNK's", k.BootInstr)
	}
	eng2 := sim.NewEngine()
	defer eng2.Shutdown()
	k2 := New(eng2, hw.NewChip(hw.ChipConfig{}), Config{Stripped: true})
	k2.Boot()
	if k2.BootInstr >= k.BootInstr {
		t.Fatal("stripped boot should be faster than full")
	}
}

func TestBootNeedsWorkingUnits(t *testing.T) {
	eng := sim.NewEngine()
	chip := hw.NewChip(hw.ChipConfig{})
	chip.SetUnitEnabled(hw.UnitTorus, false)
	if err := New(eng, chip, Config{}).Boot(); err == nil {
		t.Fatal("FWK has no broken-hardware workaround flags; boot must fail")
	}
}

func TestJobRunsToCompletion(t *testing.T) {
	eng, k := fnode(t, Config{})
	ran := false
	frun(t, eng, k, JobSpec{Main: func(ctx kernel.Context, rank int) {
		ctx.Compute(100_000)
		ran = true
	}})
	if !ran {
		t.Fatal("main did not run")
	}
}

func TestComputeIsNoisy(t *testing.T) {
	// The defining FWK property: fixed work takes variable wall time.
	eng, k := fnode(t, Config{Seed: 42})
	var durations []sim.Cycles
	frun(t, eng, k, JobSpec{Main: func(ctx kernel.Context, rank int) {
		for i := 0; i < 300; i++ {
			start := ctx.Now()
			ctx.Compute(658_958)
			durations = append(durations, ctx.Now()-start)
		}
	}})
	min, max := durations[0], durations[0]
	for _, d := range durations {
		if d < min {
			min = d
		}
		if d > max {
			max = d
		}
	}
	if min < 658_958 {
		t.Fatalf("compute undercounted: %d", min)
	}
	if max == min {
		t.Fatal("FWK compute showed zero jitter; ticks/daemons not firing")
	}
	if max-min < 2000 {
		t.Fatalf("jitter %d cycles is implausibly small", max-min)
	}
}

func TestDemandPagingCountsFaults(t *testing.T) {
	eng, k := fnode(t, Config{})
	var pid uint32
	frun(t, eng, k, JobSpec{Main: func(ctx kernel.Context, rank int) {
		pid = ctx.PID()
		p := k.Proc(pid)
		for off := uint64(0); off < 1<<20; off += pageSize {
			ctx.Touch(p.HeapBase+hw.VAddr(off), 8, true)
		}
	}})
	p := k.Proc(pid)
	if p.MinorFaults < 256 {
		t.Fatalf("minor faults = %d, want ~256 (one per 4KB page)", p.MinorFaults)
	}
	misses := uint64(0)
	for _, c := range k.Chip.Cores {
		misses += c.TLB.Misses
	}
	if misses == 0 {
		t.Fatal("no TLB misses under 4KB paging — impossible")
	}
}

func TestMemoryProtectionEnforced(t *testing.T) {
	eng, k := fnode(t, Config{})
	var faulted bool
	frun(t, eng, k, JobSpec{Main: func(ctx kernel.Context, rank int) {
		ctx.RegisterSignal(kernel.SIGSEGV, func(c kernel.Context, info kernel.SigInfo) {
			faulted = true
		})
		va, errno := ctx.Syscall(kernel.SysMmap, 0, 4096, kernel.ProtRead, kernel.MapAnonymous, ^uint64(0), 0)
		if errno != kernel.OK {
			t.Errorf("mmap: %v", errno)
			return
		}
		// Read is fine; write must fault (full memory protection —
		// Table II, available on Linux, not on CNK).
		if errno := ctx.Touch(hw.VAddr(va), 8, false); errno != kernel.OK {
			t.Errorf("read of PROT_READ: %v", errno)
		}
		ctx.Store(hw.VAddr(va), []byte{1})
	}})
	if !faulted {
		t.Fatal("write to read-only mapping did not fault")
	}
}

func TestMprotectChangesEnforcement(t *testing.T) {
	eng, k := fnode(t, Config{})
	frun(t, eng, k, JobSpec{Main: func(ctx kernel.Context, rank int) {
		va, _ := ctx.Syscall(kernel.SysMmap, 0, 4096, kernel.ProtRead|kernel.ProtWrite, kernel.MapAnonymous, ^uint64(0), 0)
		if errno := ctx.Store(hw.VAddr(va), []byte{1}); errno != kernel.OK {
			t.Errorf("initial write: %v", errno)
		}
		if _, errno := ctx.Syscall(kernel.SysMprotect, va, 4096, kernel.ProtRead); errno != kernel.OK {
			t.Errorf("mprotect: %v", errno)
		}
		ctx.RegisterSignal(kernel.SIGSEGV, func(kernel.Context, kernel.SigInfo) {})
		if errno := ctx.Store(hw.VAddr(va), []byte{2}); errno == kernel.OK {
			t.Error("write after mprotect(PROT_READ) must fail")
		}
	}})
}

func TestVtoPScattered(t *testing.T) {
	eng, k := fnode(t, Config{})
	var ranges int
	frun(t, eng, k, JobSpec{Main: func(ctx kernel.Context, rank int) {
		p := k.Proc(ctx.PID())
		// Fault pages in an interleaved order so physical frames are
		// scattered (as they generally are on a busy FWK).
		for _, off := range []uint64{0, 8192, 4096, 24576, 16384, 12288, 20480, 28672} {
			ctx.Touch(p.HeapBase+hw.VAddr(off), 8, true)
		}
		prs, errno := ctx.VtoP(p.HeapBase, 32768)
		if errno != kernel.OK {
			t.Errorf("VtoP: %v", errno)
			return
		}
		ranges = len(prs)
	}})
	if ranges < 3 {
		t.Fatalf("VtoP returned %d ranges; interleaved faulting must scatter frames", ranges)
	}
}

func TestOvercommitThreadsAllProgress(t *testing.T) {
	eng, k := fnode(t, Config{Seed: 1})
	const nThreads = 8 // 2x the cores
	done := 0
	frun(t, eng, k, JobSpec{Main: func(ctx kernel.Context, rank int) {
		for i := 0; i < nThreads; i++ {
			_, errno := ctx.Clone(kernel.CloneArgs{
				Flags: kernel.NPTLCloneFlags,
				Fn: func(c kernel.Context) {
					c.Compute(3_000_000) // several ticks worth
					done++
				},
			})
			if errno != kernel.OK {
				t.Errorf("clone %d: %v (FWK allows overcommit)", i, errno)
			}
		}
		ctx.Compute(2_000_000)
	}})
	if done != nThreads {
		t.Fatalf("only %d/%d overcommitted threads finished", done, nThreads)
	}
}

func TestFutexAcrossThreads(t *testing.T) {
	eng, k := fnode(t, Config{})
	woke := false
	frun(t, eng, k, JobSpec{Main: func(ctx kernel.Context, rank int) {
		p := k.Proc(ctx.PID())
		futexVA := p.HeapBase + 4096
		ctx.StoreU32(futexVA, 0)
		ctx.Clone(kernel.CloneArgs{Flags: kernel.NPTLCloneFlags, Fn: func(c kernel.Context) {
			if _, errno := c.Syscall(kernel.SysFutex, uint64(futexVA), kernel.FutexWait, 0, 0); errno != kernel.OK {
				t.Errorf("wait: %v", errno)
			}
			woke = true
		}})
		ctx.Compute(100_000)
		ctx.StoreU32(futexVA, 1)
		ctx.Syscall(kernel.SysFutex, uint64(futexVA), kernel.FutexWake, 1)
		ctx.Compute(100_000)
	}})
	if !woke {
		t.Fatal("futex waiter never woke")
	}
}

func TestLocalFileIO(t *testing.T) {
	eng, k := fnode(t, Config{})
	frun(t, eng, k, JobSpec{Main: func(ctx kernel.Context, rank int) {
		p := k.Proc(ctx.PID())
		pathVA := p.HeapBase + 4096
		ctx.Store(pathVA, append([]byte("/local.txt"), 0))
		fd, errno := ctx.Syscall(kernel.SysOpen, uint64(pathVA), kernel.OCreat|kernel.ORdwr, 0644)
		if errno != kernel.OK {
			t.Errorf("open: %v", errno)
			return
		}
		buf := p.HeapBase + 8192
		ctx.Store(buf, []byte("local write"))
		if n, errno := ctx.Syscall(kernel.SysWrite, fd, uint64(buf), 11); errno != kernel.OK || n != 11 {
			t.Errorf("write: %v %d", errno, n)
		}
		ctx.Syscall(kernel.SysLseek, fd, 0, uint64(kernel.SeekSet))
		rb := p.HeapBase + 12288
		if n, errno := ctx.Syscall(kernel.SysRead, fd, uint64(rb), 11); errno != kernel.OK || n != 11 {
			t.Errorf("read: %v %d", errno, n)
		}
		got := make([]byte, 11)
		ctx.Load(rb, got)
		if string(got) != "local write" {
			t.Errorf("read back %q", got)
		}
		ctx.Syscall(kernel.SysClose, fd)
	}})
	data, errno := k.FS.ReadFile("/local.txt", fs.Root)
	if errno != kernel.OK || string(data) != "local write" {
		t.Fatalf("fs: %v %q", errno, data)
	}
}

func TestForkCreatesProcessWithCopiedMemory(t *testing.T) {
	eng, k := fnode(t, Config{})
	var childSaw string
	var childPID uint32
	frun(t, eng, k, JobSpec{Main: func(ctx kernel.Context, rank int) {
		p := k.Proc(ctx.PID())
		va := p.HeapBase + 4096
		ctx.Store(va, []byte("inherited"))
		pid, errno := k.Fork(ctx.(*kernel.Thread), func(c kernel.Context) {
			buf := make([]byte, 9)
			c.Load(va, buf) // same VA, copied contents
			childSaw = string(buf)
			// Child writes; parent must not see it (copy, not share).
			c.Store(va, []byte("childmods"))
		})
		if errno != kernel.OK {
			t.Errorf("fork: %v", errno)
			return
		}
		childPID = pid
		ctx.Compute(5_000_000)
		buf := make([]byte, 9)
		ctx.Load(va, buf)
		if string(buf) != "inherited" {
			t.Errorf("parent memory polluted by child: %q", buf)
		}
	}})
	if childSaw != "inherited" {
		t.Fatalf("child saw %q", childSaw)
	}
	if cp := k.Proc(childPID); cp == nil || !cp.Done() {
		t.Fatal("child process did not complete")
	}
}

func TestParityKillsTaskOnFWK(t *testing.T) {
	eng, k := fnode(t, Config{})
	job, err := k.Launch(JobSpec{Main: func(ctx kernel.Context, rank int) {
		ctx.RegisterSignal(kernel.SIGBUS, func(kernel.Context, kernel.SigInfo) {
			t.Error("FWK must not offer application parity recovery")
		})
		k.Chip.Cache.ArmL1Parity(ctx.CoreID())
		p := k.Proc(ctx.PID())
		ctx.Touch(p.HeapBase, 64, false)
		ctx.Compute(1000)
	}})
	if err != nil {
		t.Fatal(err)
	}
	eng.Run(eng.Now() + sim.FromSeconds(5))
	eng.Shutdown()
	if !job.Done() {
		t.Fatal("job hung")
	}
	if job.Procs[0].ExitCode() != 128+int(kernel.SIGKILL) {
		t.Fatalf("exit code %d; machine check should kill the task", job.Procs[0].ExitCode())
	}
}

func TestSeedChangesTiming(t *testing.T) {
	// Different boot seeds → different daemon phases → different wall
	// time for identical work: the FWK is not performance-reproducible.
	elapsed := func(seed uint64) sim.Cycles {
		eng := sim.NewEngine()
		k := New(eng, hw.NewChip(hw.ChipConfig{ID: 0}), Config{Seed: seed})
		k.Boot()
		var d sim.Cycles
		job, _ := k.Launch(JobSpec{Main: func(ctx kernel.Context, rank int) {
			start := ctx.Now()
			ctx.Compute(50_000_000)
			d = ctx.Now() - start
		}})
		eng.Run(eng.Now() + sim.FromSeconds(30))
		eng.Shutdown()
		if !job.Done() {
			t.Fatal("stuck")
		}
		return d
	}
	if elapsed(1) == elapsed(2) {
		t.Fatal("different seeds produced identical timing")
	}
	if elapsed(7) != elapsed(7) {
		t.Fatal("same seed must reproduce timing exactly")
	}
}

func TestTickCounterAdvances(t *testing.T) {
	eng, k := fnode(t, Config{})
	frun(t, eng, k, JobSpec{Main: func(ctx kernel.Context, rank int) {
		ctx.Compute(10 * 850_000) // ~10ms
	}})
	if k.cpus[0].Ticks < 8 {
		t.Fatalf("ticks = %d, want ~10 over 10ms", k.cpus[0].Ticks)
	}
}

func TestExecReplacesImage(t *testing.T) {
	eng, k := fnode(t, Config{})
	var oldData, newData string
	frun(t, eng, k, JobSpec{Main: func(ctx kernel.Context, rank int) {
		p := k.Proc(ctx.PID())
		ctx.Store(p.HeapBase, []byte("old image"))
		buf := make([]byte, 9)
		ctx.Load(p.HeapBase, buf)
		oldData = string(buf)
		k.Exec(ctx.(*kernel.Thread), 1<<20, 1<<20, func(c kernel.Context) {
			// The new program sees a fresh (zeroed) image.
			np := k.Proc(c.PID())
			nb := make([]byte, 9)
			c.Load(np.HeapBase, nb)
			newData = string(nb)
		})
		t.Error("exec returned to the old program")
	}})
	if oldData != "old image" {
		t.Fatalf("setup: %q", oldData)
	}
	if newData == "old image" {
		t.Fatal("exec leaked the old image into the new program")
	}
}

func TestShellScriptPattern(t *testing.T) {
	// The paper's VII-B con, inverted: on an FWK an application CAN be
	// structured as a shell that forks children which exec different
	// executables. (CNK returns ENOSYS for fork/exec; see the cnk tests.)
	eng, k := fnode(t, Config{})
	var outputs []string
	frun(t, eng, k, JobSpec{Main: func(ctx kernel.Context, rank int) {
		for _, prog := range []string{"preprocess", "solve"} {
			prog := prog
			_, errno := k.Fork(ctx.(*kernel.Thread), func(c kernel.Context) {
				k.Exec(c.(*kernel.Thread), 1<<20, 1<<20, func(c2 kernel.Context) {
					c2.Compute(100_000)
					outputs = append(outputs, prog)
				})
			})
			if errno != kernel.OK {
				t.Errorf("fork %s: %v", prog, errno)
			}
		}
		ctx.Compute(3_000_000) // "wait" for the children
	}})
	if len(outputs) != 2 {
		t.Fatalf("executables that ran: %v", outputs)
	}
}
