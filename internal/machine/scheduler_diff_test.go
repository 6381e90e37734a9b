package machine

import (
	"fmt"
	"testing"

	"bgcnk/internal/apps"
	"bgcnk/internal/hw"
	"bgcnk/internal/kernel"
	"bgcnk/internal/ras"
	"bgcnk/internal/sim"
)

// The machine-level differential: full machine runs on the one event
// queue, with the engine's order check armed as the oracle. Step panics
// unless every popped (at, seq) is strictly greater than the last, and the
// queue may run dry only once every scheduled event was popped; a pop
// sequence that passes both is exactly the order of the reference
// (at, seq) heap (internal/sim's lockstep differential holds the wheel to
// that heap op by op). These runs carry that proof to the scale the
// experiments actually use: boot, seeded DDR/TLB/link/CIOD faults, the
// LINPACK proxy and shutdown, on both kernels.

// checkedRun runs fn and turns an engine order-check panic into a test
// failure, so one broken pop fails its own subtest instead of the binary.
func checkedRun(t *testing.T, m *Machine, fn func() error) error {
	t.Helper()
	var err error
	func() {
		defer func() {
			if r := recover(); r != nil {
				t.Fatalf("engine order check at cycle %d: %v", m.Eng.Now(), r)
			}
		}()
		err = fn()
	}()
	return err
}

// drainToIdle runs the engine until its queue is empty (so the dry-queue
// check sees every scheduled event popped) and fails unless it is.
func drainToIdle(t *testing.T, m *Machine) {
	t.Helper()
	checkedRun(t, m, func() error { m.Eng.RunUntilIdle(); return nil })
	if n := m.Eng.Pending(); n != 0 {
		t.Fatalf("%d events pending after the run drained", n)
	}
}

// faultReplay runs the faulty-LINPACK workload (modeled on the
// stability-under-fault experiment) and drains the queue to empty.
func faultReplay(t *testing.T, kind KernelKind, seed uint64) {
	t.Helper()
	plan := &ras.Plan{
		Seed:             seed,
		DDRCorrectable:   2e-4,
		DDRUncorrectable: 4e-5,
		TLBParity:        2e-6,
		LinkCRC:          2e-2,
		CIODDrop:         0.1,
	}
	m, err := New(Config{
		Nodes: 4, Kind: kind, Seed: seed,
		Reproducible: kind == KindCNK,
		Faults:       plan,
	})
	if err != nil {
		t.Fatalf("machine: %v", err)
	}
	defer m.Shutdown()
	checkedRun(t, m, func() error {
		return m.Run(func(ctx kernel.Context, env *Env) {
			base := m.HeapBase(ctx)
			buf := make([]byte, 128)
			for i := 0; i < 1500; i++ {
				ctx.Load(base+hw.VAddr((i*4096)%(4<<20)), buf)
			}
			apps.Linpack(ctx, env.MPI, base, apps.LinpackConfig{Panels: 12, PanelCycles: 400_000, ExchangeB: 8 << 10})
		}, kernel.JobParams{}, sim.FromSeconds(600))
	})
	drainToIdle(t, m)
}

// TestDifferentialMachineFaultReplay is the CI gate for the event
// queue's order on real machine runs: both kernels, multiple fault
// seeds, every pop checked.
func TestDifferentialMachineFaultReplay(t *testing.T) {
	for _, kind := range []KernelKind{KindCNK, KindFWK} {
		for _, seed := range []uint64{7, 40, 1009} {
			kind, seed := kind, seed
			t.Run(fmt.Sprintf("%v/seed%d", kind, seed), func(t *testing.T) {
				t.Parallel()
				faultReplay(t, kind, seed)
			})
		}
	}
}

// TestDifferentialMachineCleanRun covers the no-fault path: a plain
// reproducible CNK barrier/allreduce workload, every rank exiting 0 and
// the queue drained to empty under the order check.
func TestDifferentialMachineCleanRun(t *testing.T) {
	m, err := New(Config{Nodes: 4, Kind: KindCNK, Reproducible: true})
	if err != nil {
		t.Fatalf("machine: %v", err)
	}
	defer m.Shutdown()
	if err := checkedRun(t, m, func() error {
		return m.Run(func(ctx kernel.Context, env *Env) {
			base := m.HeapBase(ctx)
			apps.Linpack(ctx, env.MPI, base, apps.LinpackConfig{Panels: 8, PanelCycles: 200_000, ExchangeB: 4 << 10})
		}, kernel.JobParams{}, sim.FromSeconds(600))
	}); err != nil {
		t.Fatalf("run: %v", err)
	}
	for i, c := range m.ExitCodes() {
		if c != 0 {
			t.Fatalf("rank %d exited %d", i, c)
		}
	}
	drainToIdle(t, m)
}
