package experiments

import (
	"bgcnk/internal/bringup"
	"bgcnk/internal/caps"
	"bgcnk/internal/cnk"
	"bgcnk/internal/ctrlsys"
	"bgcnk/internal/fwk"
	"bgcnk/internal/hw"
	"bgcnk/internal/kernel"
	"bgcnk/internal/machine"
	"bgcnk/internal/sim"
	"bgcnk/internal/sim/replica"
)

// RunTable2 regenerates Table II via the capability probes.
func RunTable2(opt Options) (*Result, error) {
	rows, err := caps.TableII()
	r := &Result{ID: "table2", Title: "Table II: ease of using capabilities (CNK vs Linux)", Pass: err == nil}
	for _, row := range rows {
		r.addf("%-36s | CNK: %-16s | Linux: %-13s", row.Capability, row.CNK, row.Linux)
		if row.Evidence != "" {
			r.addf("    evidence: %s", row.Evidence)
		}
	}
	if err != nil {
		r.notef("probe contradiction: %v", err)
	}
	return r, nil
}

// RunTable3 regenerates Table III.
func RunTable3(opt Options) (*Result, error) {
	r := &Result{ID: "table3", Title: "Table III: ease of implementing missing capabilities", Pass: true}
	for _, row := range caps.TableIII() {
		r.addf("%-36s | CNK: %-8s | Linux: %-8s  (%s)", row.Capability, row.CNK, row.Linux, row.Evidence)
	}
	return r, nil
}

// RunBoot regenerates the Section III boot story in two parts: the
// single-node comparison under the 10 Hz VHDL simulator used during chip
// design ("CNK boots in a couple of hours, while Linux takes weeks. Even
// stripped down, Linux takes days."), and the control-system scaling
// comparison ("CNK boots a 72-rack machine in minutes"): CNK's broadcast
// boot is near-flat in node count while an FWK's staggered per-node image
// load grows linearly.
func RunBoot(opt Options) (*Result, error) {
	// The three single-node boots are independent replicas (one engine
	// and chip each); fan them and keep the rendered order fixed — this
	// render is golden-pinned, so it must be byte-identical at any
	// worker count.
	boots, err := replica.Run(opt.workers(), 3, func(i int) (uint64, error) {
		eng := sim.NewEngine()
		defer eng.Shutdown() // the FWK's daemons stay parked after boot
		chip := hw.NewChip(hw.ChipConfig{ID: i})
		if i == 0 {
			k := cnk.New(eng, chip, cnk.Config{Reproducible: true})
			err := k.Boot()
			return k.BootInstr, err
		}
		k := fwk.New(eng, chip, fwk.Config{Stripped: i == 2})
		err := k.Boot()
		return k.BootInstr, err
	})
	if err != nil {
		return nil, err
	}
	r := &Result{ID: "boot", Title: "Boot: VHDL bring-up time and boot-protocol scaling (paper Section III)", Pass: true}
	r.addf("%s", bringup.DescribeVHDLBoot("CNK", boots[0]))
	r.addf("%s", bringup.DescribeVHDLBoot("Linux (full)", boots[1]))
	r.addf("%s", bringup.DescribeVHDLBoot("Linux (stripped)", boots[2]))
	cnkH := bringup.VHDLBootTime(boots[0])
	fullH := bringup.VHDLBootTime(boots[1])
	stripH := bringup.VHDLBootTime(boots[2])
	if cnkH > 12 {
		r.Pass = false
		r.notef("CNK boot %.1fh is not 'a couple of hours'", cnkH)
	}
	if fullH < 24*7 {
		r.Pass = false
		r.notef("full Linux boot %.1fh is not 'weeks'", fullH)
	}
	if stripH < 24 || stripH > 24*14 {
		r.Pass = false
		r.notef("stripped Linux boot %.1fh is not 'days'", stripH)
	}

	// Part two: boot time vs node count through the control-system model.
	counts := []int{64, 128, 256, 512, 1024}
	if opt.Quick {
		counts = []int{32, 64, 128, 256}
	}
	r.addf("")
	r.addf("Boot protocol scaling (control-system model, %d nodes/midplane):", 32)
	r.addf("%6s | %14s | %14s | %9s", "nodes", "CNK broadcast", "FWK staggered", "FWK/CNK")
	// One replica per (node count, kernel) sweep point; render after the
	// barrier, in sweep order.
	type bootPt struct{ cnk, fwk sim.Cycles }
	pts := replica.Map(opt.workers(), len(counts), func(i int) bootPt {
		cb := ctrlsys.SimulateBoot(ctrlsys.BootConfig{Kind: machine.KindCNK, Nodes: counts[i], NodesPerMidplane: 32})
		fb := ctrlsys.SimulateBoot(ctrlsys.BootConfig{Kind: machine.KindFWK, Nodes: counts[i], NodesPerMidplane: 32})
		return bootPt{cb.Total, fb.Total}
	})
	var cnkTimes, fwkTimes []float64
	for i, n := range counts {
		cnkTimes = append(cnkTimes, pts[i].cnk.Seconds()*1e3)
		fwkTimes = append(fwkTimes, pts[i].fwk.Seconds()*1e3)
		r.addf("%6d | %11.3f ms | %11.1f ms | %8.0fx", n,
			pts[i].cnk.Seconds()*1e3, pts[i].fwk.Seconds()*1e3,
			float64(pts[i].fwk)/float64(pts[i].cnk))
	}
	last := len(counts) - 1
	span := float64(counts[last]) / float64(counts[0])
	cnkGrowth := cnkTimes[last] / cnkTimes[0]
	fwkGrowth := fwkTimes[last] / fwkTimes[0]
	r.addf("growth over a %gx node span: CNK %.2fx, FWK %.1fx", span, cnkGrowth, fwkGrowth)
	if cnkGrowth > 1.5 {
		r.Pass = false
		r.notef("CNK broadcast boot grew %.2fx over a %gx node span; should be near-flat", cnkGrowth, span)
	}
	if fwkGrowth < span/2 {
		r.Pass = false
		r.notef("FWK staggered boot grew only %.1fx over a %gx node span; should be ~linear", fwkGrowth, span)
	}
	return r, nil
}

// reproWorkload is a deterministic two-node job with computation, memory
// traffic, an MPI exchange and function-shipped I/O — everything that
// must replay cycle-identically.
func reproWorkload(ctx kernel.Context, env *machine.Env) {
	base := env.M.HeapBase(ctx)
	for i := 0; i < 6; i++ {
		ctx.Compute(50_000)
		ctx.Touch(base+hw.VAddr(i*4096), 1024, true)
	}
	if env.Rank == 0 {
		env.Dev.Send(ctx, 1, 77, []byte("lockstep"))
	} else {
		env.Dev.Recv(ctx, 77)
	}
	ctx.Compute(200_000)
}

// RunRepro regenerates the Section III methodology: (a) identical runs
// produce identical scans, (b) a waveform assembled from destructive
// scans of successive reruns localizes an injected marginal-timing fault
// to its trigger cycle, and (c) the fault is condition-dependent (it does
// not fire under every run seed).
func RunRepro(opt Options) (*Result, error) {
	r := &Result{ID: "repro", Title: "Cycle reproducibility + fault localization (paper Section III)", Pass: true}
	probe := bringup.Probe{Nodes: 2, Workload: reproWorkload}
	stop := sim.Cycles(1_200_000)

	ok, snaps, err := probe.VerifyReproducible(stop, 3)
	if err != nil {
		return nil, err
	}
	r.addf("3 independent runs to cycle %d: identical scans = %v (trace %x)", uint64(stop), ok, snaps[0].Trace)
	if !ok {
		r.Pass = false
		r.notef("reproducibility broken")
	}

	// Marginal-timing fault on chip 1, triggered by chip variance x
	// thermal conditions.
	fault := &bringup.FaultSpec{
		Node: 1, ChipVariance: 0.97,
		WindowStart: 400_000, WindowLen: 400_000,
	}
	// The bug manifests only under some ambient conditions; find a run
	// seed that reproduces it, as the bringup engineers did by rerunning.
	for seed := uint64(1); seed <= 64; seed++ {
		fault.RunSeed = seed
		if _, fires := fault.TriggerCycle(); fires {
			break
		}
	}
	trigger, fires := fault.TriggerCycle()
	r.addf("injected marginal path: fires=%v at cycle %d under run seed %d", fires, uint64(trigger), fault.RunSeed)
	if !fires {
		r.Pass = false
		r.notef("fault did not arm; adjust variance")
		return r, nil
	}
	// Not every ambient condition reproduces it (the paper's "did not
	// occur on every run").
	fickle := false
	for seed := uint64(1); seed <= 12; seed++ {
		f := *fault
		f.RunSeed = seed
		if _, fires := f.TriggerCycle(); !fires {
			fickle = true
			break
		}
	}
	r.addf("fault absent under some ambient conditions: %v", fickle)
	if !fickle {
		r.notef("fault fires under every seed; manifestation should be condition-dependent")
	}

	step := sim.Cycles(100_000)
	ref, err := probe.CaptureWaveform(100_000, stop, step)
	if err != nil {
		return nil, err
	}
	faulty := probe
	faulty.Fault = fault
	sus, err := faulty.CaptureWaveform(100_000, stop, step)
	if err != nil {
		return nil, err
	}
	at, chip, found := bringup.FindDivergence(ref, sus)
	r.addf("waveform divergence: found=%v at cycle %d on chip %d (fault fired at %d)", found, uint64(at), chip, uint64(trigger))
	if !found || chip != 1 {
		r.Pass = false
		r.notef("divergence not localized to the faulty chip")
		return r, nil
	}
	if at < trigger || at > trigger+step {
		r.Pass = false
		r.notef("divergence cycle %d not within one scan step of the trigger %d", uint64(at), uint64(trigger))
	}
	return r, nil
}
