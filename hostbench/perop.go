package main

import (
	"fmt"
	"runtime"

	"bgcnk/internal/cnk"
	"bgcnk/internal/ctrlsys"
	"bgcnk/internal/fwk"
	"bgcnk/internal/hw"
	"bgcnk/internal/kernel"
	"bgcnk/internal/machine"
	"bgcnk/internal/sim"
	"bgcnk/internal/upc"
)

// perOpRow is the host cost of one call into a layer, measured by
// calling it directly with a workload's own arguments. Layers the
// workload only reaches through a single outer call (Drain builds every
// partition machine, which builds every chip) are measured this way.
type perOpRow struct {
	Name   string  `json:"name"`
	Arg    string  `json:"arg"`
	Ops    int     `json:"ops"`
	Ns     float64 `json:"ns_per_op"`
	Allocs float64 `json:"allocs_per_op"`
	Bytes  float64 `json:"bytes_per_op"`
}

func allocCount() (objects, bytes uint64) {
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return ms.Mallocs, ms.TotalAlloc
}

// opTimer accumulates one row. Times are process CPU time, which
// hypervisor steal does not inflate; with one P and no I/O it is the
// call's wall time otherwise. Exact allocation counts need
// runtime.ReadMemStats, which empties every allocation cache, so they
// come from separate calls and the timed calls run with warm caches.
type opTimer struct {
	row         perOpRow
	timed, seen int
}

func newOpTimer(name, arg string) *opTimer { return &opTimer{row: perOpRow{Name: name, Arg: arg}} }

// time times fn, which performs per operations.
func (o *opTimer) time(per int, fn func()) {
	t0 := processCPU()
	fn()
	o.row.Ns += float64((processCPU() - t0).Nanoseconds())
	o.timed += per
}

// count counts the allocations of fn, which performs per operations.
func (o *opTimer) count(per int, fn func()) {
	obj0, b0 := allocCount()
	fn()
	obj1, b1 := allocCount()
	o.row.Allocs += float64(obj1 - obj0)
	o.row.Bytes += float64(b1 - b0)
	o.seen += per
}

// measure times n calls of fn and counts the allocations of one more.
func (o *opTimer) measure(n int, fn func()) {
	for i := 0; i < n; i++ {
		o.time(1, fn)
	}
	o.count(1, fn)
}

func (o *opTimer) done() perOpRow {
	r := o.row
	r.Ops = o.timed
	if o.timed > 0 {
		r.Ns /= float64(o.timed)
	}
	if o.seen > 0 {
		r.Allocs /= float64(o.seen)
		r.Bytes /= float64(o.seen)
	}
	return r
}

const (
	chipOps      = 16
	machineOps   = 3
	bootOps      = 8
	probeOps     = 6
	stepBatch    = 100_000
	stepOps      = 5
	switchBatch  = 20_000
	switchOps    = 5
	exportOps    = 4
	miniAppWork  = sim.Cycles(10_000)
	miniAppLimit = sim.Cycles(850_000_000)
)

// miniApp is the app the machine rows launch: one compute burst and, on
// more than one rank, one allreduce, so Launch and Shutdown see the
// workload's process and coroutine count.
func miniApp(ctx kernel.Context, env *machine.Env) {
	ctx.Compute(miniAppWork)
	if env.MPI != nil && env.Size > 1 {
		env.MPI.Allreduce(ctx, 1)
	}
}

func runToIdle(m *machine.Machine) {
	deadline := m.Eng.Now() + miniAppLimit
	for m.Eng.Pending() > 0 && m.Eng.Now() < deadline && !m.JobsDone() {
		m.Eng.Run(deadline)
	}
}

// perOps measures every direct row for the workload and folds them into
// its per-layer metrics. It also returns the host ns one iteration of a
// drain spends building partitions (0 for the other workloads).
func perOps(name string, w workload, seed uint64, c metricValues) (rows []perOpRow, construction float64, err error) {
	chip := newOpTimer("hw.NewChip", "default")
	chip.measure(chipOps, func() { hw.NewChip(hw.ChipConfig{ID: 0}) })
	rows = append(rows, chip.done())
	r := rows[len(rows)-1]
	c["hw.new_chip_us"] = r.Ns / 1e3
	c["hw.new_chip_allocs"] = r.Allocs
	c["hw.new_chip_kb"] = r.Bytes / 1e3

	// machine.New, Launch and Shutdown per shape, and the boot-protocol
	// model for control-system partitions; the metrics weight each shape
	// by how many the workload builds.
	var wNew, wLaunch, wShut, wAllocs, wBytes, wProbe, wProbeAllocs, wProbeBytes float64
	var n, nProbe float64
	for _, s := range w.shapes() {
		mNew := newOpTimer("machine.New", s.label)
		mLaunch := newOpTimer("machine.Launch", s.label)
		mShut := newOpTimer("machine.Shutdown", s.label)
		for i := 0; i <= machineOps; i++ {
			// The last pass counts allocations; the others are timed.
			op := (*opTimer).time
			if i == machineOps {
				op = (*opTimer).count
			}
			var m *machine.Machine
			op(mNew, 1, func() { m, err = machine.New(s.cfg) })
			if err != nil {
				return nil, 0, fmt.Errorf("machine.New %s: %v", s.label, err)
			}
			op(mLaunch, 1, func() { err = m.Launch(miniApp, kernel.JobParams{}) })
			if err != nil {
				return nil, 0, fmt.Errorf("machine.Launch %s: %v", s.label, err)
			}
			runToIdle(m)
			op(mShut, 1, m.Shutdown)
		}
		rn, rl, rs := mNew.done(), mLaunch.done(), mShut.done()
		rows = append(rows, rn, rl, rs)
		k := float64(s.count)
		n += k
		wNew += k * rn.Ns
		wAllocs += k * rn.Allocs
		wBytes += k * rn.Bytes
		wLaunch += k * rl.Ns
		wShut += k * rs.Ns
		if s.npm > 0 {
			probe := newOpTimer("ctrlsys.SimulateBoot", s.label)
			probe.measure(probeOps, func() {
				ctrlsys.SimulateBoot(ctrlsys.BootConfig{Kind: s.cfg.Kind, Nodes: s.cfg.Nodes, NodesPerMidplane: s.npm})
			})
			rp := probe.done()
			rows = append(rows, rp)
			nProbe += k
			wProbe += k * rp.Ns
			wProbeAllocs += k * rp.Allocs
			wProbeBytes += k * rp.Bytes
		}
	}
	if n > 0 {
		c["machine.new_ms"] = wNew / n / 1e6
		c["machine.new_allocs"] = wAllocs / n
		c["machine.new_kb"] = wBytes / n / 1e3
		c["machine.launch_ms"] = wLaunch / n / 1e6
		c["machine.shutdown_ms"] = wShut / n / 1e6
	}
	if nProbe > 0 {
		c["ctrlsys.simulate_boot_us"] = wProbe / nProbe / 1e3
		c["ctrlsys.simulate_boot_allocs"] = wProbeAllocs / nProbe
		c["ctrlsys.simulate_boot_kb"] = wProbeBytes / nProbe / 1e3
		// Every partition boot builds a machine and runs the
		// boot-protocol model.
		construction = wNew + wProbe
	}

	// Kernel boot on a fresh engine and chip.
	for _, k := range kinds {
		bt := newOpTimer(kindName(k)+".Boot", "fresh engine and chip")
		for i := 0; i <= bootOps; i++ {
			op := (*opTimer).time
			if i == bootOps {
				op = (*opTimer).count
			}
			eng := sim.NewEngine()
			chip := hw.NewChip(hw.ChipConfig{ID: 0})
			var boot func() error
			if k == machine.KindCNK {
				boot = cnk.New(eng, chip, cnk.Config{}).Boot
			} else {
				boot = fwk.New(eng, chip, fwk.Config{Seed: seed}).Boot
			}
			op(bt, 1, func() { err = boot() })
			eng.Shutdown()
			if err != nil {
				return nil, 0, fmt.Errorf("%s boot: %v", kindName(k), err)
			}
		}
		rb := bt.done()
		rows = append(rows, rb)
		c[kindName(k)+".boot_us"] = rb.Ns / 1e3
		c[kindName(k)+".boot_allocs"] = rb.Allocs
		c[kindName(k)+".boot_kb"] = rb.Bytes / 1e3
	}

	// Event dispatch: Engine.At + Step.
	step := newOpTimer("sim.Engine.At+Step", "1-cycle events")
	eng := sim.NewEngine()
	noop := func() {}
	steps := func() {
		for j := 0; j < stepBatch; j++ {
			eng.At(eng.Now()+1, noop)
			eng.Step()
		}
	}
	for i := 0; i < stepOps; i++ {
		step.time(stepBatch, steps)
	}
	step.count(stepBatch, steps)
	rs := step.done()
	rows = append(rows, rs)
	c["sim.step_ns"] = rs.Ns
	c["sim.step_allocs"] = rs.Allocs
	c["sim.step_b"] = rs.Bytes

	// Coroutine park/resume round trip through Engine.Go.
	sw := newOpTimer("sim.Coro.Sleep", "park/resume round trip")
	for i := 0; i <= switchOps; i++ {
		op := (*opTimer).time
		if i == switchOps {
			op = (*opTimer).count
		}
		eng := sim.NewEngine()
		eng.Go("pingpong", func(co *sim.Coro) {
			for j := 0; j < switchBatch; j++ {
				co.Sleep(1)
			}
		})
		eng.Step() // the initial dispatch, outside the measured round trips
		op(sw, switchBatch, func() { eng.RunUntilIdle() })
		eng.Shutdown()
	}
	rc := sw.done()
	rows = append(rows, rc)
	c["sim.coro_switch_ns"] = rc.Ns
	c["sim.coro_switch_allocs"] = rc.Allocs
	c["sim.coro_switch_b"] = rc.Bytes

	if name == "io_traced" {
		exportRows, err := exportOpRows(seed, c)
		if err != nil {
			return nil, 0, err
		}
		rows = append(rows, exportRows...)
	}
	return rows, construction, nil
}

// exportOpRows times ChromeJSON and MarshalBinary on the io_traced
// machines' finished traces.
func exportOpRows(seed uint64, c metricValues) ([]perOpRow, error) {
	w := &ioWorkload{seed: seed, armed: true}
	runs := w.plan()
	if err := buildMachines(nil, runs, func(m *machine.Machine) { m.EnableTracepoints(upc.CatAll) }); err != nil {
		return nil, err
	}
	var rows []perOpRow
	var jsonNs, binNs, jsonAllocs, binAllocs float64
	for _, mr := range runs {
		if err := driveMachine(nil, &runResult{out: outputs{}}, mr); err != nil {
			return nil, err
		}
		js := newOpTimer("obs.ChromeJSON", mr.name+"/32")
		bs := newOpTimer("obs.MarshalBinary", mr.name+"/32")
		js.measure(exportOps, func() { mr.m.TraceJSON() })
		bs.measure(exportOps, func() { mr.m.TraceBinary() })
		mr.m.Shutdown()
		rj, rb := js.done(), bs.done()
		rows = append(rows, rj, rb)
		jsonNs += rj.Ns
		binNs += rb.Ns
		jsonAllocs += rj.Allocs
		binAllocs += rb.Allocs
	}
	c["obs.export_json_ms"] = jsonNs / 1e6
	c["obs.export_bin_ms"] = binNs / 1e6
	c["obs.export_json_allocs"] = jsonAllocs
	c["obs.export_bin_allocs"] = binAllocs
	return rows, nil
}
