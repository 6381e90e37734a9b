package main

import (
	"fmt"
	"hash/fnv"
	"os"
	"time"

	"bgcnk/internal/apps"
	"bgcnk/internal/ctrlsys"
	"bgcnk/internal/hw"
	"bgcnk/internal/ion"
	"bgcnk/internal/kernel"
	"bgcnk/internal/machine"
	"bgcnk/internal/obs"
	"bgcnk/internal/ras"
	"bgcnk/internal/sim"
	"bgcnk/internal/upc"
)

// workload is one benchmark input set. Each iteration calls setup, which
// builds the iteration's inputs and machines, then run, the timed phase,
// which drives the simulation, collects its outputs and tears everything
// down.
type workload interface {
	setup(t *tracer) error
	run(t *tracer) (*runResult, error)
	// shapes lists the machines the workload builds per iteration, for
	// the direct per-op rows.
	shapes() []shape
}

// runResult is what one run phase produced.
type runResult struct {
	out    outputs // simulated results, checked for identity
	ops    int     // operations attempted: jobs for drains, ranks otherwise
	failed int     // failed jobs or ranks with a non-zero exit
	jobs   int     // host jobs: drained jobs, or machine runs
	cycles uint64  // simulated cycles executed
	events int     // engine events dispatched (0 when hidden inside Drain)
	// simWall is the host time spent inside the simulation proper:
	// Launch + Engine.Run for single machines, Drain for drains.
	simWall time.Duration
	// drainSim is the sum of DrainResult.Wall over the iteration's drains.
	drainSim time.Duration
	counts   metricValues // per-layer counts of this run
}

// outputs is a workload's simulated results as key/value text.
type outputs map[string]string

func (o outputs) set(key string, format string, args ...any) {
	o[key] = fmt.Sprintf(format, args...)
}

// shape is one machine configuration a workload builds, with how many
// the workload builds per iteration.
type shape struct {
	label string
	cfg   machine.Config
	count int
	// npm is the nodes per midplane of a control-system partition, which
	// also pays ctrlsys.SimulateBoot per boot; 0 for other machines.
	npm int
}

var kinds = []machine.KernelKind{machine.KindCNK, machine.KindFWK}

func kindName(k machine.KernelKind) string {
	if k == machine.KindCNK {
		return "cnk"
	}
	return "fwk"
}

func newWorkload(name string, seed uint64) (workload, error) {
	switch name {
	case "drain":
		return &drainWorkload{seed: seed}, nil
	case "drain_resilient":
		return &drainWorkload{seed: seed, resilient: true}, nil
	case "simulate":
		return &simulateWorkload{seed: seed}, nil
	case "io_traced":
		return &ioWorkload{seed: seed, armed: true}, nil
	}
	return nil, fmt.Errorf("unknown workload %q (drain, simulate, io_traced, drain_resilient)", name)
}

// ---------------------------------------------------------------------
// drain and drain_resilient

// drainTopo gives partitions of 2, 4 and 8 nodes.
var drainTopo = ctrlsys.Topology{Racks: 2, MidplanesPerRack: 2, NodesPerMidplane: 2}

// drainPattern is the queue's fixed shape: each job's partition size in
// midplanes, in queue order. Within each size, exchange rounds cycle 1,
// 2, 3 and the per-round work cycles through three bands of the
// generator's range. The seed draws everything else (the work within its
// band, output size, name, kernel seeds) from GenerateJobs. A fixed
// shape keeps a drain's host cost and simulated cycles, and which
// partitions two workers hold at once, from depending on how many large
// or long jobs the seed happens to draw.
var drainPattern = []int{1, 1, 2, 1, 4, 1, 1, 2, 1, 1, 2, 1, 4, 1, 1, 2, 1, 1, 2, 1, 4, 1, 2, 1}

const (
	drainWorkers = 2
	// GenerateJobs draws per-round work from [50k, 200k) cycles.
	drainWorkMin  = 50_000
	drainWorkBand = 50_000
	// Faults are the kinds a job survives: correctable DDR ECC errors and
	// link CRC retransmits. A job-killing fault in a job's first round
	// replays identically on every restart (the fault schedule rewinds),
	// so any kill rate that restarts jobs at some seeds exhausts the
	// restart budget at others.
	resilientECCRate = 2e-3
	resilientCRCRate = 1e-3
	// The service node dies at its first resilientCrashes journal
	// appends, before any job is simulated: recovery replays the journal
	// each time, and no simulated work is lost. A crash after the
	// simulation phase would redo every job not yet committed, so the
	// host cost would swing with where the seed put the crash.
	resilientCrashes = 4
)

// drainQueue draws the queue: for each slot of drainPattern, the next job
// of that shape in a seeded GenerateJobs stream, renumbered densely.
func drainQueue(seed uint64) ([]ctrlsys.Job, error) {
	type key struct{ midplanes, exchanges, band int }
	stream := ctrlsys.GenerateJobs(seed, 64*len(drainPattern), drainTopo.Midplanes())
	shape := func(j ctrlsys.Job) key {
		return key{j.Midplanes, j.Exchanges, int(j.Work-drainWorkMin) / drainWorkBand}
	}
	next := map[key]int{} // stream position to search from, per shape
	seen := map[int]int{} // slots of each size so far
	jobs := make([]ctrlsys.Job, 0, len(drainPattern))
	for _, mp := range drainPattern {
		k := key{mp, 1 + seen[mp]%3, seen[mp] / 3 % 3}
		seen[mp]++
		i := next[k]
		for i < len(stream) && shape(stream[i]) != k {
			i++
		}
		if i == len(stream) {
			return nil, fmt.Errorf("seed %d: job stream has no job of shape %+v left", seed, k)
		}
		next[k] = i + 1
		j := stream[i]
		j.ID = len(jobs)
		jobs = append(jobs, j)
	}
	return jobs, nil
}

type drainWorkload struct {
	seed      uint64
	resilient bool
	jobs      []ctrlsys.Job
	nodes     []*ctrlsys.ServiceNode
}

func (w *drainWorkload) config(kind machine.KernelKind) ctrlsys.Config {
	cfg := ctrlsys.Config{Topology: drainTopo, Kind: kind, Seed: w.seed, Workers: drainWorkers}
	if w.resilient {
		cfg.Faults = &ras.Plan{Seed: w.seed ^ 0x6b1f, DDRCorrectable: resilientECCRate, LinkCRC: resilientCRCRate}
		cfg.Ckpt = ctrlsys.CkptConfig{Enabled: true, Interval: 1}
		cfg.Journal = ctrlsys.JournalConfig{Enabled: true, SegmentBytes: 4096}
		cfg.Crashes = &ras.CrashPlan{Seed: w.seed ^ 0xdeadbeef, Rate: 1, MaxCrashes: resilientCrashes}
		cfg.ION = &ion.Config{}
	}
	return cfg
}

func (w *drainWorkload) setup(t *tracer) error {
	var err error
	t.do("ctrlsys.generate_jobs", func() { w.jobs, err = drainQueue(w.seed) })
	if err != nil {
		return err
	}
	w.nodes = nil
	t.do("ctrlsys.new", func() {
		for _, k := range kinds {
			w.nodes = append(w.nodes, ctrlsys.New(w.config(k)))
		}
	})
	return nil
}

func (w *drainWorkload) run(t *tracer) (*runResult, error) {
	r := &runResult{out: outputs{}, counts: metricValues{}}
	var merged []upc.Snapshot
	for i, k := range kinds {
		var res *ctrlsys.DrainResult
		var err error
		start := time.Now()
		t.do("ctrlsys.drain", func() { res, err = w.nodes[i].Drain(w.jobs) })
		r.simWall += time.Since(start)
		if err != nil {
			return nil, fmt.Errorf("%s drain: %v", kindName(k), err)
		}
		r.drainSim += res.Wall
		t.do("check", func() { w.collect(r, kindName(k), res) })
		merged = append(merged, res.Merged)
	}
	w.nodes = nil
	addUPCCounts(r.counts, upc.Merge(merged...))
	return r, nil
}

func (w *drainWorkload) collect(r *runResult, k string, res *ctrlsys.DrainResult) {
	o := r.out
	o.set(k+".signature", "%016x", res.Signature())
	o.set(k+".makespan", "%d", res.Sched.Makespan)
	o.set(k+".backfilled", "%d", res.Sched.Backfilled)
	o.set(k+".failures", "%d", res.Failures)
	o.set(k+".errs", "%d", len(res.Errs))
	o.set(k+".restarts", "%d", res.Restarts)
	o.set(k+".wasted", "%d", res.Wasted)
	o.set(k+".ras", "%d/%016x", res.RASEvents, res.RASHash)
	o.set(k+".merged_upc", "%s", res.Merged.Text())
	exits := fnv.New64a()
	chips := 0
	for _, jr := range res.Results {
		fmt.Fprintf(exits, "%d:%v|", jr.Job.ID, jr.ExitCodes)
		attempts := len(jr.Attempts)
		if attempts == 0 {
			attempts = 1
		}
		chips += attempts * (jr.Nodes + 1) // +1: the boot-protocol probe chip
		r.ops++
		r.cycles += uint64(jr.Run + jr.Wasted)
		if jr.Failed() || jr.BudgetExhausted || jr.CrashAborted {
			r.failed++
			fmt.Fprintf(os.Stderr, "%s job %d (%d midplanes): exit codes %v, restarts %d, budget exhausted %v, crash aborted %v, err %q\n",
				k, jr.Job.ID, jr.Job.Midplanes, jr.ExitCodes, jr.Restarts, jr.BudgetExhausted, jr.CrashAborted, jr.Err)
		}
	}
	o.set(k+".exit_codes", "%016x", exits.Sum64())
	if w.resilient {
		c := res.Crash
		o.set(k+".crash", "crashes=%d recoveries=%d replayed=%d orphans=%d resumed=%d requeued=%d latency=%d",
			c.Crashes, c.Recoveries, c.RecordsReplayed, c.OrphansKilled, c.Resumed, c.Requeued, c.RecoveryLatency)
		j := res.Journal
		o.set(k+".journal", "records=%d bytes=%d segments=%d torn=%d", j.Records, j.Bytes, j.Segments, j.TornDropped)
	}
	r.jobs += len(res.Results)
	c := r.counts
	c["hw.chips_built"] += float64(chips)
	c["ctrlsys.jobs"] += float64(len(res.Results))
	c["ctrlsys.restarts"] += float64(res.Restarts)
	c["ctrlsys.failures"] += float64(res.Failures)
	c["ctrlsys.backfilled"] += float64(res.Sched.Backfilled)
	c["ctrlsys.wasted_mcycles"] += float64(res.Wasted) / 1e6
	c["ctrlsys.crashes"] += float64(res.Crash.Crashes)
	c["ctrlsys.recoveries"] += float64(res.Crash.Recoveries)
	c["ctrlsys.records_replayed"] += float64(res.Crash.RecordsReplayed)
	c["wal.records"] += float64(res.Journal.Records)
	c["wal.bytes"] += float64(res.Journal.Bytes)
	c["wal.segments"] += float64(res.Journal.Segments)
	c["ras.events"] += float64(res.RASEvents)
	c["ctrlsys.useful_ratio"] = c["ctrlsys.jobs"] / (c["ctrlsys.jobs"] + c["ctrlsys.restarts"])
}

func (w *drainWorkload) shapes() []shape {
	count := map[int]int{}
	for _, mp := range drainPattern {
		count[mp]++
	}
	var out []shape
	for _, k := range kinds {
		cfg := w.config(k)
		for _, mp := range []int{1, 2, 4} {
			nodes := mp * drainTopo.NodesPerMidplane
			mc := machine.Config{Nodes: nodes, Kind: k, Seed: w.seed, ION: cfg.ION, Faults: cfg.Faults}
			out = append(out, shape{label: fmt.Sprintf("%s/%d", kindName(k), nodes), cfg: mc,
				count: count[mp], npm: drainTopo.NodesPerMidplane})
		}
	}
	return out
}

// ---------------------------------------------------------------------
// simulate

const (
	simNodes = 8
	// Each rank computes for simWork cycles, then runs simBurst
	// allreduces, simRounds times: long enough in simulated time for the
	// FWK's tick, daemons and preemption to interleave with the exchanges.
	simRounds         = 200
	simBurst          = 12
	simWork           = sim.Cycles(850_000)
	simFWQSamples     = 2500
	simRunLimitCycles = sim.Cycles(300 * 850_000_000)
)

// machineRun is one single-machine run: a machine and the app it runs.
type machineRun struct {
	name string
	cfg  machine.Config
	app  func(m *machine.Machine, res *appResult) machine.App
	m    *machine.Machine
	res  appResult
}

// appResult is what rank 0 of an app reports, folded into the outputs.
type appResult struct {
	sum, max sim.Cycles
}

func (a *appResult) add(xs []sim.Cycles) {
	for _, x := range xs {
		a.sum += x
		if x > a.max {
			a.max = x
		}
	}
}

// allreduceApp alternates compute with bursts of AllreduceBench.
func allreduceApp(m *machine.Machine, res *appResult) machine.App {
	return func(ctx kernel.Context, env *machine.Env) {
		for r := 0; r < simRounds; r++ {
			ctx.Compute(simWork)
			out, errno := apps.AllreduceBench(ctx, env.MPI, simBurst)
			if errno != kernel.OK {
				ctx.Syscall(kernel.SysExit, uint64(errno))
				return
			}
			if env.Rank == 0 {
				res.add(out)
			}
		}
	}
}

func fwqApp(samples int) func(*machine.Machine, *appResult) machine.App {
	return func(m *machine.Machine, res *appResult) machine.App {
		return func(ctx kernel.Context, env *machine.Env) {
			if env.Rank == 0 {
				cfg := apps.DefaultFWQ()
				cfg.Samples = samples
				res.add(apps.FWQ(ctx, m.HeapBase(ctx)+hw.VAddr(1<<20), cfg))
			}
		}
	}
}

type simulateWorkload struct {
	seed uint64
	runs []*machineRun
}

func (w *simulateWorkload) plan() []*machineRun {
	return []*machineRun{
		{name: "fwk_allreduce", cfg: machine.Config{Nodes: simNodes, Kind: machine.KindFWK, Seed: w.seed},
			app: allreduceApp},
		{name: "cnk_allreduce", cfg: machine.Config{Nodes: simNodes, Kind: machine.KindCNK, Seed: w.seed},
			app: allreduceApp},
		{name: "cnk_fwq", cfg: machine.Config{Nodes: 1, Kind: machine.KindCNK, Seed: w.seed},
			app: fwqApp(simFWQSamples)},
	}
}

func (w *simulateWorkload) setup(t *tracer) error {
	w.runs = w.plan()
	return buildMachines(t, w.runs, nil)
}

func (w *simulateWorkload) run(t *tracer) (*runResult, error) {
	r := &runResult{out: outputs{}, counts: metricValues{}}
	var merged []upc.Snapshot
	for _, mr := range w.runs {
		if err := driveMachine(t, r, mr); err != nil {
			return nil, err
		}
		merged = append(merged, collectMachine(t, r, mr))
	}
	addUPCCounts(r.counts, upc.Merge(merged...))
	return r, nil
}

func (w *simulateWorkload) shapes() []shape {
	var out []shape
	for _, mr := range w.plan() {
		out = append(out, shape{label: mr.name, cfg: mr.cfg, count: 1})
	}
	return out
}

// buildMachines is the construction phase of the single-machine
// workloads; arm, when set, runs on each machine after it is built.
func buildMachines(t *tracer, runs []*machineRun, arm func(*machine.Machine)) error {
	for _, mr := range runs {
		var err error
		t.do("machine.new", func() { mr.m, err = machine.New(mr.cfg) })
		if err != nil {
			return fmt.Errorf("%s: %v", mr.name, err)
		}
		if arm != nil {
			arm(mr.m)
		}
	}
	return nil
}

// driveMachine launches the app and runs the engine until every rank
// exits, the loop Machine.Run uses, counting the events dispatched.
func driveMachine(t *tracer, r *runResult, mr *machineRun) error {
	m := mr.m
	start := time.Now()
	var err error
	t.do("machine.launch", func() { err = m.Launch(mr.app(m, &mr.res), kernel.JobParams{}) })
	if err != nil {
		return fmt.Errorf("%s: launch: %v", mr.name, err)
	}
	events := 0
	t.do("sim.engine_run", func() {
		deadline := m.Eng.Now() + simRunLimitCycles
		for m.Eng.Pending() > 0 && m.Eng.Now() < deadline && !m.JobsDone() {
			events += m.Eng.Run(deadline)
		}
	})
	r.simWall += time.Since(start)
	if !m.JobsDone() {
		return fmt.Errorf("%s: ranks did not finish", mr.name)
	}
	r.events += events
	r.out.set(mr.name+".events", "%d", events)
	return nil
}

// collectMachine records a finished machine's outputs and shuts it down.
func collectMachine(t *tracer, r *runResult, mr *machineRun) upc.Snapshot {
	m := mr.m
	var merged upc.Snapshot
	t.do("check", func() {
		o := r.out
		o.set(mr.name+".cycles", "%d", m.Eng.Now())
		codes := m.ExitCodes()
		o.set(mr.name+".exit_codes", "%v", codes)
		for _, c := range codes {
			r.ops++
			if c != 0 {
				r.failed++
			}
		}
		o.set(mr.name+".app", "sum=%d max=%d", mr.res.sum, mr.res.max)
		merged = m.MergedCounters()
		o.set(mr.name+".merged_upc", "%s", merged.Text())
	})
	r.jobs++
	r.cycles += uint64(m.Eng.Now())
	r.counts["hw.chips_built"] += float64(len(m.Chips))
	t.do("machine.shutdown", m.Shutdown)
	mr.m = nil
	return merged
}

// ---------------------------------------------------------------------
// io_traced

const (
	ioNodes       = 32 // one ION serves all 32 compute nodes
	ioChunk       = 1024
	ioChunks      = 8
	ioSampleEvery = sim.Cycles(100_000)
)

// ioApp: every rank writes a seeded file, fsyncs it, closes it, reads it
// back and exits non-zero if a byte differs.
func ioApp(seed uint64) func(*machine.Machine, *appResult) machine.App {
	return func(m *machine.Machine, res *appResult) machine.App {
		return func(ctx kernel.Context, env *machine.Env) {
			base := m.HeapBase(ctx)
			data := make([]byte, ioChunk*ioChunks)
			rng := sim.NewRNG(seed).Fork(uint64(env.Node))
			for i := range data {
				data[i] = byte(rng.Uint64())
			}
			path, buf, back := base, base+4096, base+4096+hw.VAddr(len(data))
			ctx.Store(path, append([]byte(fmt.Sprintf("/gpfs/hostbench%03d", env.Node)), 0))
			ctx.Store(buf, data)
			exit := func(code kernel.Errno) { ctx.Syscall(kernel.SysExit, uint64(code)) }
			fd, errno := ctx.Syscall(kernel.SysOpen, uint64(path), kernel.OCreat|kernel.OWronly|kernel.OTrunc, 0644)
			if errno != kernel.OK {
				exit(errno)
				return
			}
			for i := 0; i < ioChunks; i++ {
				if _, errno := ctx.Syscall(kernel.SysWrite, fd, uint64(buf)+uint64(i*ioChunk), ioChunk); errno != kernel.OK {
					exit(errno)
					return
				}
			}
			ctx.Syscall(kernel.SysFsync, fd)
			ctx.Syscall(kernel.SysClose, fd)
			fd, errno = ctx.Syscall(kernel.SysOpen, uint64(path), kernel.ORdonly, 0)
			if errno != kernel.OK {
				exit(errno)
				return
			}
			for i := 0; i < ioChunks; i++ {
				n, errno := ctx.Syscall(kernel.SysRead, fd, uint64(back)+uint64(i*ioChunk), ioChunk)
				if errno != kernel.OK || n != ioChunk {
					exit(kernel.EIO)
					return
				}
			}
			ctx.Syscall(kernel.SysClose, fd)
			got := make([]byte, len(data))
			ctx.Load(back, got)
			if string(got) != string(data) {
				exit(kernel.EIO)
			}
		}
	}
}

type ioWorkload struct {
	seed  uint64
	armed bool // obs spans, the UPC sampler and every tracepoint
	runs  []*machineRun
}

func (w *ioWorkload) plan() []*machineRun {
	var out []*machineRun
	for _, k := range kinds {
		cfg := machine.Config{Nodes: ioNodes, Kind: k, Seed: w.seed, CNsPerION: ioNodes, ION: &ion.Config{}}
		if w.armed {
			cfg.Obs = &obs.Config{SampleEvery: ioSampleEvery}
		}
		out = append(out, &machineRun{name: kindName(k), cfg: cfg, app: ioApp(w.seed)})
	}
	return out
}

func (w *ioWorkload) setup(t *tracer) error {
	w.runs = w.plan()
	var arm func(*machine.Machine)
	if w.armed {
		arm = func(m *machine.Machine) { m.EnableTracepoints(upc.CatAll) }
	}
	return buildMachines(t, w.runs, arm)
}

func (w *ioWorkload) run(t *tracer) (*runResult, error) {
	r := &runResult{out: outputs{}, counts: metricValues{}}
	var merged []upc.Snapshot
	c := r.counts
	var hits, misses float64
	for _, mr := range w.runs {
		if err := driveMachine(t, r, mr); err != nil {
			return nil, err
		}
		m := mr.m
		if w.armed {
			var js, bs []byte
			t.do("obs.export_json", func() { js = m.TraceJSON() })
			t.do("obs.export_bin", func() { bs = m.TraceBinary() })
			var err error
			t.do("check", func() { err = checkTrace(r.out, mr.name, m, bs) })
			if err != nil {
				return nil, err
			}
			c["obs.spans"] += float64(m.Obs.SpanCount())
			c["obs.samples"] += float64(m.Obs.SampleCount())
			c["obs.json_mb"] += float64(len(js)) / 1e6
			c["obs.bin_mb"] += float64(len(bs)) / 1e6
		}
		for _, s := range m.IONStats() {
			r.out.set(mr.name+".ion", "admitted=%d coalesced=%d hits=%d misses=%d writebacks=%d flushes=%d max_depth=%d depth=%d",
				s.Admitted, s.Coalesced, s.CacheHits, s.CacheMisses, s.Writebacks, s.Flushes, s.MaxDepth, s.Depth)
			c["ion.admitted"] += float64(s.Admitted)
			c["ion.coalesced"] += float64(s.Coalesced)
			c["ion.writebacks"] += float64(s.Writebacks)
			c["ion.max_depth"] = max(c["ion.max_depth"], float64(s.MaxDepth))
			hits += float64(s.CacheHits)
			misses += float64(s.CacheMisses)
		}
		tracepoints := uint64(0)
		for _, ch := range m.Chips {
			tracepoints += ch.UPC.Trace.Count()
		}
		r.out.set(mr.name+".tracepoints", "%d", tracepoints)
		c["upc.tracepoints"] += float64(tracepoints)
		for _, s := range m.Servers {
			c["ciod.calls"] += float64(s.Calls)
			c["ciod.proxies"] += float64(s.Proxies)
		}
		merged = append(merged, collectMachine(t, r, mr))
	}
	if hits+misses > 0 {
		c["ion.cache_hit_ratio"] = hits / (hits + misses)
	}
	addUPCCounts(c, upc.Merge(merged...))
	return r, nil
}

// checkTrace verifies the binary export decodes to what the recorder
// holds, and records the span and sample counts. Export bytes and hashes
// are deliberately not recorded: a change of trace format may move them.
func checkTrace(o outputs, name string, m *machine.Machine, bin []byte) error {
	tr, err := obs.Unmarshal(bin)
	if err != nil {
		return fmt.Errorf("%s: binary trace does not decode: %v", name, err)
	}
	if len(tr.Spans) != m.Obs.SpanCount() || len(tr.Samples) != m.Obs.SampleCount() {
		return fmt.Errorf("%s: decoded trace has %d spans/%d samples, recorder %d/%d",
			name, len(tr.Spans), len(tr.Samples), m.Obs.SpanCount(), m.Obs.SampleCount())
	}
	o.set(name+".spans", "%d", m.Obs.SpanCount())
	o.set(name+".samples", "%d", m.Obs.SampleCount())
	return nil
}

func (w *ioWorkload) shapes() []shape {
	var out []shape
	for _, mr := range w.plan() {
		out = append(out, shape{label: mr.name + "/32", cfg: mr.cfg, count: 1})
	}
	return out
}

// addUPCCounts records the simulated work counts: denominators that no
// host-side change may move.
func addUPCCounts(c metricValues, s upc.Snapshot) {
	c["upc.context_switch"] = float64(s.Total(upc.ContextSwitch))
	c["upc.timer_tick"] = float64(s.Total(upc.TimerTick))
	c["upc.syscall"] = float64(s.Total(upc.SyscallTotal))
	c["upc.function_ship"] = float64(s.Total(upc.FunctionShip))
	c["upc.torus_packet"] = float64(s.Total(upc.TorusPacket))
	c["upc.coll_packet"] = float64(s.Total(upc.CollPacket))
	c["upc.ion_stall_cycles"] = float64(s.Total(upc.IONStallCycles))
}
