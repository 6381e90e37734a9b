// Command hostbench measures the host cost of the simulator: wall time,
// CPU and allocation, end to end on four workloads and layer by layer in
// a separate traced pass. Simulated results are the fixed point: every
// iteration's outputs are checked for identity against the recorded
// outputs (at the default seed) or against the first iteration (at any
// other seed), never measured as performance.
//
//	bash hostbench/run.sh --workload drain --seed 1 --seconds 10 --trace 0
//	bash hostbench/run.sh --workload io_traced --seed 7 --seconds 10 --trace 1
//	bash hostbench/run.sh --workload simulate --cpuprofile cpu.pprof --memprofile mem.pprof
//
// The last line of standard output is one JSON object with the keys
// correct, attempted, failed and metrics; everything else goes to
// standard error.
package main

import (
	_ "embed"
	"encoding/json"
	"flag"
	"fmt"
	"math"
	"os"
	"runtime"
	"runtime/pprof"
	"sort"
	"strings"
	"time"
)

// defaultSeed is the seed whose outputs expected.json records.
const defaultSeed = 1

// traceDir is where the traced pass writes its spans and per-op rows,
// relative to the repository root the benchmark runs from.
const traceDir = ".bench_build/hostbench"

//go:embed expected.json
var expectedJSON []byte

func main() { os.Exit(realMain()) }

func realMain() int {
	name := flag.String("workload", "drain", "drain | simulate | io_traced | drain_resilient")
	seed := flag.Uint64("seed", defaultSeed, "input seed; the default seed's outputs are checked against expected.json")
	seconds := flag.Float64("seconds", 10, "length of the measured phase")
	trace := flag.Int("trace", 0, "0: end-to-end metrics, untraced; 1: per-layer metrics from a traced pass")
	cpuProfile := flag.String("cpuprofile", "", "write a CPU profile of the whole run to this file")
	memProfile := flag.String("memprofile", "", "write a heap profile at the end of the run to this file")
	record := flag.String("record", "", "run the default seed and write its outputs into this expected.json")
	describe := flag.Bool("describe", false, "print the metrics, what each should move, and exit")
	flag.Parse()
	// The engine is single-threaded. On a shared host, a second P mostly
	// adds cross-CPU wake-ups that hypervisor steal stretches.
	runtime.GOMAXPROCS(1)

	if *describe {
		printDescription()
		return 0
	}
	if *trace != 0 && *trace != 1 {
		fmt.Fprintln(os.Stderr, "hostbench: --trace must be 0 or 1")
		return 2
	}
	var cpuFile *os.File
	if *cpuProfile != "" {
		var err error
		if cpuFile, err = os.Create(*cpuProfile); err == nil {
			err = pprof.StartCPUProfile(cpuFile)
		}
		if err != nil {
			fmt.Fprintln(os.Stderr, "hostbench:", err)
			return 1
		}
	}

	b := &bench{name: *name, seed: *seed, seconds: time.Duration(*seconds * float64(time.Second))}
	var res *result
	var err error
	switch {
	case *record != "":
		b.seed = defaultSeed
		err = b.record(*record)
	case *trace == 1:
		res, err = b.traced()
	default:
		res, err = b.untraced()
	}
	if cpuFile != nil {
		pprof.StopCPUProfile()
		if cerr := cpuFile.Close(); err == nil {
			err = cerr
		}
	}
	if err == nil && *memProfile != "" {
		err = writeHeapProfile(*memProfile)
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "hostbench:", err)
		return 1
	}
	if res == nil {
		return 0
	}
	blob, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintln(os.Stderr, "hostbench:", err)
		return 1
	}
	fmt.Println(string(blob))
	return 0
}

func writeHeapProfile(path string) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	runtime.GC()
	if err := pprof.WriteHeapProfile(f); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// result is the benchmark's last line of output.
type result struct {
	Correct   bool                   `json:"correct"`
	Attempted int                    `json:"attempted"`
	Failed    int                    `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
}

type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// bench runs one workload and keeps the correctness accounting.
type bench struct {
	name    string
	seed    uint64
	seconds time.Duration

	ref       outputs // outputs every iteration must reproduce
	attempted int
	failed    int
	leaked    int
	base      int // live goroutines before the workload
}

// iteration is the host cost and outputs of one set-up plus run.
type iteration struct {
	setup, run hostCost
	res        *runResult
}

func (b *bench) start() (workload, error) {
	w, err := newWorkload(b.name, b.seed)
	if err != nil {
		return nil, err
	}
	b.base = runtime.NumGoroutine()
	if b.seed == defaultSeed {
		var all map[string]outputs
		if err := json.Unmarshal(expectedJSON, &all); err != nil {
			return nil, fmt.Errorf("expected.json: %v", err)
		}
		if b.ref = all[b.name]; b.ref == nil {
			return nil, fmt.Errorf("expected.json records no outputs for %s", b.name)
		}
	}
	return w, nil
}

// iterate runs one set-up and one run phase and checks the outputs. At
// a held-out seed the first iteration becomes the reference, so every
// later one is a rerun that must come out identical.
func (b *bench) iterate(w workload, t *tracer) (iteration, error) {
	var it iteration
	var err error
	// Each phase starts from a collected heap, so a collection cycle's
	// work is not charged to whichever phase it happened to start in.
	runtime.GC()
	top := t.begin("iteration")
	it.setup = phase(func() { t.do("setup", func() { err = w.setup(t) }) })
	if err != nil {
		return it, err
	}
	runtime.GC()
	it.run = phase(func() { t.do("run", func() { it.res, err = w.run(t) }) })
	if err != nil {
		return it, err
	}
	t.end(top)
	leaked := settleGoroutines(b.base)
	b.base += leaked // count each leaked goroutine once
	b.account(it.res, leaked)
	return it, nil
}

func (b *bench) account(res *runResult, leaked int) {
	b.attempted += res.ops
	b.failed += res.failed + leaked
	b.leaked += leaked
	if leaked > 0 {
		fmt.Fprintf(os.Stderr, "%s: %d goroutines outlived Shutdown\n", b.name, leaked)
	}
	if b.ref == nil {
		b.ref = res.out
		return
	}
	if diff := diffOutputs(b.ref, res.out); len(diff) > 0 {
		b.failed += res.ops
		fmt.Fprintf(os.Stderr, "%s seed %d: outputs differ from the reference in %s\n",
			b.name, b.seed, strings.Join(diff, ", "))
	}
}

// diffOutputs lists the keys whose values differ or that only one side has.
func diffOutputs(want, got outputs) []string {
	var diff []string
	for k, v := range want {
		if g, ok := got[k]; !ok || g != v {
			diff = append(diff, k)
		}
	}
	for k := range got {
		if _, ok := want[k]; !ok {
			diff = append(diff, k)
		}
	}
	sort.Strings(diff)
	return diff
}

// loop runs iterations until d has passed, and at least two, so that
// even a run with no warm-up repeats the workload after its reference.
func (b *bench) loop(w workload, t *tracer, d time.Duration) ([]iteration, error) {
	var out []iteration
	start := time.Now()
	for len(out) < 2 || time.Since(start) < d {
		it, err := b.iterate(w, t)
		if err != nil {
			return nil, err
		}
		out = append(out, it)
	}
	return out, nil
}

// warm runs one iteration outside the measured phase, so lazy
// initialization and heap growth are not timed; its outputs are checked.
func (b *bench) warm(w workload) error {
	_, err := b.iterate(w, nil)
	return err
}

func (b *bench) untraced() (*result, error) {
	w, err := b.start()
	if err != nil {
		return nil, err
	}
	if err := b.warm(w); err != nil {
		return nil, err
	}
	iters, err := b.loop(w, nil, b.seconds)
	if err != nil {
		return nil, err
	}
	m := endToEndMetrics(iters)
	fmt.Fprintf(os.Stderr, "%s seed %d: %d iterations\n", b.name, b.seed, len(iters))
	return b.result(m, endToEnd), nil
}

func (b *bench) result(m metricValues, reg []metric) *result {
	res := &result{Correct: b.failed == 0, Attempted: b.attempted, Failed: b.failed,
		Metrics: map[string]metricValue{}}
	for _, d := range reg {
		res.Metrics[d.name] = metricValue{Value: m[d.name], Unit: d.unit}
		fmt.Fprintf(os.Stderr, "  %-30s %14.6g %s\n", d.name, m[d.name], d.unit)
	}
	return res
}

func medianOf(iters []iteration, f func(iteration) float64) float64 {
	return quantileOf(iters, 0.5, f)
}

func quantileOf(iters []iteration, q float64, f func(iteration) float64) float64 {
	xs := make([]float64, len(iters))
	for i, it := range iters {
		xs[i] = f(it)
	}
	return quantile(xs, q)
}

// endToEndMetrics reports each per-iteration number by its upper
// quartile over the run's iterations. On a shared host the CPU runs in
// two speed modes, and episodes of the faster one, seconds long, cover
// anywhere from none to half of a run's iterations; the median follows
// them, while the upper quartile stays in the dominant mode.
func endToEndMetrics(iters []iteration) metricValues {
	upper := func(f func(iteration) float64) float64 { return quantileOf(iters, 0.75, f) }
	return metricValues{
		"setup_s":     upper(func(it iteration) float64 { return it.setup.cpu.Seconds() }),
		"cpu_s":       upper(func(it iteration) float64 { return it.run.cpu.Seconds() }),
		"alloc_mb":    upper(func(it iteration) float64 { return float64(it.run.allocBytes) / 1e6 }),
		"peak_rss_mb": peakRSSMB(),
		// A rate is better when higher, so its quartile is the lower one.
		"jobs_per_cpu_s": quantileOf(iters, 0.25, func(it iteration) float64 {
			return float64(it.res.jobs) / it.run.cpu.Seconds()
		}),
		"sim_mcycles_per_cpu_s": quantileOf(iters, 0.25, func(it iteration) float64 {
			return float64(it.res.cycles) / 1e6 / it.run.cpu.Seconds()
		}),
	}
}

// traced is the per-layer pass: half the time untraced, half with spans
// around every call the benchmark makes into a layer, then the direct
// per-op rows. It writes the spans and rows out at the end.
func (b *bench) traced() (*result, error) {
	w, err := b.start()
	if err != nil {
		return nil, err
	}
	if err := b.warm(w); err != nil {
		return nil, err
	}
	plain, err := b.loop(w, nil, b.seconds/2)
	if err != nil {
		return nil, err
	}
	tr := newTracer()
	traced, err := b.loop(w, tr, b.seconds/2)
	if err != nil {
		return nil, err
	}
	c := traced[len(traced)-1].res.counts
	if c == nil {
		c = metricValues{}
	}
	rows, construction, err := perOps(b.name, w, b.seed, c)
	if err != nil {
		return nil, err
	}
	if b.name == "io_traced" {
		if err := b.armedOverhead(plain, c); err != nil {
			return nil, err
		}
	}
	if _, ok := w.(*drainWorkload); ok {
		// The drains run two workers; with a second P they can overlap.
		prev := runtime.GOMAXPROCS(2)
		two, err := b.loop(w, nil, b.seconds/4)
		runtime.GOMAXPROCS(prev)
		if err != nil {
			return nil, err
		}
		c["ctrlsys.drain_2p_s"] = medianOf(two, func(it iteration) float64 { return it.res.simWall.Seconds() })
	}
	b.layerMetrics(plain, traced, tr, construction, c)

	rep := traceReport{Workload: b.name, Seed: b.seed, PerOp: rows, Metrics: c}
	path := fmt.Sprintf("%s/trace-%s-seed%d.json", traceDir, b.name, b.seed)
	if err := writeTraceReport(path, rep, tr); err != nil {
		return nil, err
	}
	fmt.Fprintf(os.Stderr, "%s seed %d: %d untraced + %d traced iterations; spans and per-op rows in %s\n",
		b.name, b.seed, len(plain), len(traced), path)
	for _, r := range rows {
		fmt.Fprintf(os.Stderr, "  %-22s %-22s %12.0f ns/op %10.0f allocs/op %12.0f B/op\n",
			r.Name, r.Arg, r.Ns, r.Allocs, r.Bytes)
	}
	return b.result(c, perLayer), nil
}

// armedOverhead reruns io_traced with observation off and reports the
// armed run phase minus the unarmed one. The unarmed outputs must equal
// the armed ones, less the trace counts: arming observation changes no
// simulated result.
func (b *bench) armedOverhead(armed []iteration, c metricValues) error {
	u := &bench{name: b.name, seed: b.seed, base: b.base, ref: outputs{}}
	for k, v := range b.ref {
		switch {
		case strings.HasSuffix(k, ".spans"), strings.HasSuffix(k, ".samples"):
		case strings.HasSuffix(k, ".tracepoints"):
			u.ref[k] = "0"
		default:
			u.ref[k] = v
		}
	}
	unarmed, err := u.loop(&ioWorkload{seed: b.seed}, nil, b.seconds/4)
	b.base = u.base
	b.attempted += u.attempted
	b.failed += u.failed
	b.leaked += u.leaked
	if err != nil {
		return err
	}
	cpu := func(it iteration) float64 { return it.run.cpu.Seconds() }
	c["obs.armed_overhead_s"] = medianOf(armed, cpu) - medianOf(unarmed, cpu)
	return nil
}

// layerMetrics derives the per-layer metrics that come from the timed
// iterations. construction is the host ns a drain iteration spends
// building partitions, from the direct rows (0 for the other workloads).
func (b *bench) layerMetrics(plain, traced []iteration, tr *tracer, construction float64, c metricValues) {
	last := plain[len(plain)-1].res
	c["sim.events"] = float64(last.events)
	if last.events > 0 {
		c["sim.ns_per_event"] = medianOf(plain, func(it iteration) float64 {
			return float64(it.res.simWall.Nanoseconds()) / float64(it.res.events)
		})
	}
	c["go.sched_wakeups"] = medianOf(plain, func(it iteration) float64 { return float64(it.run.schedWakeups) })
	c["go.gc_cycles"] = medianOf(plain, func(it iteration) float64 { return float64(it.run.gcCycles) })
	c["go.gc_cpu_s"] = medianOf(plain, func(it iteration) float64 { return it.run.gcCPU })
	c["go.goroutines_leaked"] = float64(b.leaked)

	runWall := medianOf(plain, func(it iteration) float64 { return it.run.wall.Seconds() })
	runCPU := medianOf(plain, func(it iteration) float64 { return it.run.cpu.Seconds() })
	setupCPU := medianOf(plain, func(it iteration) float64 { return it.setup.cpu.Seconds() })
	c["run_s"] = runWall
	c["jobs_per_s"] = medianOf(plain, func(it iteration) float64 { return float64(it.res.jobs) / it.run.wall.Seconds() })
	c["sim_mcycles_per_s"] = medianOf(plain, func(it iteration) float64 {
		return float64(it.res.cycles) / 1e6 / it.run.wall.Seconds()
	})
	if construction > 0 {
		// Drains build their machines inside Drain: estimate the share
		// from the direct rows, scaled by boots per job (restarts boot
		// again).
		if jobs := c["ctrlsys.jobs"]; jobs > 0 {
			construction *= (jobs + c["ctrlsys.restarts"]) / jobs
		}
		c["machine.construction_share"] = construction / 1e9 / runCPU
		c["ctrlsys.drain_s"] = medianOf(plain, func(it iteration) float64 { return it.res.simWall.Seconds() })
		c["ctrlsys.simulate_s"] = medianOf(plain, func(it iteration) float64 { return it.res.drainSim.Seconds() })
		c["ctrlsys.serial_s"] = medianOf(plain, func(it iteration) float64 {
			return (it.res.simWall - it.res.drainSim).Seconds()
		})
	} else {
		c["machine.construction_share"] = setupCPU / (setupCPU + runCPU)
	}

	if b.attempted > 0 {
		c["error_rate"] = float64(b.failed) / float64(b.attempted)
	}
	c["trace.overhead_s"] = medianOf(traced, func(it iteration) float64 { return it.run.cpu.Seconds() }) - runCPU
	c["trace.spans"] = float64(len(tr.spans)) / float64(len(traced))
	totals := tr.totals()
	for metric, names := range selfSpans {
		sum := 0.0
		for _, n := range names {
			if st := totals[n]; st != nil {
				sum += st.Self
			}
		}
		c[metric] = sum / float64(len(traced))
	}
	for _, d := range perLayer {
		if v, ok := c[d.name]; !ok || math.IsNaN(v) || math.IsInf(v, 0) {
			c[d.name] = 0
		}
	}
}

// record runs the default seed twice and writes its outputs into path,
// keeping the other workloads' entries.
func (b *bench) record(path string) error {
	w, err := newWorkload(b.name, b.seed)
	if err != nil {
		return err
	}
	b.base = runtime.NumGoroutine()
	if _, err := b.loop(w, nil, 0); err != nil {
		return err
	}
	if b.failed > 0 {
		return fmt.Errorf("%s: %d of %d operations failed; not recording", b.name, b.failed, b.attempted)
	}
	all := map[string]outputs{}
	if blob, err := os.ReadFile(path); err == nil {
		if err := json.Unmarshal(blob, &all); err != nil {
			return fmt.Errorf("%s: %v", path, err)
		}
	}
	all[b.name] = b.ref
	blob, err := json.MarshalIndent(all, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(blob, '\n'), 0o644)
}

func printDescription() {
	fmt.Println("workloads:")
	for _, w := range workloadInfo {
		fmt.Printf("  %-16s %s\n", w.name, w.why)
	}
	fmt.Println("end-to-end (--trace 0):")
	for _, m := range endToEnd {
		fmt.Printf("  %-30s %-10s bound %.2f  %s\n", m.name, m.unit, m.bound, m.about)
	}
	fmt.Println("per-layer (--trace 1), with the end-to-end metric each should move:")
	for _, m := range perLayer {
		fmt.Printf("  %-30s %-8s -> %s\n", m.name, m.unit, m.about)
	}
}
