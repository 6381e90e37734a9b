package main

// metricValues maps a metric name to its value.
type metricValues map[string]float64

// metric describes one reported number. about says what an end-to-end
// metric measures, or which end-to-end metric and workload a change to a
// per-layer metric's layer should move.
type metric struct {
	name   string
	unit   string
	better string
	bound  float64 // end-to-end only: allowed worsening, as a share of the median
	about  string
}

// endToEnd are the numbers a user of the simulator sees; every one is
// reported for every workload by an untraced run. Times are CPU time of
// a process held to one P, the way the engine runs: on a shared host,
// hypervisor steal moves wall time by up to 2x between identical runs,
// and CPU time excludes steal. Wall time is reported per layer.
var endToEnd = []metric{
	{name: "setup_s", unit: "s", better: "lower", bound: 0.25,
		about: "CPU time to build one iteration's inputs and machines, before the timed phase (upper quartile over iterations)"},
	{name: "cpu_s", unit: "s", better: "lower", bound: 0.25,
		about: "user+sys CPU of one iteration's timed phase, GC included (upper quartile over iterations)"},
	{name: "jobs_per_cpu_s", unit: "1/s", better: "higher", bound: 0.25,
		about: "host jobs per CPU second: drained jobs for the drains, machine runs for simulate and io_traced (lower quartile)"},
	{name: "sim_mcycles_per_cpu_s", unit: "Mcycles/s", better: "higher", bound: 0.25,
		about: "simulated megacycles per CPU second of the timed phase (lower quartile)"},
	{name: "alloc_mb", unit: "MB", better: "lower", bound: 0.05,
		about: "heap bytes allocated in one timed phase (upper quartile; it repeats to 0.01%)"},
	{name: "peak_rss_mb", unit: "MB", better: "lower", bound: 0.25,
		about: "peak resident memory of the benchmark process; a run's maximum, so a GC that lags once moves it"},
}

// perLayer are reported by the traced run (--trace 1). Times come from
// direct per-op calls or from spans around the benchmark's own calls;
// counts come from the workload's outputs and are zero for layers the
// workload does not reach.
var perLayer = []metric{
	{name: "hw.new_chip_us", unit: "us", better: "lower", about: "drain.jobs_per_cpu_s, drain.alloc_mb; setup_s elsewhere"},
	{name: "hw.new_chip_allocs", unit: "count", better: "lower", about: "drain.jobs_per_cpu_s, drain.alloc_mb; setup_s elsewhere"},
	{name: "hw.new_chip_kb", unit: "KB", better: "lower", about: "drain.alloc_mb; setup_s elsewhere"},
	{name: "hw.chips_built", unit: "count", better: "lower", about: "denominator for the hw rows"},

	{name: "machine.new_ms", unit: "ms", better: "lower", about: "drain.jobs_per_cpu_s; setup_s elsewhere"},
	{name: "machine.new_allocs", unit: "count", better: "lower", about: "drain.alloc_mb; setup_s elsewhere"},
	{name: "machine.new_kb", unit: "KB", better: "lower", about: "drain.alloc_mb; setup_s elsewhere"},
	{name: "machine.launch_ms", unit: "ms", better: "lower", about: "cpu_s"},
	{name: "machine.shutdown_ms", unit: "ms", better: "lower", about: "cpu_s"},
	{name: "machine.construction_share", unit: "ratio", better: "lower", about: "drain.jobs_per_cpu_s (largest share there); under 0.05 in simulate"},

	{name: "cnk.boot_us", unit: "us", better: "lower", about: "drain.jobs_per_cpu_s"},
	{name: "cnk.boot_allocs", unit: "count", better: "lower", about: "drain.alloc_mb"},
	{name: "cnk.boot_kb", unit: "KB", better: "lower", about: "drain.alloc_mb"},
	{name: "fwk.boot_us", unit: "us", better: "lower", about: "drain.jobs_per_cpu_s"},
	{name: "fwk.boot_allocs", unit: "count", better: "lower", about: "drain.alloc_mb"},
	{name: "fwk.boot_kb", unit: "KB", better: "lower", about: "drain.alloc_mb"},
	{name: "ctrlsys.simulate_boot_us", unit: "us", better: "lower", about: "drain.jobs_per_cpu_s"},
	{name: "ctrlsys.simulate_boot_allocs", unit: "count", better: "lower", about: "drain.alloc_mb"},
	{name: "ctrlsys.simulate_boot_kb", unit: "KB", better: "lower", about: "drain.alloc_mb"},

	{name: "sim.events", unit: "count", better: "lower", about: "denominator for simulate.sim_mcycles_per_cpu_s"},
	{name: "sim.ns_per_event", unit: "ns", better: "lower", about: "simulate.sim_mcycles_per_cpu_s"},
	{name: "sim.step_ns", unit: "ns", better: "lower", about: "simulate.sim_mcycles_per_cpu_s"},
	{name: "sim.step_allocs", unit: "count", better: "lower", about: "simulate.alloc_mb"},
	{name: "sim.step_b", unit: "B", better: "lower", about: "simulate.alloc_mb"},
	{name: "sim.coro_switch_ns", unit: "ns", better: "lower", about: "simulate.sim_mcycles_per_cpu_s"},
	{name: "sim.coro_switch_allocs", unit: "count", better: "lower", about: "simulate.alloc_mb"},
	{name: "sim.coro_switch_b", unit: "B", better: "lower", about: "simulate.alloc_mb"},

	{name: "go.sched_wakeups", unit: "count", better: "lower", about: "simulate.cpu_s"},
	{name: "go.gc_cycles", unit: "count", better: "lower", about: "drain.cpu_s"},
	{name: "go.gc_cpu_s", unit: "s", better: "lower", about: "drain.cpu_s"},
	{name: "go.goroutines_leaked", unit: "count", better: "lower", about: "error_rate"},

	{name: "ctrlsys.drain_s", unit: "s", better: "lower", about: "drain.cpu_s, drain_resilient.cpu_s"},
	{name: "ctrlsys.simulate_s", unit: "s", better: "lower", about: "drain.cpu_s, drain_resilient.cpu_s"},
	{name: "ctrlsys.serial_s", unit: "s", better: "lower", about: "drain_resilient.jobs_per_cpu_s (caps the 2-worker speedup)"},
	{name: "ctrlsys.jobs", unit: "count", better: "higher", about: "denominator for jobs_per_cpu_s"},
	{name: "ctrlsys.restarts", unit: "count", better: "lower", about: "drain_resilient.jobs_per_cpu_s"},
	{name: "ctrlsys.failures", unit: "count", better: "lower", about: "error_rate"},
	{name: "ctrlsys.backfilled", unit: "count", better: "higher", about: "simulated schedule; must not move"},
	{name: "ctrlsys.useful_ratio", unit: "ratio", better: "higher", about: "drain_resilient.jobs_per_cpu_s"},
	{name: "ctrlsys.wasted_mcycles", unit: "Mcycles", better: "lower", about: "drain_resilient.sim_mcycles_per_cpu_s"},

	{name: "wal.records", unit: "count", better: "lower", about: "drain_resilient.jobs_per_cpu_s"},
	{name: "wal.bytes", unit: "B", better: "lower", about: "drain_resilient.alloc_mb"},
	{name: "wal.segments", unit: "count", better: "lower", about: "drain_resilient.jobs_per_cpu_s"},
	{name: "ctrlsys.crashes", unit: "count", better: "lower", about: "drain_resilient.cpu_s"},
	{name: "ctrlsys.recoveries", unit: "count", better: "lower", about: "drain_resilient.cpu_s"},
	{name: "ctrlsys.records_replayed", unit: "count", better: "lower", about: "drain_resilient.cpu_s"},
	{name: "ras.events", unit: "count", better: "lower", about: "drain_resilient.cpu_s"},

	{name: "ciod.calls", unit: "count", better: "lower", about: "io_traced.sim_mcycles_per_cpu_s"},
	{name: "ciod.proxies", unit: "count", better: "lower", about: "io_traced.sim_mcycles_per_cpu_s"},
	{name: "ion.admitted", unit: "count", better: "lower", about: "io_traced.sim_mcycles_per_cpu_s"},
	{name: "ion.coalesced", unit: "count", better: "higher", about: "io_traced.sim_mcycles_per_cpu_s"},
	{name: "ion.cache_hit_ratio", unit: "ratio", better: "higher", about: "io_traced.sim_mcycles_per_cpu_s"},
	{name: "ion.writebacks", unit: "count", better: "lower", about: "io_traced.sim_mcycles_per_cpu_s"},
	{name: "ion.max_depth", unit: "count", better: "lower", about: "io_traced.sim_mcycles_per_cpu_s"},
	{name: "upc.ion_stall_cycles", unit: "cycles", better: "lower", about: "io_traced.sim_mcycles_per_cpu_s"},

	{name: "obs.spans", unit: "count", better: "lower", about: "io_traced.cpu_s"},
	{name: "obs.samples", unit: "count", better: "lower", about: "io_traced.cpu_s"},
	{name: "upc.tracepoints", unit: "count", better: "lower", about: "io_traced.cpu_s"},
	{name: "obs.json_mb", unit: "MB", better: "lower", about: "io_traced.cpu_s, io_traced.alloc_mb"},
	{name: "obs.bin_mb", unit: "MB", better: "lower", about: "io_traced.cpu_s, io_traced.alloc_mb"},
	{name: "obs.export_json_ms", unit: "ms", better: "lower", about: "io_traced.cpu_s"},
	{name: "obs.export_bin_ms", unit: "ms", better: "lower", about: "io_traced.cpu_s"},
	{name: "obs.export_json_allocs", unit: "count", better: "lower", about: "io_traced.alloc_mb"},
	{name: "obs.export_bin_allocs", unit: "count", better: "lower", about: "io_traced.alloc_mb"},
	{name: "obs.armed_overhead_s", unit: "s", better: "lower", about: "io_traced.cpu_s"},

	{name: "upc.context_switch", unit: "count", better: "lower", about: "simulated work; must never move"},
	{name: "upc.timer_tick", unit: "count", better: "lower", about: "simulated work; must never move"},
	{name: "upc.syscall", unit: "count", better: "lower", about: "simulated work; must never move"},
	{name: "upc.function_ship", unit: "count", better: "lower", about: "simulated work; must never move"},
	{name: "upc.torus_packet", unit: "count", better: "lower", about: "simulated work; must never move"},
	{name: "upc.coll_packet", unit: "count", better: "lower", about: "simulated work; must never move"},

	{name: "run_s", unit: "s", better: "lower", about: "median wall time of one timed phase (steal included)"},
	{name: "jobs_per_s", unit: "1/s", better: "higher", about: "host jobs per wall second"},
	{name: "sim_mcycles_per_s", unit: "Mcycles/s", better: "higher", about: "simulated megacycles per wall second"},
	{name: "ctrlsys.drain_2p_s", unit: "s", better: "lower", about: "drain wall time with two Ps: the 2-worker speedup"},
	{name: "error_rate", unit: "ratio", better: "lower", about: "failed / attempted jobs or ranks; 0 at every seed"},
	{name: "trace.overhead_s", unit: "s", better: "lower", about: "traced run_s minus untraced run_s"},
	{name: "trace.spans", unit: "count", better: "lower", about: "spans recorded per traced iteration"},

	{name: "self.setup_s", unit: "s", better: "lower", about: "setup_s"},
	{name: "self.ctrlsys_drain_s", unit: "s", better: "lower", about: "drain.cpu_s, drain_resilient.cpu_s"},
	{name: "self.machine_new_s", unit: "s", better: "lower", about: "simulate.setup_s, io_traced.setup_s"},
	{name: "self.machine_launch_s", unit: "s", better: "lower", about: "simulate.cpu_s, io_traced.cpu_s"},
	{name: "self.sim_engine_run_s", unit: "s", better: "lower", about: "simulate.cpu_s, io_traced.cpu_s"},
	{name: "self.machine_shutdown_s", unit: "s", better: "lower", about: "simulate.cpu_s, io_traced.cpu_s"},
	{name: "self.obs_export_s", unit: "s", better: "lower", about: "io_traced.cpu_s"},
	{name: "self.check_s", unit: "s", better: "lower", about: "cpu_s (output collection inside the timed phase)"},
}

// selfSpans maps the self.* metrics to the span names they fold.
var selfSpans = map[string][]string{
	"self.setup_s":            {"setup", "ctrlsys.generate_jobs", "ctrlsys.new"},
	"self.ctrlsys_drain_s":    {"ctrlsys.drain"},
	"self.machine_new_s":      {"machine.new"},
	"self.machine_launch_s":   {"machine.launch"},
	"self.sim_engine_run_s":   {"sim.engine_run"},
	"self.machine_shutdown_s": {"machine.shutdown"},
	"self.obs_export_s":       {"obs.export_json", "obs.export_bin"},
	"self.check_s":            {"check"},
}

// workloadInfo is each workload's reason for being in the benchmark.
var workloadInfo = []struct{ name, why string }{
	{"drain", "construction-bound control-system drain (both kernels, 2 workers): machine, chip and boot-probe cost dominate"},
	{"simulate", "engine- and coroutine-bound long single-machine runs, tracing off; bypasses construction"},
	{"io_traced", "the only workload where ciod, ion, fs, obs and upc carry the work: write, fsync, read back, traced and exported"},
	{"drain_resilient", "journaled, checkpointing, fault- and crash-injected drain with the ION armed: wal, ckpt, ras and restarts"},
}
