package main

import (
	"runtime"
	"runtime/metrics"
	"sort"
	"syscall"
	"time"
)

// hostSnap is one reading of the host-side cost counters. Every field is
// cumulative, so the cost of a phase is the difference of two readings
// taken around it.
type hostSnap struct {
	wall         time.Time
	cpu          time.Duration // user+sys of the whole process
	allocBytes   uint64
	gcCycles     uint64
	gcCPU        float64 // seconds
	schedWakeups uint64  // sample count of /sched/latencies
}

// hostCost is the difference of two hostSnaps.
type hostCost struct {
	wall         time.Duration
	cpu          time.Duration
	allocBytes   uint64
	gcCycles     uint64
	gcCPU        float64
	schedWakeups uint64
}

var runtimeSamples = []metrics.Sample{
	{Name: "/gc/cycles/total:gc-cycles"},
	{Name: "/cpu/classes/gc/total:cpu-seconds"},
	{Name: "/sched/latencies:seconds"},
}

func processCPU() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// peakRSSMB is the process's peak resident set size in MB.
func peakRSSMB() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return float64(ru.Maxrss) * 1024 / 1e6 // Linux reports KiB
}

// readHost takes a reading. runtime.ReadMemStats flushes every P's
// allocation cache, so the allocation counts are exact; it stops the
// world briefly, so a reading that opens a phase reads the clocks last
// and one that closes a phase reads them first, leaving the reading's
// own cost outside the phase.
func readHost(closing bool) hostSnap {
	var s hostSnap
	if closing {
		s.wall, s.cpu = time.Now(), processCPU()
	}
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	metrics.Read(runtimeSamples)
	s.allocBytes = ms.TotalAlloc
	s.gcCycles = runtimeSamples[0].Value.Uint64()
	s.gcCPU = runtimeSamples[1].Value.Float64()
	for _, c := range runtimeSamples[2].Value.Float64Histogram().Counts {
		s.schedWakeups += c
	}
	if !closing {
		s.cpu, s.wall = processCPU(), time.Now()
	}
	return s
}

// phase measures the host cost of fn.
func phase(fn func()) hostCost {
	s0 := readHost(false)
	fn()
	return readHost(true).since(s0)
}

func (a hostSnap) since(b hostSnap) hostCost {
	return hostCost{
		wall:         a.wall.Sub(b.wall),
		cpu:          a.cpu - b.cpu,
		allocBytes:   a.allocBytes - b.allocBytes,
		gcCycles:     a.gcCycles - b.gcCycles,
		gcCPU:        a.gcCPU - b.gcCPU,
		schedWakeups: a.schedWakeups - b.schedWakeups,
	}
}

// settleGoroutines waits for goroutines that are already unwinding (a
// killed coroutine's goroutine, a finished replica worker) to exit, and
// returns how many live goroutines remain above base.
func settleGoroutines(base int) int {
	deadline := time.Now().Add(2 * time.Second)
	for {
		n := runtime.NumGoroutine()
		if n <= base {
			return 0
		}
		if time.Now().After(deadline) {
			return n - base
		}
		time.Sleep(time.Millisecond)
	}
}

// quantile is the q-quantile of xs, interpolating between neighbours.
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	pos := q * float64(len(s)-1)
	i := int(pos)
	if i+1 >= len(s) {
		return s[i]
	}
	return s[i] + (pos-float64(i))*(s[i+1]-s[i])
}
