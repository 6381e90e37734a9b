package upc

import (
	"fmt"
	"sort"
	"strings"
)

// Snapshot is a point-in-time copy of a Set. It is a plain comparable
// value: snapshot equality (==) proves counter-identical runs, and
// Delta(a, b) turns two snapshots bracketing a region of interest into the
// counts charged inside it.
type Snapshot struct {
	Vals [NumSlots][NumCounters]uint64
	Sys  [NumSlots][MaxSyscalls]uint64
}

// Delta returns after-before, counter by counter. Counters are
// monotonically increasing between resets, so a delta over a bracketed
// region is exact attribution, not inference.
func Delta(before, after Snapshot) Snapshot {
	var d Snapshot
	for sl := 0; sl < NumSlots; sl++ {
		for c := 0; c < int(NumCounters); c++ {
			d.Vals[sl][c] = after.Vals[sl][c] - before.Vals[sl][c]
		}
		for n := 0; n < MaxSyscalls; n++ {
			d.Sys[sl][n] = after.Sys[sl][n] - before.Sys[sl][n]
		}
	}
	return d
}

// Merge sums snapshots element-wise (e.g. across the chips of a machine).
func Merge(snaps ...Snapshot) Snapshot {
	var m Snapshot
	for i := range snaps {
		m.Add(&snaps[i])
	}
	return m
}

// Add sums o into s element-wise.
func (s *Snapshot) Add(o *Snapshot) { s.add(&o.Vals, &o.Sys) }

// AddSet sums the live counters of set into s element-wise, without
// taking a snapshot of set first.
func (s *Snapshot) AddSet(set *Set) { s.add(&set.vals, &set.sys) }

func (s *Snapshot) add(vals *[NumSlots][NumCounters]uint64, sys *[NumSlots][MaxSyscalls]uint64) {
	for sl := range vals {
		for c := range vals[sl] {
			s.Vals[sl][c] += vals[sl][c]
		}
		for n := range sys[sl] {
			s.Sys[sl][n] += sys[sl][n]
		}
	}
}

// Core reads counter c for one core (ChipScope for the chip slot).
func (s Snapshot) Core(core int, c Counter) uint64 { return s.Vals[slot(core)][c] }

// Chip reads the chip-scoped slot of counter c.
func (s Snapshot) Chip(c Counter) uint64 { return s.Vals[MaxCores][c] }

// Total sums counter c over every slot.
func (s Snapshot) Total(c Counter) uint64 {
	var t uint64
	for sl := 0; sl < NumSlots; sl++ {
		t += s.Vals[sl][c]
	}
	return t
}

// SyscallCount sums the per-number count for syscall num over every slot.
func (s Snapshot) SyscallCount(num int) uint64 {
	if num < 0 || num >= MaxSyscalls {
		return 0
	}
	var t uint64
	for sl := 0; sl < NumSlots; sl++ {
		t += s.Sys[sl][num]
	}
	return t
}

// TLBRefills sums the per-page-size refill counters over every slot.
func (s Snapshot) TLBRefills() uint64 {
	var t uint64
	for _, c := range RefillCounters {
		t += s.Total(c)
	}
	return t
}

// IsZero reports whether every counter in the snapshot is zero.
func (s Snapshot) IsZero() bool { return s == Snapshot{} }

// Text renders the non-zero counters as an aligned table: one row per
// counter with per-core columns and a total. Intended for -counters CLI
// output and experiment reports.
func (s Snapshot) Text() string {
	var b strings.Builder
	fmt.Fprintf(&b, "%-16s %12s %12s %12s %12s %12s %14s\n",
		"counter", "core0", "core1", "core2", "core3", "chip", "total")
	for c := Counter(0); c < NumCounters; c++ {
		if s.Total(c) == 0 {
			continue
		}
		fmt.Fprintf(&b, "%-16s", c.String())
		for sl := 0; sl < NumSlots; sl++ {
			fmt.Fprintf(&b, " %12d", s.Vals[sl][c])
		}
		fmt.Fprintf(&b, " %14d\n", s.Total(c))
	}
	if names := s.syscallLines(); len(names) > 0 {
		fmt.Fprintf(&b, "syscalls by number:\n")
		for _, l := range names {
			b.WriteString(l)
			b.WriteByte('\n')
		}
	}
	return b.String()
}

// SyscallNamer translates a syscall number to a name for rendering. The
// kernel package registers itself here at init; upc cannot import it
// (import order: upc < hw < kernel).
var SyscallNamer = func(num int) string { return fmt.Sprintf("sys%d", num) }

func (s Snapshot) syscallLines() []string {
	var out []string
	for n := 0; n < MaxSyscalls; n++ {
		if c := s.SyscallCount(n); c > 0 {
			out = append(out, fmt.Sprintf("  %-18s %12d", SyscallNamer(n), c))
		}
	}
	return out
}

// JSON renders the non-zero counters as a deterministic JSON object:
// {"counters":{name:{"core0":..,"chip":..,"total":..}},"syscalls":{name:n}}.
// Keys are emitted in fixed order so two equal snapshots render
// byte-identically (goldens diff cleanly).
func (s Snapshot) JSON() string {
	var b strings.Builder
	b.WriteString(`{"counters":{`)
	first := true
	for c := Counter(0); c < NumCounters; c++ {
		if s.Total(c) == 0 {
			continue
		}
		if !first {
			b.WriteByte(',')
		}
		first = false
		fmt.Fprintf(&b, "%q:{", c.String())
		for sl := 0; sl < NumSlots; sl++ {
			if sl > 0 {
				b.WriteByte(',')
			}
			key := fmt.Sprintf("core%d", sl)
			if sl == MaxCores {
				key = "chip"
			}
			fmt.Fprintf(&b, "%q:%d", key, s.Vals[sl][c])
		}
		fmt.Fprintf(&b, ",\"total\":%d}", s.Total(c))
	}
	b.WriteString(`},"syscalls":{`)
	type kv struct {
		name string
		n    uint64
	}
	var sys []kv
	for n := 0; n < MaxSyscalls; n++ {
		if c := s.SyscallCount(n); c > 0 {
			sys = append(sys, kv{SyscallNamer(n), c})
		}
	}
	sort.Slice(sys, func(i, j int) bool { return sys[i].name < sys[j].name })
	for i, e := range sys {
		if i > 0 {
			b.WriteByte(',')
		}
		fmt.Fprintf(&b, "%q:%d", e.name, e.n)
	}
	b.WriteString("}}")
	return b.String()
}
