package ctrlsys

import (
	"reflect"
	"sort"
	"testing"

	"bgcnk/internal/sim"
)

// refScheduleFIFOBackfill is the scheduler every checkpoint-off drain used
// before ScheduleResilient took over all of them, kept test-only as the
// reference the differential below holds ScheduleResilient to. It replays the job queue against the topology's
// midplane map: strict FIFO with EASY backfill (a later job may jump the
// queue iff a contiguous block is free now and it finishes before the
// queue head's reservation, so the head is never delayed). dur gives each
// job's partition occupancy (boot + run + teardown). Everything ties on
// (time, job ID), so the schedule is a pure function of its inputs.
func refScheduleFIFOBackfill(topo Topology, jobs []Job, dur func(jobID int) sim.Cycles) Schedule {
	type running struct {
		jobID int
		base  int
		span  int
		end   sim.Cycles
	}
	total := topo.Midplanes()
	free := make([]bool, total)
	for i := range free {
		free[i] = true
	}
	firstFit := func(fr []bool, span int) (int, bool) {
		run := 0
		for i, ok := range fr {
			if !ok {
				run = 0
				continue
			}
			run++
			if run == span {
				return i - span + 1, true
			}
		}
		return 0, false
	}

	sched := Schedule{Placements: make([]Placement, len(jobs))}
	pending := make([]Job, len(jobs))
	copy(pending, jobs)
	for i := range pending {
		// An oversized request is trimmed to the full machine rather than
		// wedging the queue head forever.
		if pending[i].Midplanes > total {
			pending[i].Midplanes = total
		}
		if pending[i].Midplanes <= 0 {
			pending[i].Midplanes = 1
		}
	}
	var live []running
	now := sim.Cycles(0)
	var busyCycles sim.Cycles

	place := func(job Job, base int, backfilled bool) {
		d := dur(job.ID)
		sched.Placements[job.ID] = Placement{
			JobID: job.ID, Base: base, Midplanes: job.Midplanes,
			Start: now, End: now + d, Backfilled: backfilled,
		}
		for i := base; i < base+job.Midplanes; i++ {
			free[i] = false
		}
		live = append(live, running{jobID: job.ID, base: base, span: job.Midplanes, end: now + d})
		busyCycles += d * sim.Cycles(job.Midplanes)
		if backfilled {
			sched.Backfilled++
		}
		if now+d > sched.Makespan {
			sched.Makespan = now + d
		}
	}

	for len(pending) > 0 {
		// Start queue heads while they fit.
		started := true
		for started && len(pending) > 0 {
			started = false
			if base, ok := firstFit(free, pending[0].Midplanes); ok {
				place(pending[0], base, false)
				pending = pending[1:]
				started = true
			}
		}
		if len(pending) == 0 {
			break
		}
		// Head is blocked: compute its reservation (the shadow time) by
		// replaying future frees in (end, job ID) order.
		shadowFree := make([]bool, total)
		copy(shadowFree, free)
		ordered := make([]running, len(live))
		copy(ordered, live)
		sort.Slice(ordered, func(i, j int) bool {
			if ordered[i].end != ordered[j].end {
				return ordered[i].end < ordered[j].end
			}
			return ordered[i].jobID < ordered[j].jobID
		})
		shadow := sim.Forever
		for _, r := range ordered {
			for i := r.base; i < r.base+r.span; i++ {
				shadowFree[i] = true
			}
			if _, ok := firstFit(shadowFree, pending[0].Midplanes); ok {
				shadow = r.end
				break
			}
		}
		// EASY backfill: any later job that fits now and drains before
		// the shadow time cannot delay the head (its block is free again
		// by the head's reservation).
		for i := 1; i < len(pending); i++ {
			job := pending[i]
			if now+dur(job.ID) > shadow {
				continue
			}
			if base, ok := firstFit(free, job.Midplanes); ok {
				place(job, base, true)
				pending = append(pending[:i], pending[i+1:]...)
				i--
			}
		}
		// Advance to the earliest completion and free its block (all
		// blocks completing at that instant, in job-ID order).
		earliest := sim.Forever
		for _, r := range live {
			if r.end < earliest {
				earliest = r.end
			}
		}
		now = earliest
		next := live[:0]
		for _, r := range live {
			if r.end <= now {
				for i := r.base; i < r.base+r.span; i++ {
					free[i] = true
				}
				continue
			}
			next = append(next, r)
		}
		live = next
	}
	if sched.Makespan > 0 {
		sched.Utilization = float64(busyCycles) / (float64(sched.Makespan) * float64(total))
	}
	return sched
}

// durationResults builds the results ScheduleResilient consumes from
// plain per-job occupancies: a single completed attempt each, occupying
// its block for durs[id].
func durationResults(jobs []Job, durs []sim.Cycles) []*JobResult {
	out := make([]*JobResult, len(jobs))
	for i, j := range jobs {
		out[i] = &JobResult{Job: j, Run: durs[i]}
	}
	return out
}

// TestScheduleResilientMatchesFIFOBackfill is the proof that deleting the
// separate checkpoint-off scheduler changed no schedule: over seeded
// queues on seeded topologies — zero durations, tied durations,
// zero-midplane and oversized requests included — ScheduleResilient on
// results with no failed attempts equals the reference FIFO + EASY
// backfill field for field.
func TestScheduleResilientMatchesFIFOBackfill(t *testing.T) {
	const queues = 3000
	for q := 0; q < queues; q++ {
		rng := sim.NewRNG(0x5c4ed).Fork(uint64(q))
		topo := Topology{Racks: 1 + rng.Intn(3), MidplanesPerRack: 1 + rng.Intn(4), NodesPerMidplane: 4}
		total := topo.Midplanes()
		jobs := make([]Job, rng.Intn(14))
		durs := make([]sim.Cycles, len(jobs))
		for i := range jobs {
			// -1 and 0 exercise the one-midplane floor, total+1 the trim.
			jobs[i] = Job{ID: i, Midplanes: rng.Intn(total+3) - 1}
			switch rng.Intn(4) {
			case 0:
				durs[i] = 0
			case 1:
				durs[i] = sim.Cycles(100 * (1 + rng.Intn(3))) // ties
			default:
				durs[i] = 1 + rng.Cycles(1000)
			}
		}
		want := refScheduleFIFOBackfill(topo, jobs, func(id int) sim.Cycles {
			if durs[id] == 0 {
				return 1
			}
			return durs[id]
		})
		got := ScheduleResilient(topo, jobs, durationResults(jobs, durs), CkptConfig{}.normalized())
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("queue %d on %+v, jobs %+v, durations %v:\nScheduleResilient %+v\nreference         %+v",
				q, topo, jobs, durs, got, want)
		}
	}
}
