package ctrlsys

import (
	"errors"
	"fmt"
	"sort"
	"time"

	"bgcnk/internal/ctrlsys/wal"
	"bgcnk/internal/fs"
	"bgcnk/internal/ras"
	"bgcnk/internal/sim"
	"bgcnk/internal/sim/replica"
)

// ErrServiceNodeCrash is the typed face of a service-node death. With
// journaling on it never escapes Drain — the crash-only loop recovers and
// finishes the drain — but with journaling off, Drain surfaces one
// wrapped instance per crash-aborted job in DrainResult.Errs (test with
// errors.Is), alongside the ordinary merged errors. It is also what the
// interactive Allocate/BootPartition paths return when the injector fires
// under them.
var ErrServiceNodeCrash = errors.New("ctrlsys: service node crashed")

// ErrQueueMismatch is returned (wrapped, with the job named) by Drain when
// the presented queue disagrees with a job the journal already holds a
// submit record for under the same ID. Replay would otherwise hand back
// the journaled job's results for a different job.
var ErrQueueMismatch = errors.New("ctrlsys: queue does not match the journaled submissions")

// Control-plane cost model, in simulated cycles on the service node's
// clock: appending one journal record, noticing a dead service node, and
// replaying a journal of a given size. These feed CrashStats and the
// recovery-latency sweep in cmd/resbench; they never touch partition
// simulations, so they cannot perturb job results.
const (
	journalAppendCost = sim.Cycles(2_000)
	crashDetectCost   = sim.Cycles(1_000_000)
	recoverBaseCost   = sim.Cycles(5_000_000)
	recoverPerRecord  = sim.Cycles(2_000)
	recoverPerOrphan  = sim.Cycles(500_000)
)

// CrashStats accounts the crash-only machinery across a drain: every
// injected death, every recovery, and what reconciliation found. All of
// it is deterministic for a given (config, seeds) but excluded from
// DrainResult.Signature — the whole point is that the signature matches
// the crash-free drain while these do not.
type CrashStats struct {
	Crashes    int
	ByClass    [ras.NumCrashClasses]int
	Recoveries int

	RecordsReplayed int
	OrphansKilled   int
	// Resumed counts orphan kills that left a journaled checkpoint to
	// resume from; Requeued counts those restarted from scratch.
	Resumed  int
	Requeued int

	// RecoveryLatency is total modelled service-node downtime across all
	// recoveries (crash detection + replay + reconciliation).
	RecoveryLatency sim.Cycles
}

// JournalStats describes the durable journal at the end of a drain.
type JournalStats struct {
	Records  int
	Bytes    int
	Segments int
	// TornDropped counts torn tail records dropped (and repaired) across
	// all recoveries — one per mid-checkpoint-commit crash.
	TornDropped int
}

// world is the state that survives a service-node death: the control
// store (and the journal on it), the crash injector whose generation
// counts deaths, the control-plane RAS log, and the modelled control
// clock. ServiceNode incarnations come and go; the world persists. Every
// node has one: a nil jn is the no-op journal (records are counted for
// the crash injector's LSNs but never built or stored), and a nil crash
// plan never fires.
type world struct {
	store *fs.FS
	jn    *wal.Journal
	inj   *ras.CrashInjector
	log   *ras.Log
	now   sim.Cycles
	vlsn  uint64 // virtual LSN sequence when journaling is off
	torn  int
	crash CrashStats
	st    *drainState
}

func newWorld(cfg Config) *world {
	w := &world{
		store: fs.New(),
		inj:   ras.NewCrashInjector(cfg.Crashes),
		log:   ras.NewLog(),
		st:    newDrainState(),
	}
	if cfg.Journal.Enabled {
		jc := cfg.Journal.normalized()
		jn, err := wal.Create(w.store, jc.Dir, jc.SegmentBytes)
		if err != nil {
			// Impossible on a freshly created store; fail loudly if the
			// wal package's contract ever changes.
			panic(fmt.Sprintf("ctrlsys: create journal: %v", err))
		}
		w.jn = jn
	}
	return w
}

// Store exposes the service node's control store — the filesystem holding
// the journal — so a successor incarnation can be built over it with
// Recover. Never nil; it holds no journal unless Config.Journal is armed.
func (s *ServiceNode) Store() *fs.FS { return s.w.store }

// ControlLog returns the control-plane RAS log (service crashes and
// recoveries). Never nil; it stays empty unless Config.Crashes is armed.
func (s *ServiceNode) ControlLog() *ras.Log { return s.w.log }

// appendRec is the single gate every scheduler state transition passes
// through: consult the crash injector at the record's LSN, then make the
// record durable. A firing injector decides how much of the record
// survives — nothing (pre-append), all of it (post-append: durable but
// never applied in memory), or a torn prefix (mid-checkpoint-commit) —
// logs the death, and returns ErrServiceNodeCrash. body builds the record
// body (nil for an empty one); it is called only when a journal will
// store the record, since the LSN the injector keys on does not depend
// on it.
func (s *ServiceNode) appendRec(kind uint8, body func() []byte, site ras.CrashSite) error {
	w := s.w
	lsn := w.vlsn + 1
	var b []byte
	if w.jn != nil {
		lsn = w.jn.NextLSN()
		if body != nil {
			b = body()
		}
	}
	if class, died := w.inj.At(lsn, site); died {
		if w.jn != nil {
			switch class {
			case ras.CrashPreAppend:
				// The record never reached the store.
			case ras.CrashMidCkptCommit:
				if err := w.jn.AppendTorn(kind, b); err != nil {
					return err
				}
			default:
				// Post-append flavors: durable, but the incarnation dies
				// before applying it.
				if _, err := w.jn.Append(kind, b); err != nil {
					return err
				}
			}
		}
		w.crash.Crashes++
		w.crash.ByClass[class]++
		w.now += crashDetectCost
		w.log.Append(ras.Event{At: w.now, Node: -1, Comp: "svcnode",
			Class: ras.ServiceCrash, Detail: class.String()})
		return fmt.Errorf("%w at LSN %d (%s)", ErrServiceNodeCrash, lsn, class)
	}
	if w.jn != nil {
		if _, err := w.jn.Append(kind, b); err != nil {
			return err
		}
	} else {
		w.vlsn++
	}
	w.now += journalAppendCost
	return nil
}

// drainState is everything replay reconstructs: which transitions are
// durable for which jobs and partitions.
type drainState struct {
	submitted   map[int]Job
	started     map[int]bool // start record with no completion yet
	completed   map[int]*JobResult
	resume      map[int]*resumePoint
	struck      map[int]map[int]bool // job ID -> attempt index committed
	strikes     map[int]int          // midplane -> strike count
	blacklisted map[int]bool
	allocs      map[int][2]int // real partition ID -> {base, midplanes}
	maxPID      int
	recovering  bool // RecoverBegin seen without a matching RecoverEnd
}

func newDrainState() *drainState {
	return &drainState{
		submitted:   make(map[int]Job),
		started:     make(map[int]bool),
		completed:   make(map[int]*JobResult),
		resume:      make(map[int]*resumePoint),
		struck:      make(map[int]map[int]bool),
		strikes:     make(map[int]int),
		blacklisted: make(map[int]bool),
		allocs:      make(map[int][2]int),
		maxPID:      -1,
	}
}

func (st *drainState) markStruck(job, attempt int) {
	m := st.struck[job]
	if m == nil {
		m = make(map[int]bool)
		st.struck[job] = m
	}
	m[attempt] = true
}

// applyRecord replays one journal record into the state. Replay is
// strict: an undecodable body or unknown kind rejects the journal.
func (st *drainState) applyRecord(r wal.Record) error {
	switch r.Kind {
	case recJobSubmit:
		job, err := unmarshalJob(r.Body)
		if err != nil {
			return err
		}
		st.submitted[job.ID] = job
	case recPartAlloc:
		id, base, mp, err := decodeTriple(r.Body)
		if err != nil {
			return err
		}
		if id >= 0 && base >= 0 {
			st.allocs[id] = [2]int{base, mp}
			if id > st.maxPID {
				st.maxPID = id
			}
		}
	case recPartBoot:
		if _, _, err := decodeBoot(r.Body); err != nil {
			return err
		}
	case recJobStart:
		id, err := decodeID(r.Body)
		if err != nil {
			return err
		}
		st.started[id] = true
	case recCkptCommit:
		id, rp, err := decodeCkptCommit(r.Body)
		if err != nil {
			return err
		}
		st.resume[id] = rp
	case recJobComplete:
		id, res, err := decodeComplete(r.Body)
		if err != nil {
			return err
		}
		st.completed[id] = res
		delete(st.started, id)
		delete(st.resume, id)
	case recPartFree:
		id, err := decodeID(r.Body)
		if err != nil {
			return err
		}
		if id >= 0 {
			delete(st.allocs, id)
		}
	case recOrphanKill:
		id, err := decodeID(r.Body)
		if err != nil {
			return err
		}
		delete(st.started, id)
	case recStrike:
		id, attempt, mp, err := decodeTriple(r.Body)
		if err != nil {
			return err
		}
		st.markStruck(id, attempt)
		st.strikes[mp]++
	case recBlacklist:
		mp, err := decodeID(r.Body)
		if err != nil {
			return err
		}
		st.blacklisted[mp] = true
	case recRecoverBegin:
		st.recovering = true
	case recRecoverEnd:
		st.recovering = false
	default:
		return fmt.Errorf("ctrlsys: journal replay: unknown record kind %d at LSN %d", r.Kind, r.LSN)
	}
	return nil
}

// drainJournaled is the crash-only drain loop: run passes until one
// completes; on a service-node death, either recover from the journal and
// keep going, or — with journaling off — surface the wreck with typed
// errors. Recovery itself may die (double crash); it is simply retried,
// and the injector's MaxCrashes cap guarantees the loop terminates.
func (s *ServiceNode) drainJournaled(jobs []Job, workers int) (*DrainResult, error) {
	w := s.w
	if w.jn == nil {
		// Nothing durable remembers an earlier drain, so neither may the
		// in-memory state: without a journal every Drain starts afresh.
		w.st = newDrainState()
	}
	start := time.Now()
	for {
		err := s.drainPass(jobs, workers)
		if err == nil {
			res := &DrainResult{Results: make([]*JobResult, len(jobs)), Workers: workers}
			for i, job := range jobs {
				res.Results[i] = w.st.completed[job.ID]
			}
			res.Wall = time.Since(start)
			s.mergeResults(res, jobs)
			s.attachStats(res)
			return res, nil
		}
		if !errors.Is(err, ErrServiceNodeCrash) {
			return nil, err
		}
		if w.jn == nil {
			return s.assembleAborted(jobs, workers, start, err)
		}
		for {
			_, rerr := s.recoverInPlace(nil)
			if rerr == nil {
				break
			}
			if !errors.Is(rerr, ErrServiceNodeCrash) {
				return nil, rerr
			}
			// Double crash: recovery died writing its own reconciliation
			// records. Come back again — replay is idempotent.
		}
	}
}

func (s *ServiceNode) attachStats(res *DrainResult) {
	w := s.w
	res.Crash = w.crash
	if w.jn != nil {
		res.Journal = JournalStats{
			Records:     w.jn.Records(),
			Bytes:       w.jn.Bytes(),
			Segments:    w.jn.Segments(),
			TornDropped: w.torn,
		}
	}
}

// assembleAborted builds the partial result of a crash with journaling
// off: committed jobs keep their results; everything else is a
// crash-aborted stub whose Errs entry wraps ErrServiceNodeCrash.
func (s *ServiceNode) assembleAborted(jobs []Job, workers int, start time.Time, cause error) (*DrainResult, error) {
	res := &DrainResult{Results: make([]*JobResult, len(jobs)), Workers: workers}
	for i, job := range jobs {
		if r := s.w.st.completed[job.ID]; r != nil {
			res.Results[i] = r
			continue
		}
		res.Results[i] = &JobResult{
			Job:          job,
			Nodes:        job.Midplanes * s.topo.NodesPerMidplane,
			Err:          cause.Error(),
			CrashAborted: true,
		}
	}
	res.Wall = time.Since(start)
	s.mergeResults(res, jobs)
	s.attachStats(res)
	return res, nil
}

// drainPass is one service-node incarnation's attempt to finish the
// drain. Simulation fans out on the worker pool as ever; durability is a
// strictly serial commit pipeline in job-ID order, so the journal's LSN
// stream — and with it the crash schedule — is identical at every worker
// count.
func (s *ServiceNode) drainPass(jobs []Job, workers int) error {
	st := s.w.st
	for _, job := range jobs {
		if prior, ok := st.submitted[job.ID]; ok && prior != job {
			return fmt.Errorf("%w: job %d (%s): journaled %+v, presented %+v",
				ErrQueueMismatch, job.ID, job.Name, prior, job)
		}
	}
	for _, job := range jobs {
		if _, ok := st.submitted[job.ID]; ok {
			continue
		}
		if err := s.appendRec(recJobSubmit, func() []byte { return marshalJob(job) }, ras.SiteAppend); err != nil {
			return err
		}
		st.submitted[job.ID] = job
	}
	var pend []Job
	for _, job := range jobs {
		if st.completed[job.ID] == nil {
			pend = append(pend, job)
		}
	}
	if len(pend) == 0 {
		return nil
	}

	type simOut struct {
		res     *JobResult
		commits []*resumePoint
	}
	outs := replica.Map(workers, len(pend), func(i int) *simOut {
		job := pend[i]
		if s.cfg.Ckpt.Enabled {
			o := &simOut{}
			o.res = s.runJobResilientFrom(job, st.resume[job.ID], func(rp *resumePoint) {
				o.commits = append(o.commits, rp)
			})
			return o
		}
		return &simOut{res: s.runJob(job)}
	})

	ck := s.cfg.Ckpt.normalized()
	for i, job := range pend {
		o := outs[i]
		vid := -1 - job.ID // drain partitions are virtual: negative ID, base -1
		if err := s.appendRec(recPartAlloc, func() []byte { return tripleBody(vid, -1, job.Midplanes) }, ras.SiteAppend); err != nil {
			return err
		}
		if err := s.appendRec(recPartBoot, func() []byte { return bootBody(vid, s.jobSeed(job)) }, ras.SiteBoot); err != nil {
			return err
		}
		if err := s.appendRec(recJobStart, func() []byte { return idBody(job.ID) }, ras.SiteAppend); err != nil {
			return err
		}
		st.started[job.ID] = true
		for _, rp := range o.commits {
			if err := s.appendRec(recCkptCommit, func() []byte { return ckptCommitBody(job.ID, rp) }, ras.SiteCkptCommit); err != nil {
				return err
			}
		}
		for idx, a := range o.res.Attempts {
			if a.Completed || a.FaultMidplane < 0 || st.struck[job.ID][idx] {
				continue
			}
			if err := s.appendRec(recStrike, func() []byte { return tripleBody(job.ID, idx, a.FaultMidplane) }, ras.SiteAppend); err != nil {
				return err
			}
			st.markStruck(job.ID, idx)
			st.strikes[a.FaultMidplane]++
			if st.strikes[a.FaultMidplane] >= ck.BlacklistAfter && !st.blacklisted[a.FaultMidplane] {
				if err := s.appendRec(recBlacklist, func() []byte { return idBody(a.FaultMidplane) }, ras.SiteAppend); err != nil {
					return err
				}
				st.blacklisted[a.FaultMidplane] = true
			}
		}
		if err := s.appendRec(recJobComplete, func() []byte { return completeBody(job.ID, o.res) }, ras.SiteAppend); err != nil {
			return err
		}
		st.completed[job.ID] = o.res
		delete(st.started, job.ID)
		delete(st.resume, job.ID)
		if err := s.appendRec(recPartFree, func() []byte { return idBody(vid) }, ras.SiteAppend); err != nil {
			return err
		}
	}
	return nil
}

// RecoveryReport is what one recovery found and did.
type RecoveryReport struct {
	Records     int // journal records replayed
	TornDropped int

	Submitted int // jobs with durable submit records
	Completed int // jobs with durable results
	Pending   int // submitted but not completed

	OrphansKilled int // started-but-unfinished jobs killed
	Resumed       int // orphans with a journaled checkpoint to resume from
	Requeued      int // orphans restarted from scratch

	LiveScanned   int // live partitions scanned during reconciliation
	LiveDestroyed int

	Latency sim.Cycles // modelled downtime this recovery cost
}

// recoverInPlace is one recovery incarnation: reopen the journal (which
// repairs any torn tail), replay every record into a fresh state, then
// reconcile — scan and tear down live partitions, kill orphaned jobs,
// bracket the reconciliation in RecoverBegin/End records. Reconciliation
// appends pass through the crash injector too (SiteRecovery), so recovery
// itself can die; every step is idempotent under replay, so the retry
// simply picks up where the corpse left off.
func (s *ServiceNode) recoverInPlace(live []*Partition) (*RecoveryReport, error) {
	w := s.w
	jc := s.cfg.Journal.normalized()
	jn, recs, err := wal.Open(w.store, jc.Dir, jc.SegmentBytes)
	if err != nil {
		return nil, err
	}
	w.jn = jn
	w.torn += jn.Torn()
	st := newDrainState()
	for _, r := range recs {
		if err := st.applyRecord(r); err != nil {
			return nil, err
		}
	}
	w.st = st
	w.crash.Recoveries++
	w.crash.RecordsReplayed += len(recs)

	rep := &RecoveryReport{Records: len(recs), TornDropped: jn.Torn()}
	rep.Submitted = len(st.submitted)
	rep.Completed = len(st.completed)
	rep.Pending = rep.Submitted - rep.Completed

	// Rebuild the midplane map from the durable allocations.
	for i := range s.owner {
		s.owner[i] = -1
	}
	s.nextPID = st.maxPID + 1
	for id, ab := range st.allocs {
		for i := ab[0]; i < ab[0]+ab[1] && i < len(s.owner); i++ {
			s.owner[i] = id
		}
	}

	if err := s.appendRec(recRecoverBegin, nil, ras.SiteRecovery); err != nil {
		return nil, err
	}

	// Reconcile live partitions: the dead incarnation's booted blocks.
	// Whatever their machines were doing, their controlling state is
	// gone; scan for the record, kill the orphaned job, free the block.
	sort.Slice(live, func(i, j int) bool { return live[i].ID < live[j].ID })
	for _, p := range live {
		if p == nil {
			continue
		}
		rep.LiveScanned++
		if p.M != nil {
			p.M.Scan() // read-only; harvested for the RAS trail below
		}
		p.Destroy()
		if _, ok := st.allocs[p.ID]; ok {
			if err := s.appendRec(recPartFree, func() []byte { return idBody(p.ID) }, ras.SiteRecovery); err != nil {
				return nil, err
			}
			delete(st.allocs, p.ID)
			for i := p.Base; i < p.Base+p.Midplanes && i < len(s.owner); i++ {
				if i >= 0 && s.owner[i] == p.ID {
					s.owner[i] = -1
				}
			}
		}
		rep.LiveDestroyed++
	}

	// Kill orphaned jobs: a start record with no completion. The job
	// itself is requeued — with its journaled resume point if one
	// committed, from scratch otherwise.
	var orphans []int
	for id := range st.started {
		orphans = append(orphans, id)
	}
	sort.Ints(orphans)
	for _, id := range orphans {
		if err := s.appendRec(recOrphanKill, func() []byte { return idBody(id) }, ras.SiteRecovery); err != nil {
			return nil, err
		}
		delete(st.started, id)
		w.crash.OrphansKilled++
		rep.OrphansKilled++
		if st.resume[id] != nil {
			w.crash.Resumed++
			rep.Resumed++
		} else {
			w.crash.Requeued++
			rep.Requeued++
		}
	}
	if err := s.appendRec(recRecoverEnd, nil, ras.SiteRecovery); err != nil {
		return nil, err
	}

	lat := recoverBaseCost + recoverPerRecord*sim.Cycles(len(recs)) +
		recoverPerOrphan*sim.Cycles(rep.OrphansKilled)
	w.now += lat
	w.crash.RecoveryLatency += lat
	rep.Latency = lat
	w.log.Append(ras.Event{At: w.now, Node: -1, Comp: "svcnode",
		Class:  ras.ServiceRecovery,
		Detail: fmt.Sprintf("replayed %d records, killed %d orphans", len(recs), rep.OrphansKilled)})
	return rep, nil
}

// Recover builds a successor service node over a dead one's control
// store: open and replay the journal, reconcile against whatever live
// partitions survived the crash (their machines are scanned and torn
// down, their jobs orphan-killed), and return a node ready to Drain the
// same queue — completed jobs keep their durable results; interrupted
// ones resume from their last journaled checkpoint; never-started ones
// run fresh. cfg must arm the journal and should otherwise match the
// dead node's (same seed, kernel, topology — recovery cannot conjure
// results for a queue it never journaled); a different queue under the
// journaled job IDs fails Drain with ErrQueueMismatch.
func Recover(cfg Config, store *fs.FS, live []*Partition) (*ServiceNode, *RecoveryReport, error) {
	if !cfg.Journal.Enabled {
		return nil, nil, fmt.Errorf("ctrlsys: Recover needs Journal.Enabled")
	}
	if store == nil {
		return nil, nil, fmt.Errorf("ctrlsys: Recover needs the dead node's control store")
	}
	s := newNode(cfg)
	s.w = &world{
		store: store,
		inj:   ras.NewCrashInjector(cfg.Crashes),
		log:   ras.NewLog(),
		st:    newDrainState(),
	}
	// With a crash plan armed, recovery itself is a target. Each retry is
	// a new incarnation over the SAME world — the injector's generation
	// advances on every fire, so the schedule moves and the loop
	// terminates (a fresh Recover call per attempt would rebuild a fresh
	// injector and die identically forever). Retries re-present the live
	// list: partitions the dead recovery already freed are skipped (their
	// free records replay out of st.allocs), the rest get torn down now.
	for {
		rep, err := s.recoverInPlace(live)
		if err == nil {
			return s, rep, nil
		}
		if !errors.Is(err, ErrServiceNodeCrash) {
			return nil, nil, err
		}
	}
}
