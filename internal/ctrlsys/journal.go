package ctrlsys

import (
	"encoding/binary"

	"bgcnk/internal/codec"
	"bgcnk/internal/machine"
	"bgcnk/internal/sim"
	"bgcnk/internal/upc"
)

// Journal record kinds. One kind per scheduler state transition; the WAL
// itself treats them as opaque. Kind numbers are part of the durable
// format — append, never renumber.
const (
	recJobSubmit    = 1  // job entered the queue
	recPartAlloc    = 2  // partition block reserved (base -1 = drain-virtual)
	recPartBoot     = 3  // partition boot issued with its job seed
	recJobStart     = 4  // job launched on its partition
	recCkptCommit   = 5  // resilience resume point made durable
	recJobComplete  = 6  // job finished; body carries the full JobResult
	recPartFree     = 7  // partition block released
	recOrphanKill   = 8  // recovery killed a started-but-unfinished job
	recStrike       = 9  // midplane struck by a job-killing fault
	recBlacklist    = 10 // midplane drained after too many strikes
	recRecoverBegin = 11 // recovery incarnation started reconciling
	recRecoverEnd   = 12 // reconciliation finished
)

// JournalConfig arms the service node's write-ahead journal.
type JournalConfig struct {
	Enabled bool
	// Dir is the journal directory on the control store
	// (default "/ctrl/wal").
	Dir string
	// SegmentBytes is the rotation threshold (default wal's).
	SegmentBytes int
}

func (c JournalConfig) normalized() JournalConfig {
	if c.Dir == "" {
		c.Dir = "/ctrl/wal"
	}
	return c
}

// Journal bodies and node personalities are the control system's wire
// formats, written in the strict little-endian codec: every length is
// bounded, every read checked, and a decode must consume its input
// exactly.
const (
	jMaxStr   = 4096
	jMaxSlice = 1 << 20
)

func newEnc() codec.Enc { return codec.Enc{Order: binary.LittleEndian} }

func newDec(b []byte) *codec.Dec {
	return codec.NewDec(b, binary.LittleEndian, "ctrlsys: journal body")
}

// i32 decodes a signed 32-bit field; its encoder is U32(uint32(v)).
func i32(d *codec.Dec) int { return int(int32(d.U32())) }

// marshalJob encodes the job spec carried by submit records, so replay
// can cross-check the re-presented queue against what the dead node
// accepted (see ErrQueueMismatch).
func marshalJob(j Job) []byte {
	e := newEnc()
	putJob(&e, j)
	return e.B
}

func putJob(e *codec.Enc, j Job) {
	e.U32(uint32(j.ID))
	e.Str(j.Name)
	e.U32(uint32(j.Midplanes))
	e.U64(uint64(j.Work))
	e.U32(uint32(j.Exchanges))
	e.U64(uint64(j.IOBytes))
}

func getJob(d *codec.Dec) Job {
	return Job{
		ID:        i32(d),
		Name:      d.Str(jMaxStr),
		Midplanes: i32(d),
		Work:      sim.Cycles(d.U64()),
		Exchanges: i32(d),
		IOBytes:   int(d.U64()),
	}
}

func unmarshalJob(b []byte) (Job, error) {
	d := newDec(b)
	j := getJob(d)
	return j, d.Finish()
}

// idBody is the one-integer body shared by start/free/orphan records.
func idBody(id int) []byte {
	e := newEnc()
	e.U32(uint32(id))
	return e.B
}

func decodeID(b []byte) (int, error) {
	d := newDec(b)
	id := i32(d)
	return id, d.Finish()
}

func tripleBody(a, b, c int) []byte {
	e := newEnc()
	e.U32(uint32(a))
	e.U32(uint32(b))
	e.U32(uint32(c))
	return e.B
}

func decodeTriple(b []byte) (int, int, int, error) {
	d := newDec(b)
	x := i32(d)
	y := i32(d)
	z := i32(d)
	return x, y, z, d.Finish()
}

func bootBody(id int, seed uint64) []byte {
	e := newEnc()
	e.U32(uint32(id))
	e.U64(seed)
	return e.B
}

func decodeBoot(b []byte) (int, uint64, error) {
	d := newDec(b)
	id := i32(d)
	seed := d.U64()
	return id, seed, d.Finish()
}

func putBootResult(e *codec.Enc, br BootResult) {
	e.U8(uint8(br.Kind))
	e.U32(uint32(br.Nodes))
	e.U64(br.ImageBytes)
	e.U32(uint32(br.Waves))
	e.U64(uint64(br.ImagePhase))
	e.U64(uint64(br.PerNodePhase))
	e.U64(uint64(br.InitPhase))
	e.U64(uint64(br.Total))
}

func getBootResult(d *codec.Dec) BootResult {
	return BootResult{
		Kind:         machine.KernelKind(d.U8()),
		Nodes:        i32(d),
		ImageBytes:   d.U64(),
		Waves:        i32(d),
		ImagePhase:   sim.Cycles(d.U64()),
		PerNodePhase: sim.Cycles(d.U64()),
		InitPhase:    sim.Cycles(d.U64()),
		Total:        sim.Cycles(d.U64()),
	}
}

func putSnapshot(e *codec.Enc, s *upc.Snapshot) {
	// Counter dimensions are baked into the format; a journal from a
	// different build geometry must not half-decode.
	e.U32(upc.NumSlots)
	e.U32(uint32(upc.NumCounters))
	e.U32(upc.MaxSyscalls)
	for sl := 0; sl < upc.NumSlots; sl++ {
		for c := 0; c < int(upc.NumCounters); c++ {
			e.U64(s.Vals[sl][c])
		}
		for c := 0; c < upc.MaxSyscalls; c++ {
			e.U64(s.Sys[sl][c])
		}
	}
}

func getSnapshot(d *codec.Dec, s *upc.Snapshot) {
	if d.U32() != upc.NumSlots || d.U32() != uint32(upc.NumCounters) || d.U32() != upc.MaxSyscalls {
		d.Fail("counter geometry mismatch")
		return
	}
	for sl := 0; sl < upc.NumSlots; sl++ {
		for c := 0; c < int(upc.NumCounters); c++ {
			s.Vals[sl][c] = d.U64()
		}
		for c := 0; c < upc.MaxSyscalls; c++ {
			s.Sys[sl][c] = d.U64()
		}
	}
}

func putAttempt(e *codec.Enc, a Attempt) {
	e.U64(uint64(a.Boot))
	e.U64(uint64(a.Run))
	e.U32(uint32(a.ResumeEpoch))
	e.U32(uint32(a.FaultMidplane))
	e.U64(uint64(a.Backoff))
	e.Bool(a.Completed)
}

func getAttempt(d *codec.Dec) Attempt {
	return Attempt{
		Boot:          sim.Cycles(d.U64()),
		Run:           sim.Cycles(d.U64()),
		ResumeEpoch:   i32(d),
		FaultMidplane: i32(d),
		Backoff:       sim.Cycles(d.U64()),
		Completed:     d.Bool(),
	}
}

// marshalJobResult flattens a complete JobResult into a journal body.
// Everything that enters DrainResult.Signature must round-trip exactly:
// a recovered drain's accounting is only bit-identical if replay hands
// back precisely what the dead node committed.
func marshalJobResult(r *JobResult) []byte {
	e := newEnc()
	putJob(&e, r.Job)
	e.U32(uint32(r.Nodes))
	putBootResult(&e, r.Boot)
	e.U64(uint64(r.Run))
	e.U64(uint64(r.Teardown))
	e.U32(uint32(len(r.ExitCodes)))
	for _, c := range r.ExitCodes {
		e.U32(uint32(c))
	}
	putSnapshot(&e, &r.Counters)
	e.U64(r.RASEvents)
	e.U64(r.RASHash)
	e.Str(r.Err)
	e.U32(uint32(len(r.Attempts)))
	for _, a := range r.Attempts {
		putAttempt(&e, a)
	}
	e.U32(uint32(r.Restarts))
	e.U64(uint64(r.Wasted))
	e.U64(uint64(r.RestartOverhead))
	e.Bool(r.BudgetExhausted)
	e.Bool(r.CrashAborted)
	return e.B
}

func unmarshalJobResult(b []byte) (*JobResult, error) {
	d := newDec(b)
	r := &JobResult{Job: getJob(d)}
	r.Nodes = i32(d)
	r.Boot = getBootResult(d)
	r.Run = sim.Cycles(d.U64())
	r.Teardown = sim.Cycles(d.U64())
	n := int32(d.U32())
	if n < 0 || n > jMaxSlice/4 {
		d.Fail("exit-code count %d", n)
	}
	if d.Err() == nil {
		r.ExitCodes = make([]int, n)
		for i := range r.ExitCodes {
			r.ExitCodes[i] = i32(d)
		}
	}
	getSnapshot(d, &r.Counters)
	r.RASEvents = d.U64()
	r.RASHash = d.U64()
	r.Err = d.Str(jMaxStr)
	na := int32(d.U32())
	if na < 0 || na > 4096 {
		d.Fail("attempt count %d", na)
	}
	for i := int32(0); i < na && d.Err() == nil; i++ {
		r.Attempts = append(r.Attempts, getAttempt(d))
	}
	r.Restarts = i32(d)
	r.Wasted = sim.Cycles(d.U64())
	r.RestartOverhead = sim.Cycles(d.U64())
	r.BudgetExhausted = d.Bool()
	r.CrashAborted = d.Bool()
	return r, d.Finish()
}

// resumePoint is the resilience layer's loop state at a checkpoint
// commit: everything runJobResilientFrom needs to continue the restart
// loop exactly where the dead service node left it. res holds the
// partial accounting, rasHash the per-attempt fold so far, next the
// attempt index to run, and image the freshest durable checkpoint blob
// (empty = cold restart).
type resumePoint struct {
	res     JobResult
	rasHash uint64
	next    int
	image   []byte
}

func marshalResume(rp *resumePoint) []byte {
	e := newEnc()
	e.Blob(marshalJobResult(&rp.res))
	e.U64(rp.rasHash)
	e.U32(uint32(rp.next))
	e.Blob(rp.image)
	return e.B
}

func unmarshalResume(b []byte) (*resumePoint, error) {
	d := newDec(b)
	body := d.Blob(jMaxSlice)
	rp := &resumePoint{rasHash: d.U64(), next: i32(d), image: d.Blob(jMaxSlice)}
	if err := d.Finish(); err != nil {
		return nil, err
	}
	res, err := unmarshalJobResult(body)
	if err != nil {
		return nil, err
	}
	rp.res = *res
	return rp, nil
}

// completeBody pairs the job ID with its full result.
func completeBody(id int, r *JobResult) []byte {
	e := newEnc()
	e.U32(uint32(id))
	e.Blob(marshalJobResult(r))
	return e.B
}

func decodeComplete(b []byte) (int, *JobResult, error) {
	d := newDec(b)
	id := i32(d)
	body := d.Blob(jMaxSlice)
	if err := d.Finish(); err != nil {
		return 0, nil, err
	}
	r, err := unmarshalJobResult(body)
	return id, r, err
}

// ckptCommitBody pairs the job ID with its marshalled resume point.
func ckptCommitBody(id int, rp *resumePoint) []byte {
	e := newEnc()
	e.U32(uint32(id))
	e.Blob(marshalResume(rp))
	return e.B
}

func decodeCkptCommit(b []byte) (int, *resumePoint, error) {
	d := newDec(b)
	id := i32(d)
	body := d.Blob(jMaxSlice)
	if err := d.Finish(); err != nil {
		return 0, nil, err
	}
	rp, err := unmarshalResume(body)
	return id, rp, err
}
