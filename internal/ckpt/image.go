// Package ckpt defines the checkpoint image: the versioned, strictly
// validated wire format a job's state is serialized into at a barrier
// quiesce point and restored from after an uncorrectable fault.
//
// The paper's reliability story (Section V-B) leans on exactly this
// artifact: the 2007 Gordon Bell sustained-petaflop run survived hardware
// faults by restarting from checkpoints, and CNK's deterministic,
// statically mapped processes are what made the snapshot cheap — the
// kernel knows every region of a process a priori, so a checkpoint is a
// single pass over a handful of large contiguous extents. An FWK has to
// walk scattered 4 KB pages, flush its page cache and quiesce daemons
// first; the cost difference is measured by the "mtbf" experiment.
//
// An image records, per node: the process's memory regions (descriptors
// plus digests — the simulation models the traffic, not the bytes), the
// thread register state, the node's full UPC counter block, and the open
// CIOD file table mirrored by the node's ioproxy. Decoding is strict:
// bad magic or version, truncation, hostile length prefixes, unsorted or
// overlapping regions, and trailing garbage are all rejected, and any
// accepted input re-marshals to itself (the canonical property
// FuzzCheckpointImage enforces).
package ckpt

import (
	"encoding/binary"
	"fmt"
	"hash/fnv"

	"bgcnk/internal/codec"
	"bgcnk/internal/upc"
)

// Wire-format constants. Caps bound what a hostile length prefix can make
// the decoder allocate.
const (
	imageMagic   = 0x4247434b // "BGCK"
	imageVersion = 1

	// MaxNodes bounds the per-image node count.
	MaxNodes = 4096
	// MaxRegions bounds the per-node region count.
	MaxRegions = 4096
	// MaxThreads bounds the per-node thread count.
	MaxThreads = 4096
	// MaxFiles bounds the per-node open-file count (mirrors fs.MaxFDs).
	MaxFiles = 256
	// MaxPath bounds an open file's recorded path length.
	MaxPath = 4096
)

// Image is one whole-job checkpoint: the state of every node of the
// partition at one barrier quiesce point.
type Image struct {
	JobID int32
	Epoch uint32 // exchange rounds completed when the snapshot was taken
	Kind  uint8  // kernel kind (machine.KernelKind)
	Nodes []NodeState
}

// NodeState is one node's contribution to the image.
type NodeState struct {
	Node     int32
	Regions  []Region   // sorted by VBase, non-overlapping
	Threads  []RegState // sorted by TID
	Counters upc.Snapshot
	Files    []FileState // sorted by FD
}

// Region describes one checkpointed memory extent. Under CNK these are
// the few large statically mapped regions; under an FWK they are runs of
// contiguous resident 4 KB pages (typically many, typically short — the
// contiguity story of Table II, visible in the image itself).
type Region struct {
	VBase  uint64
	Size   uint64
	Digest uint64
}

// RegState is one thread's saved register state. The simulation does not
// execute real instructions, so PC stands in for the resume point (the
// epoch) and SP for the stack anchor.
type RegState struct {
	TID uint32
	PC  uint64
	SP  uint64
}

// FileState is one entry of the open CIOD file table: enough to reopen
// the file and seek back to the mirrored offset on restart.
type FileState struct {
	FD     int32
	Offset uint64
	Flags  uint64
	Path   string
}

// RegionDigest is the digest recorded for a region's (modelled) contents.
func RegionDigest(name string, vbase, size uint64) uint64 {
	h := fnv.New64a()
	fmt.Fprintf(h, "%s|%#x|%d", name, vbase, size)
	return h.Sum64()
}

// Marshal encodes the image into one buffer of exactly its wire size.
func (img *Image) Marshal() []byte {
	e := codec.Enc{B: make([]byte, 0, img.wireSize()), Order: binary.LittleEndian}
	e.U32(imageMagic)
	e.U8(imageVersion)
	e.U32(uint32(img.JobID))
	e.U32(img.Epoch)
	e.U8(img.Kind)
	// Counter-block dimensions are part of the format: an image written
	// by a kernel with a different UPC layout must not decode silently.
	e.U8(upc.NumSlots)
	e.U8(uint8(upc.NumCounters))
	e.U8(upc.MaxSyscalls)
	e.U32(uint32(len(img.Nodes)))
	for i := range img.Nodes {
		n := &img.Nodes[i]
		e.U32(uint32(n.Node))
		e.U32(uint32(len(n.Regions)))
		for _, r := range n.Regions {
			e.U64(r.VBase)
			e.U64(r.Size)
			e.U64(r.Digest)
		}
		e.U32(uint32(len(n.Threads)))
		for _, t := range n.Threads {
			e.U32(t.TID)
			e.U64(t.PC)
			e.U64(t.SP)
		}
		for sl := 0; sl < upc.NumSlots; sl++ {
			for c := 0; c < int(upc.NumCounters); c++ {
				e.U64(n.Counters.Vals[sl][c])
			}
			for s := 0; s < upc.MaxSyscalls; s++ {
				e.U64(n.Counters.Sys[sl][s])
			}
		}
		e.U32(uint32(len(n.Files)))
		for _, f := range n.Files {
			e.U32(uint32(f.FD))
			e.U64(f.Offset)
			e.U64(f.Flags)
			e.Str(f.Path[:min(len(f.Path), MaxPath)])
		}
	}
	return e.B
}

// Fixed wire sizes: the image header, one region, one thread, one file
// entry without its path, and one node's counter block.
const (
	headerBytes  = 4 + 1 + 4 + 4 + 1 + 3 + 4
	regionBytes  = 3 * 8
	threadBytes  = 4 + 2*8
	fileBytes    = 4 + 2*8 + 4
	counterBytes = 8 * upc.NumSlots * (int(upc.NumCounters) + upc.MaxSyscalls)
)

// wireSize is the exact length Marshal produces.
func (img *Image) wireSize() int {
	size := headerBytes
	for i := range img.Nodes {
		n := &img.Nodes[i]
		size += 4 + 4 + len(n.Regions)*regionBytes + 4 + len(n.Threads)*threadBytes + counterBytes + 4
		for _, f := range n.Files {
			size += fileBytes + min(len(f.Path), MaxPath)
		}
	}
	return size
}

// Unmarshal decodes and validates a checkpoint image. It rejects bad
// magic, unknown versions, mismatched counter dimensions, every form of
// truncation and length-prefix abuse, unsorted or overlapping regions,
// unsorted threads or files, and trailing bytes. Any accepted input
// re-marshals to the identical byte string.
func Unmarshal(b []byte) (*Image, error) {
	d := codec.NewDec(b, binary.LittleEndian, "ckpt: image")
	if m := d.U32(); d.Err() == nil && m != imageMagic {
		return nil, fmt.Errorf("ckpt: bad image magic %#x", m)
	}
	if v := d.U8(); d.Err() == nil && v != imageVersion {
		return nil, fmt.Errorf("ckpt: unsupported image version %d", v)
	}
	img := &Image{}
	img.JobID = int32(d.U32())
	img.Epoch = d.U32()
	img.Kind = d.U8()
	slots, counters, syscalls := d.U8(), d.U8(), d.U8()
	if d.Err() != nil {
		return nil, d.Err()
	}
	if slots != upc.NumSlots || counters != uint8(upc.NumCounters) || syscalls != upc.MaxSyscalls {
		return nil, fmt.Errorf("ckpt: counter dimensions %d/%d/%d do not match this kernel (%d/%d/%d)",
			slots, counters, syscalls, upc.NumSlots, upc.NumCounters, upc.MaxSyscalls)
	}
	nodes := int(d.U32())
	if d.Err() != nil {
		return nil, d.Err()
	}
	if nodes > MaxNodes {
		return nil, fmt.Errorf("ckpt: image claims %d nodes (max %d)", nodes, MaxNodes)
	}
	// A node costs at least 9 bytes on the wire even when empty; bound the
	// allocation by what the buffer could actually hold.
	if nodes > len(b) {
		return nil, fmt.Errorf("ckpt: image claims %d nodes in %d bytes", nodes, len(b))
	}
	img.Nodes = make([]NodeState, 0, nodes)
	for i := 0; i < nodes; i++ {
		n, err := decodeNode(d)
		if err != nil {
			return nil, err
		}
		if i > 0 && n.Node <= img.Nodes[i-1].Node {
			return nil, fmt.Errorf("ckpt: node %d out of order after node %d", n.Node, img.Nodes[i-1].Node)
		}
		img.Nodes = append(img.Nodes, n)
	}
	if err := d.Finish(); err != nil {
		return nil, err
	}
	return img, nil
}

func decodeNode(d *codec.Dec) (NodeState, error) {
	var n NodeState
	n.Node = int32(d.U32())
	regions := int(d.U32())
	if d.Err() != nil {
		return n, d.Err()
	}
	if regions > MaxRegions {
		return n, fmt.Errorf("ckpt: node %d claims %d regions (max %d)", n.Node, regions, MaxRegions)
	}
	if regions*regionBytes > d.Left() {
		return n, fmt.Errorf("ckpt: node %d region table truncated", n.Node)
	}
	n.Regions = make([]Region, 0, regions)
	for r := 0; r < regions; r++ {
		reg := Region{VBase: d.U64(), Size: d.U64(), Digest: d.U64()}
		if d.Err() != nil {
			return n, d.Err()
		}
		if reg.Size == 0 {
			return n, fmt.Errorf("ckpt: node %d region %d has zero size", n.Node, r)
		}
		if reg.VBase+reg.Size < reg.VBase {
			return n, fmt.Errorf("ckpt: node %d region %d wraps the address space", n.Node, r)
		}
		if r > 0 {
			prev := n.Regions[r-1]
			if reg.VBase < prev.VBase+prev.Size {
				return n, fmt.Errorf("ckpt: node %d region %d overlaps or precedes region %d", n.Node, r, r-1)
			}
		}
		n.Regions = append(n.Regions, reg)
	}
	threads := int(d.U32())
	if d.Err() != nil {
		return n, d.Err()
	}
	if threads > MaxThreads {
		return n, fmt.Errorf("ckpt: node %d claims %d threads (max %d)", n.Node, threads, MaxThreads)
	}
	if threads*threadBytes > d.Left() {
		return n, fmt.Errorf("ckpt: node %d thread table truncated", n.Node)
	}
	n.Threads = make([]RegState, 0, threads)
	for t := 0; t < threads; t++ {
		ts := RegState{TID: d.U32(), PC: d.U64(), SP: d.U64()}
		if d.Err() != nil {
			return n, d.Err()
		}
		if t > 0 && ts.TID <= n.Threads[t-1].TID {
			return n, fmt.Errorf("ckpt: node %d thread %d out of order", n.Node, t)
		}
		n.Threads = append(n.Threads, ts)
	}
	for sl := 0; sl < upc.NumSlots; sl++ {
		for c := 0; c < int(upc.NumCounters); c++ {
			n.Counters.Vals[sl][c] = d.U64()
		}
		for s := 0; s < upc.MaxSyscalls; s++ {
			n.Counters.Sys[sl][s] = d.U64()
		}
	}
	files := int(d.U32())
	if d.Err() != nil {
		return n, d.Err()
	}
	if files > MaxFiles {
		return n, fmt.Errorf("ckpt: node %d claims %d open files (max %d)", n.Node, files, MaxFiles)
	}
	if files*fileBytes > d.Left() {
		return n, fmt.Errorf("ckpt: node %d file table truncated", n.Node)
	}
	n.Files = make([]FileState, 0, files)
	for f := 0; f < files; f++ {
		fe := FileState{FD: int32(d.U32()), Offset: d.U64(), Flags: d.U64(), Path: d.Str(MaxPath)}
		if d.Err() != nil {
			return n, d.Err()
		}
		if fe.FD < 0 {
			return n, fmt.Errorf("ckpt: node %d file %d has negative descriptor", n.Node, f)
		}
		if f > 0 && fe.FD <= n.Files[f-1].FD {
			return n, fmt.Errorf("ckpt: node %d file %d out of order", n.Node, f)
		}
		n.Files = append(n.Files, fe)
	}
	return n, d.Err()
}

// WorkSignature digests the counters that are a pure function of the
// application's logical execution: per-number syscall counts, function
// ships, network packets and bytes, DMA descriptors, combining-tree
// operations, futex traffic, and page faults. Counters that legitimately
// differ across a checkpoint/restart cycle — cache hits and misses, TLB
// refills, refresh stalls, timer ticks, daemon runs, retries and RAS
// reactions, all of which depend on microarchitectural state or absolute
// time that a restart does not preserve — are excluded. A job that
// restarts N times must WorkSignature-equal its fault-free run; that is
// the restart-determinism property the resilience tests gate.
func WorkSignature(s upc.Snapshot) uint64 {
	h := fnv.New64a()
	for _, c := range workCounters {
		for sl := 0; sl < upc.NumSlots; sl++ {
			fmt.Fprintf(h, "%d|%d|%d;", c, sl, s.Vals[sl][c])
		}
	}
	for sl := 0; sl < upc.NumSlots; sl++ {
		for n := 0; n < upc.MaxSyscalls; n++ {
			fmt.Fprintf(h, "s%d|%d|%d;", sl, n, s.Sys[sl][n])
		}
	}
	return h.Sum64()
}

var workCounters = []upc.Counter{
	upc.PageFault, upc.SyscallTotal, upc.FunctionShip,
	upc.DMADescriptor, upc.TorusPacket, upc.TorusBytes,
	upc.CollPacket, upc.CollBytes, upc.CombineOp,
	upc.FutexWait, upc.FutexWake,
}
