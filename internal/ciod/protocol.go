// Package ciod implements the CNK ⇔ CIOD function-shipped I/O protocol of
// paper Section IV-A (Fig 2). When an application on a compute node makes
// a file-I/O system call, CNK marshals the parameters into a message and
// ships it over the collective network to the Control and I/O Daemon on
// the I/O node. CIOD routes the message to an ioproxy dedicated to that
// compute-node process (with one proxy thread per application thread),
// which performs the real call against the I/O node's filesystem and ships
// the results back.
package ciod

import (
	"encoding/binary"
	"fmt"
	"math"

	"bgcnk/internal/codec"
	"bgcnk/internal/fs"
	"bgcnk/internal/kernel"
	"bgcnk/internal/sim"
)

// Op codes on the wire (aligned with the syscalls CNK function-ships, plus
// proxy lifecycle management).
const (
	OpOpen uint8 = iota
	OpClose
	OpRead
	OpWrite
	OpLseek
	OpStat
	OpFstat
	OpUnlink
	OpRename
	OpMkdir
	OpRmdir
	OpDup
	OpGetcwd
	OpChdir
	OpTruncate
	OpReaddir
	OpProcStart // create the ioproxy for a process
	OpProcExit  // tear it down
	OpFsync     // flush a descriptor's dirty cache blocks to stable storage
)

var opNames = [...]string{"open", "close", "read", "write", "lseek", "stat",
	"fstat", "unlink", "rename", "mkdir", "rmdir", "dup", "getcwd", "chdir",
	"truncate", "readdir", "proc_start", "proc_exit", "fsync"}

// OpName returns a debug name for an op code.
func OpName(op uint8) string {
	if int(op) < len(opNames) {
		return opNames[op]
	}
	return fmt.Sprintf("op(%d)", op)
}

// Request is one function-shipped call.
type Request struct {
	Op     uint8
	PID    uint32
	TID    uint32
	UID    uint32
	GID    uint32
	FD     int32
	FD2    int32 // unused except where noted
	Flags  uint64
	Mode   uint16
	Off    int64
	Whence int32
	Size   uint64
	Path   string
	Path2  string
	Data   []byte
}

// Reply is the result shipped back.
type Reply struct {
	Ret   uint64
	Errno kernel.Errno
	Data  []byte
	Str   string
}

// Transport is what the compute-node kernel uses to ship a request and
// block for its reply. Implementations: Client (over the collective
// network to a Server) and Loopback (directly against a filesystem, for
// unit tests of the CN kernel).
type Transport interface {
	Call(c *sim.Coro, req *Request) *Reply
}

// --- wire marshalling (big-endian like the hardware; lengths are bounded
// only by the bytes present, and trailing bytes are ignored) ---

// newEnc returns an encoder into a buffer of exactly size bytes, so a
// message marshals in one allocation.
func newEnc(size int) codec.Enc {
	return codec.Enc{B: make([]byte, 0, size), Order: binary.BigEndian}
}

func newDec(b []byte) *codec.Dec { return codec.NewDec(b, binary.BigEndian, "ciod: message") }

// requestFixed is the byte length of a marshalled Request without its
// path, second path and data bytes.
const requestFixed = 1 + 6*4 + 8 + 2 + 8 + 4 + 8 + 3*4

// MarshalRequest renders the request in wire format.
func MarshalRequest(r *Request) []byte {
	e := newEnc(requestFixed + len(r.Path) + len(r.Path2) + len(r.Data))
	e.U8(r.Op)
	e.U32(r.PID)
	e.U32(r.TID)
	e.U32(r.UID)
	e.U32(r.GID)
	e.U32(uint32(r.FD))
	e.U32(uint32(r.FD2))
	e.U64(r.Flags)
	e.U16(r.Mode)
	e.U64(uint64(r.Off))
	e.U32(uint32(r.Whence))
	e.U64(r.Size)
	e.Str(r.Path)
	e.Str(r.Path2)
	e.Blob(r.Data)
	return e.B
}

// UnmarshalRequest parses wire format.
func UnmarshalRequest(b []byte) (*Request, error) {
	d := newDec(b)
	r := &Request{
		Op: d.U8(), PID: d.U32(), TID: d.U32(), UID: d.U32(), GID: d.U32(),
		FD: int32(d.U32()), FD2: int32(d.U32()), Flags: d.U64(), Mode: d.U16(),
		Off: int64(d.U64()), Whence: int32(d.U32()), Size: d.U64(),
		Path: d.Str(math.MaxUint32), Path2: d.Str(math.MaxUint32), Data: d.Blob(math.MaxUint32),
	}
	return r, d.Err()
}

// replyFixed is the byte length of a marshalled Reply without its string
// and data bytes.
const replyFixed = 8 + 4 + 2*4

// MarshalReply renders a reply in wire format.
func MarshalReply(r *Reply) []byte {
	e := newEnc(replyFixed + len(r.Str) + len(r.Data))
	e.U64(r.Ret)
	e.U32(uint32(r.Errno))
	e.Str(r.Str)
	e.Blob(r.Data)
	return e.B
}

// UnmarshalReply parses a reply.
func UnmarshalReply(b []byte) (*Reply, error) {
	d := newDec(b)
	r := &Reply{Ret: d.U64(), Errno: kernel.Errno(int32(d.U32())), Str: d.Str(math.MaxUint32), Data: d.Blob(math.MaxUint32)}
	return r, d.Err()
}

// StatWireSize is the byte length of a marshalled Stat.
const StatWireSize = 8 + 1 + 2 + 4 + 4 + 8 + 4 + 8

// MarshalStat encodes a Stat into reply data.
func MarshalStat(st fs.Stat) []byte {
	e := newEnc(StatWireSize)
	e.U64(st.Ino)
	e.U8(uint8(st.Type))
	e.U16(uint16(st.Mode))
	e.U32(st.UID)
	e.U32(st.GID)
	e.U64(st.Size)
	e.U32(st.Nlink)
	e.U64(st.Mtime)
	return e.B
}

// UnmarshalStat decodes MarshalStat's output.
func UnmarshalStat(b []byte) (fs.Stat, error) {
	d := newDec(b)
	st := fs.Stat{
		Ino: d.U64(), Type: fs.FileType(d.U8()), Mode: fs.Mode(d.U16()),
		UID: d.U32(), GID: d.U32(), Size: d.U64(), Nlink: d.U32(), Mtime: d.U64(),
	}
	return st, d.Err()
}
