package ciod

import (
	"crypto/sha256"
	"fmt"
	"testing"

	"bgcnk/internal/fs"
	"bgcnk/internal/kernel"
)

// TestWireBytesPinned pins the exact bytes of a fully populated request,
// reply and stat. A round trip cannot see a byte-order or field-order
// slip made on both sides of the codec; a digest of the encoder's output
// can.
func TestWireBytesPinned(t *testing.T) {
	req := &Request{Op: OpRename, PID: 0x01020304, TID: 0x05060708, UID: 1001, GID: 1002,
		FD: -7, FD2: 9, Flags: 0xdeadbeefcafe, Mode: 0o4755, Off: -1 << 40, Whence: 2,
		Size: 1 << 33, Path: "/gpfs/some/path", Path2: "../other", Data: []byte{0, 1, 2, 255}}
	rep := &Reply{Ret: ^uint64(0) - 1, Errno: kernel.ENOENT, Data: []byte("reply payload"), Str: "/cwd"}
	st := fs.Stat{Ino: 0x0102030405060708, Type: fs.TypeFile, Mode: 0o640, UID: 7, GID: 8,
		Size: 1 << 40, Nlink: 3, Mtime: 0xa0b0c0d0e0f0}
	for _, c := range []struct {
		name string
		wire []byte
		sum  string
	}{
		{"request", MarshalRequest(req), "f6af816c08c59bebdca6a8a6ed58fb53a07a9d52a72bbbdc299e7cd84976f5d0"},
		{"empty request", MarshalRequest(&Request{}), "1be2b3990b410ca4fb38d1f79019c4018cd8820b69618646c81d22dfcbddc802"},
		{"reply", MarshalReply(rep), "7fdac232ffe19c88dfe61bff41cf5f2892dd0ea575b0026bacd4de09beb1206e"},
		{"stat", MarshalStat(st), "6d9b8cd7f58e80e129ff3e88e84f2e632114d4ada2e9f900bf0d28aaa30370c9"},
	} {
		if got := fmt.Sprintf("%x", sha256.Sum256(c.wire)); got != c.sum {
			t.Errorf("%s: sha256 %s, pinned %s", c.name, got, c.sum)
		}
	}
}

// TestMarshalAllocs gates the function-shipping hot path: a 4 KB write
// request, its reply and a stat each marshal into one buffer of exactly
// the wire size, in one allocation.
func TestMarshalAllocs(t *testing.T) {
	req := &Request{Op: OpWrite, PID: 1, TID: 2, FD: 3, Size: 4096, Path: "/gpfs/out", Data: make([]byte, 4096)}
	rep := &Reply{Ret: 4096, Str: "/cwd", Data: make([]byte, 4096)}
	var st fs.Stat
	for _, c := range []struct {
		name    string
		marshal func() []byte
	}{
		{"write request", func() []byte { return MarshalRequest(req) }},
		{"reply", func() []byte { return MarshalReply(rep) }},
		{"stat", func() []byte { return MarshalStat(st) }},
	} {
		if b := c.marshal(); len(b) != cap(b) {
			t.Errorf("%s: %d bytes in a buffer of %d", c.name, len(b), cap(b))
		}
		if n := testing.AllocsPerRun(100, func() { c.marshal() }); n != 1 {
			t.Errorf("%s: %v allocations per marshal, want 1", c.name, n)
		}
	}
}
