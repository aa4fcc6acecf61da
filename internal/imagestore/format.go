// Image file format: a fixed header, a section directory, a body
// digest, and eight 8-byte-aligned sections. The bulky machine state —
// frame metadata, PTE arrays, page-table slot arrays, page-cache page
// arrays, cache line/recency arrays — is stored as flat binary images of the
// in-memory structs, so a load is a handful of bounds checks plus
// in-place slice casts over the mapped file; everything small (the
// snapshot scalars, region lists, TLB entries) travels as one JSON
// document in the META section.
//
//	[0:8]   magic "SATIMG01"
//	[8:12]  format version (uint32)
//	[12:16] endianness tag 0x01020304, written natively
//	[16:24] crc32-Castagnoli over everything after this field (upper
//	        32 bits zero), the digest and the body included
//	[24:28] section count (uint32, == numSections)
//	[28:32] layout hash: sizes/offsets of the cast struct types
//	[32:digestOff]
//	        directory: {off, len uint64} per section, offsets absolute
//	[digestOff:headerSize]
//	        SHA-256 of the body, every byte after the header
//
// The body digest is the admission check: a load re-encodes the
// restored machine with the writer's own code and admits it only if
// that body hashes to the stored digest. So it proves both that the
// bytes are the ones saved and that the decode lost nothing, for every
// section, and corruption below the checksum's notice still fails it.
//
// The format is tied to the writing platform's struct layout (the
// layout hash and endianness tag reject foreign files); layoutOK
// additionally disables the store entirely on platforms where the cast
// types are not the layout this format assumes.
//
// Version-bump procedure: any change to the section set, the META
// schema, a cast struct, or the meaning of stored state must increment
// FormatVersion (see DESIGN.md); older files then fail the header check
// and are removed lazily, forcing a cold boot and rewrite.

package imagestore

import (
	"crypto/sha256"
	"encoding/binary"
	"fmt"
	"hash/crc32"
	"unsafe"

	"repro/internal/mem"
	"repro/internal/pagetable"
	"repro/internal/vm"
)

// FormatVersion is the on-disk format generation. Bump it on any
// incompatible change; stored images of other versions are discarded.
const FormatVersion = 5

const magic = "SATIMG01"

const endianTag uint32 = 0x01020304

// Section indices. Order is fixed; the directory is indexed by these.
const (
	secMeta      = iota // JSON metaDoc
	secFrames           // []mem.Frame, the frame-table chunks below the bump pointer
	secFreeList         // []arch.FrameNum, allocator free list (LIFO order)
	secPTEs             // []pagetable.PTE, all leaf tables at LeafEntries stride
	secPTSlots          // []pagetable.SlotSnapshot, NumSlots per process, PID order
	secFilePages        // []vm.FilePage, page-cache arrays back to back
	secCacheTags        // []uint32: L2 then per-CPU L1I, L1D tag arrays
	secCacheAge         // []uint64, same order
	numSections
)

// digestOff locates the body digest, right after the directory.
const digestOff = 32 + numSections*16

const headerSize = digestOff + sha256.Size

// sectionRange locates one section in the file.
type sectionRange struct {
	Off, Len uint64
}

var crcTable = crc32.MakeTable(crc32.Castagnoli)

// hostIsLittleEndian reports the running platform's byte order.
func hostIsLittleEndian() bool {
	x := uint16(1)
	return *(*byte)(unsafe.Pointer(&x)) == 1
}

// hostPutUint32 stores v in the platform's native byte order — how the
// endianness tag is written, so a cross-endian reader sees it reversed.
// Callers pass offsets into a heap-allocated header buffer; the
// alignment guard turns a miscomputed offset into a loud panic instead
// of a silently-working-on-x86, faulting-on-arm store.
func hostPutUint32(b []byte, v uint32) {
	_ = b[3]
	if uintptr(unsafe.Pointer(&b[0]))%unsafe.Alignof(v) != 0 {
		panic("imagestore: unaligned native uint32 store")
	}
	*(*uint32)(unsafe.Pointer(&b[0])) = v
}

// layoutHash folds the sizes and offsets of every struct the format
// casts in place into one word, so a file written under a different
// layout (another word size, field reordering after a refactor) is
// rejected by the header check before any cast happens.
func layoutHash() uint32 {
	var f mem.Frame
	var p pagetable.PTE
	var sl pagetable.SlotSnapshot
	var fp vm.FilePage
	vals := []uintptr{
		unsafe.Sizeof(f), unsafe.Offsetof(f.Num), unsafe.Offsetof(f.Kind), unsafe.Offsetof(f.MapCount),
		unsafe.Sizeof(p), unsafe.Offsetof(p.Frame), unsafe.Offsetof(p.Flags), unsafe.Offsetof(p.Soft),
		unsafe.Sizeof(sl), unsafe.Offsetof(sl.Table), unsafe.Offsetof(sl.Domain), unsafe.Offsetof(sl.NeedCopy),
		unsafe.Sizeof(fp), unsafe.Offsetof(fp.Idx), unsafe.Offsetof(fp.Frame),
	}
	h := uint32(2166136261)
	for _, v := range vals {
		h = (h ^ uint32(v)) * 16777619
	}
	return h
}

// layoutOK reports whether the running platform has the struct layout
// this format assumes. When it errors the store disables itself: images
// are neither written nor read, and everything boots cold.
func layoutOK() error {
	if !hostIsLittleEndian() {
		return fmt.Errorf("imagestore: big-endian host not supported")
	}
	if s := unsafe.Sizeof(mem.Frame{}); s != 16 {
		return fmt.Errorf("imagestore: mem.Frame is %d bytes, format wants 16", s)
	}
	if s := unsafe.Sizeof(pagetable.PTE{}); s != 8 {
		return fmt.Errorf("imagestore: pagetable.PTE is %d bytes, format wants 8", s)
	}
	if s := unsafe.Sizeof(pagetable.SlotSnapshot{}); s != 8 {
		return fmt.Errorf("imagestore: pagetable.SlotSnapshot is %d bytes, format wants 8", s)
	}
	if s := unsafe.Sizeof(vm.FilePage{}); s != 8 {
		return fmt.Errorf("imagestore: vm.FilePage is %d bytes, format wants 8", s)
	}
	return nil
}

// parseHeader validates the fixed header and checksum and returns the
// section directory. It allocates nothing (the benchmark pins this): a
// warm-path load pays a crc32 pass over the file plus bounds checks.
func parseHeader(data []byte) (dir [numSections]sectionRange, err error) {
	if len(data) < headerSize {
		return dir, fmt.Errorf("imagestore: file is %d bytes, header needs %d", len(data), headerSize)
	}
	if string(data[0:8]) != magic {
		return dir, fmt.Errorf("imagestore: bad magic %q", data[0:8])
	}
	le := binary.LittleEndian
	if v := le.Uint32(data[8:12]); v != FormatVersion {
		return dir, fmt.Errorf("imagestore: format version %d, want %d", v, FormatVersion)
	}
	// The tag was written natively; reading it with the host's order must
	// give it back, so a cross-endian file mismatches. The mapping base
	// is page-aligned in practice, but data may also be a plain read
	// fallback buffer, so prove the 4-byte alignment before the native
	// read rather than assume it.
	if uintptr(unsafe.Pointer(&data[12]))%unsafe.Alignof(endianTag) != 0 {
		return dir, fmt.Errorf("imagestore: header base misaligned for native tag read")
	}
	if tag := *(*uint32)(unsafe.Pointer(&data[12])); tag != endianTag {
		return dir, fmt.Errorf("imagestore: endianness tag %#x, want %#x", tag, endianTag)
	}
	if sum := le.Uint64(data[16:24]); sum != uint64(crc32.Checksum(data[24:], crcTable)) {
		return dir, fmt.Errorf("imagestore: checksum mismatch")
	}
	if n := le.Uint32(data[24:28]); n != numSections {
		return dir, fmt.Errorf("imagestore: %d sections, want %d", n, numSections)
	}
	if h := le.Uint32(data[28:32]); h != layoutHash() {
		return dir, fmt.Errorf("imagestore: struct layout hash %#x, want %#x", h, layoutHash())
	}
	for i := 0; i < numSections; i++ {
		off := le.Uint64(data[32+i*16:])
		n := le.Uint64(data[32+i*16+8:])
		if off%8 != 0 {
			return dir, fmt.Errorf("imagestore: section %d misaligned at %d", i, off)
		}
		if off < headerSize || off > uint64(len(data)) || n > uint64(len(data))-off {
			return dir, fmt.Errorf("imagestore: section %d spans [%d,%d) beyond %d bytes", i, off, off+n, len(data))
		}
		dir[i] = sectionRange{Off: off, Len: n}
	}
	return dir, nil
}

// bytesOf reinterprets a struct slice as its raw bytes.
func bytesOf[T any](s []T) []byte {
	if len(s) == 0 {
		return nil
	}
	var t T
	return unsafe.Slice((*byte)(unsafe.Pointer(unsafe.SliceData(s))), uintptr(len(s))*unsafe.Sizeof(t))
}

// castSlice reinterprets one section's bytes as a struct slice, in
// place: no copy, the result aliases data. The byte length must be an
// exact multiple of the element size and the base must be aligned for
// it (section offsets are 8-aligned and the mapping base is at least
// 8-aligned, so this only fails on corrupt directories).
func castSlice[T any](data []byte, r sectionRange, what string) ([]T, error) {
	var t T
	size := unsafe.Sizeof(t)
	if uintptr(r.Len)%size != 0 {
		return nil, fmt.Errorf("imagestore: %s section is %d bytes, not a multiple of %d", what, r.Len, size)
	}
	n := uintptr(r.Len) / size
	if n == 0 {
		return nil, nil
	}
	base := unsafe.Pointer(unsafe.SliceData(data[r.Off:]))
	if uintptr(base)%unsafe.Alignof(t) != 0 {
		return nil, fmt.Errorf("imagestore: %s section base misaligned", what)
	}
	return unsafe.Slice((*T)(base), n), nil
}
