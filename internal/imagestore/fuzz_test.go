package imagestore

import (
	"encoding/binary"
	"encoding/json"
	"flag"
	"hash/crc32"
	"slices"
	"strings"
	"testing"
	"unsafe"

	"repro/internal/android"
	"repro/internal/checkpoint"
	"repro/internal/mem"
	"repro/internal/tlb"
	"repro/internal/workload"
)

// FuzzImageLoad feeds arbitrary bytes to the image decoder. Whatever the
// input, the decoder must return an error or an image that re-encodes to
// the body digest of the saved image; it must never panic. With fixCRC
// the checksum is recomputed over the input first, so mutations get past
// the header's checksum to the structural checks and the digest check.
//
// The seeds are built here rather than committed (an image is ~0.7 MiB).
// A fuzzing run (go test -fuzz=FuzzImageLoad) starts from three small
// ones: no bytes, and a valid image's first 24 bytes and its header. It
// measures baseline coverage on every seed before it mutates one, and
// the image seeds (see addImageSeeds) would spend a short run's whole
// budget there; plain go test replays those as well.
func FuzzImageLoad(f *testing.F) {
	u := workload.DefaultUniverse()
	img := checkpoint.Capture(bootSys(f, android.Options{}))
	key := bootKey(android.Options{})
	want := bodyDigest(f, key, img)
	good := encodeBytes(f, key, img)
	dir, err := parseHeader(good)
	if err != nil {
		f.Fatal(err)
	}

	f.Add([]byte{}, false)
	f.Add(good[:24:24], true)
	f.Add(good[:headerSize:headerSize], true)
	if !fuzzing() {
		addImageSeeds(f, good, dir, u)
	}

	f.Fuzz(func(t *testing.T, data []byte, fixCRC bool) {
		buf := alignedCopy(data)
		if fixCRC && len(buf) >= 24 {
			binary.LittleEndian.PutUint64(buf[16:24], uint64(crc32.Checksum(buf[24:], crcTable)))
		}
		got, _, err := decodeImage(buf, u)
		if err != nil {
			return
		}
		if bodyDigest(t, key, got) != want {
			t.Fatal("decoder admitted an image whose body digest differs from the saved one")
		}
	})
}

// fuzzing reports whether the test binary runs a fuzzing engine
// (go test -fuzz), rather than replaying the seeds.
func fuzzing() bool {
	fl := flag.Lookup("test.fuzz")
	return fl != nil && fl.Value.String() != ""
}

// addImageSeeds adds the whole-image seeds: the valid image good, edits
// that must fail a named decoder check (see addRejectSeeds), truncations
// at every section boundary, and bit flips in the header, the metadata
// and every binary section, each flip both with the stale checksum and
// with a recomputed one.
func addImageSeeds(f *testing.F, good []byte, dir [numSections]sectionRange, u *workload.Universe) {
	f.Helper()
	f.Add(good, false)
	addRejectSeeds(f, good, dir, u)
	cuts := []int{0, 8, 24, headerSize - 1}
	for _, r := range dir {
		cuts = append(cuts, int(r.Off), int(r.Off+r.Len/2), int(r.Off+r.Len))
	}
	for _, n := range cuts {
		if n < len(good) {
			f.Add(good[:n:n], false)
			f.Add(good[:n:n], true)
		}
	}
	// Header fields (magic, version, endianness tag, checksum, section
	// count, layout hash, first and last directory entries, first and
	// last byte of the body digest), then the middle of every section.
	// The two variants of a flip share one buffer: the fuzz function
	// copies its input before touching it.
	flips := []int{0, 8, 12, 16, 24, 28, 32, 40, digestOff - 16, digestOff - 8, digestOff, headerSize - 1}
	for _, r := range dir {
		if r.Len > 0 {
			flips = append(flips, int(r.Off+r.Len/2))
		}
	}
	for _, off := range flips {
		mutated := append([]byte(nil), good...)
		mutated[off] ^= 0x10
		f.Add(mutated, false)
		f.Add(mutated, true)
	}
}

// addRejectSeeds adds copies of the valid image good, each with its
// checksum recomputed, that the decoder must reject in one named check;
// this checks that it does. One breaks an invariant of cache.Restore,
// which the decoder reaches before its digest check: the first L2
// set's way 0 emptied while its other ways stay valid. One cuts the frame
// section's length to a non-multiple of the frame size, which castSlice
// rejects, and one cuts it by a whole chunk, below what the bump pointer
// needs. One moves the frame section's offset 4 bytes off 8-alignment,
// which parseHeader rejects before any cast (a misaligned section base
// can only come from a misaligned buffer; TestCastSliceRejectsBadSections
// covers that branch). One replaces the free list with a single entry
// equal to the bump pointer, which mem.Restore rejects. Three change
// only state that no structural check sees, so the body digest check
// must reject them: frame 0's MapCount raised by one in the frame
// section, the first valid cache tag with bit 8 flipped (cache.Restore
// accepts any tag), and the frame of the
// main TLB's first valid entry in the metadata. Four check the carving
// of the cache arrays and the header's version: the version field set
// to the previous format's (an image saved before the last format
// change), the age section cut by 4 bytes (not a whole age word), the
// tag section cut by one tag (the last level runs short), and the age
// section lengthened by one word (a word left over).
func addRejectSeeds(f *testing.F, good []byte, dir [numSections]sectionRange, u *workload.Universe) {
	f.Helper()
	le := binary.LittleEndian
	const chunkBytes = 4096 * 16 // one mem chunk of 16-byte Frames
	edits := []struct {
		edit func(b []byte)
		want string
	}{
		{func(b []byte) { le.PutUint32(b[dir[secCacheTags].Off:], ^uint32(0)) }, "valid after an empty way"},
		{func(b []byte) { le.PutUint64(b[32+secFrames*16+8:], dir[secFrames].Len-8) }, "not a multiple of"},
		{func(b []byte) { le.PutUint64(b[32+secFrames*16+8:], dir[secFrames].Len-chunkBytes) }, "frames, bump pointer"},
		{func(b []byte) { le.PutUint64(b[32+secFrames*16:], dir[secFrames].Off+4) }, "misaligned at"},
		{func(b []byte) { le.PutUint32(b[8:12], FormatVersion-1) }, "format version"},
		{func(b []byte) { le.PutUint64(b[32+secCacheAge*16+8:], dir[secCacheAge].Len-4) }, "not a multiple of 8"},
		{func(b []byte) { le.PutUint64(b[32+secCacheTags*16+8:], dir[secCacheTags].Len-4) }, "cache sections exhausted"},
		{func(b []byte) {
			mapCount := b[dir[secFrames].Off+uint64(unsafe.Offsetof(mem.Frame{}.MapCount)):]
			le.PutUint64(mapCount, le.Uint64(mapCount)+1)
		}, "digest mismatch"},
		{func(b []byte) {
			tags := section(b, dir[secCacheTags])
			for i := 0; i < len(tags); i += 4 {
				if tag := le.Uint32(tags[i:]); tag != ^uint32(0) {
					le.PutUint32(tags[i:], tag^0x100)
					return
				}
			}
			f.Fatal("reject seed: the booted caches hold no valid line")
		}, "digest mismatch"},
	}
	reject := func(mutated []byte, want string) {
		le.PutUint64(mutated[16:24], uint64(crc32.Checksum(mutated[24:], crcTable)))
		if _, _, err := decodeImage(mutated, u); err == nil || !strings.Contains(err.Error(), want) {
			f.Fatalf("reject seed: decode error %v, want one containing %q", err, want)
		}
		f.Add(mutated, true)
	}
	for _, e := range edits {
		mutated := alignedCopy(good)
		e.edit(mutated)
		reject(mutated, e.want)
	}
	var meta metaDoc
	if err := json.Unmarshal(section(good, dir[secMeta]), &meta); err != nil {
		f.Fatal(err)
	}
	next := meta.System.Kernel.Phys.Next
	reject(withSection(good, secFreeList, le.AppendUint32(nil, uint32(next))), "at or beyond bump pointer")
	ages := append(slices.Clone(section(good, dir[secCacheAge])), make([]byte, 8)...)
	reject(withSection(good, secCacheAge, ages), "1 age words left over")

	entries := meta.System.Kernel.CPUs[0].Main.Entries
	i := slices.IndexFunc(entries, func(e tlb.EntrySnapshot) bool { return e.Valid })
	if i < 0 {
		f.Fatal("reject seed: the booted main TLB holds no valid entry")
	}
	entries[i].Frame++
	doc, err := json.Marshal(&meta)
	if err != nil {
		f.Fatal(err)
	}
	reject(withSection(good, secMeta, doc), "digest mismatch")
}

// withSection returns a copy of the image file data, whose length is
// 8-aligned as writeImage pads it, with body appended and section sec's
// directory entry pointed at it, and the checksum recomputed. The
// section's old bytes stay in place, unreferenced.
func withSection(data []byte, sec int, body []byte) []byte {
	le := binary.LittleEndian
	out := alignedCopy(append(data[:len(data):len(data)], body...))
	le.PutUint64(out[32+sec*16:], uint64(len(data)))
	le.PutUint64(out[32+sec*16+8:], uint64(len(body)))
	le.PutUint64(out[16:24], uint64(crc32.Checksum(out[24:], crcTable)))
	return out
}
