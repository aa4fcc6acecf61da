package imagestore

import (
	"encoding/binary"
	"flag"
	"hash/crc32"
	"strings"
	"testing"

	"repro/internal/android"
	"repro/internal/checkpoint"
	"repro/internal/workload"
)

// FuzzImageLoad feeds arbitrary bytes to the image decoder. Whatever the
// input, the decoder must return an error or an image whose fingerprint
// digest equals the saved image's; it must never panic. With fixCRC the
// checksum is recomputed over the input first, so mutations get past the
// header's checksum to the structural checks and the digest check.
//
// The seeds are built here rather than committed (an image is ~4.5 MiB).
// A fuzzing run (go test -fuzz=FuzzImageLoad) starts from three small
// ones: no bytes, and a valid image's first 24 bytes and its header. It
// measures baseline coverage on every seed before it mutates one, and
// the image seeds (see addImageSeeds) would spend a short run's whole
// budget there; plain go test replays those as well.
func FuzzImageLoad(f *testing.F) {
	u := workload.DefaultUniverse()
	img := checkpoint.Capture(bootSys(f, android.Options{}))
	want := img.FingerprintDigest()
	good := encodeBytes(f, bootKey(android.Options{}), img)
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
		if got.FingerprintDigest() != want {
			t.Fatal("decoder admitted an image whose fingerprint differs from the saved one")
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
	// count, layout hash, first and last directory entries), then the
	// middle of every section. The two variants of a flip share one
	// buffer: the fuzz function copies its input before touching it.
	flips := []int{0, 8, 12, 16, 24, 28, 32, 40, headerSize - 16, headerSize - 8}
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
// this checks that it does. Two break an invariant of cache.Restore,
// which the decoder reaches before its fingerprint check: the first L2
// set's way 0 emptied while its other ways stay valid, and the first L2
// register's way set to the associativity. One cuts the frame
// section's length to a non-multiple of the frame size, which castSlice
// rejects. One moves the frame section's offset 4 bytes off 8-alignment,
// which parseHeader rejects before any cast (a misaligned section base
// can only come from a misaligned buffer; TestCastSliceRejectsBadSections
// covers that branch).
func addRejectSeeds(f *testing.F, good []byte, dir [numSections]sectionRange, u *workload.Universe) {
	f.Helper()
	le := binary.LittleEndian
	edits := []struct {
		edit func(b []byte)
		want string
	}{
		{func(b []byte) { le.PutUint32(b[dir[secCacheTags].Off:], ^uint32(0)) }, "valid after an empty way"},
		{func(b []byte) { le.PutUint32(b[dir[secCacheMRU].Off+8:], 8) }, "outside 8 ways"},
		{func(b []byte) { le.PutUint64(b[32+secFrames*16+8:], dir[secFrames].Len-8) }, "not a multiple of"},
		{func(b []byte) { le.PutUint64(b[32+secFrames*16:], dir[secFrames].Off+4) }, "misaligned at"},
	}
	for i, e := range edits {
		mutated := alignedCopy(good)
		e.edit(mutated)
		le.PutUint64(mutated[16:24], uint64(crc32.Checksum(mutated[24:], crcTable)))
		if _, _, err := decodeImage(mutated, u); err == nil || !strings.Contains(err.Error(), e.want) {
			f.Fatalf("reject seed %d: decode error %v, want one containing %q", i, err, e.want)
		}
		f.Add(mutated, true)
	}
}
