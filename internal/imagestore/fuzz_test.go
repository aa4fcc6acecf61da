package imagestore

import (
	"encoding/binary"
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
// The seeds are built here rather than committed (an image is ~4.5 MiB):
// a valid image, truncations at every section boundary, bit flips in
// the header, the metadata and every binary section, each flip both
// with the stale checksum and with a recomputed one, and cache-section
// edits that the set records cannot represent (see cacheSeeds). Plain
// go test replays them; go test -fuzz=FuzzImageLoad explores from them.
func FuzzImageLoad(f *testing.F) {
	u := workload.DefaultUniverse()
	img := checkpoint.Capture(bootSys(f, android.Options{}))
	want := img.FingerprintDigest()
	good := encodeBytes(f, bootKey(android.Options{}), img)
	dir, err := parseHeader(good)
	if err != nil {
		f.Fatal(err)
	}

	f.Add(good, false)
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
	for _, mutated := range cacheSeeds(f, good, dir, u) {
		f.Add(mutated, true)
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

// cacheSeeds returns copies of the valid image good whose cache
// sections break an invariant of cache.Restore: the first L2 set's
// way 0 emptied while its other ways stay valid, and the first L2
// register's way set to the associativity. The checksum is recomputed,
// and the decoder reaches cache.Restore before its fingerprint check,
// so each seed must fail there, with Restore's own error; this checks
// that it does.
func cacheSeeds(f *testing.F, good []byte, dir [numSections]sectionRange, u *workload.Universe) [][]byte {
	f.Helper()
	le := binary.LittleEndian
	edits := []struct {
		off  uint64
		val  uint32
		want string
	}{
		{dir[secCacheTags].Off, ^uint32(0), "valid after an empty way"},
		{dir[secCacheMRU].Off + 8, 8, "outside 8 ways"},
	}
	var seeds [][]byte
	for _, e := range edits {
		mutated := alignedCopy(good)
		le.PutUint32(mutated[e.off:], e.val)
		le.PutUint64(mutated[16:24], uint64(crc32.Checksum(mutated[24:], crcTable)))
		if _, _, err := decodeImage(mutated, u); err == nil || !strings.Contains(err.Error(), e.want) {
			f.Fatalf("cache seed at offset %d: decode error %v, want one containing %q", e.off, err, e.want)
		}
		seeds = append(seeds, mutated)
	}
	return seeds
}
