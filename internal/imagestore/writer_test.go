// Tests for the streamed image writer: its bytes equal those of the
// assemble-a-buffer reference encoder below on every launch prefix, and
// one boot image's body digest is pinned so the encoding cannot drift
// unnoticed.

package imagestore

import (
	"bytes"
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"hash/crc32"
	"testing"

	"repro/internal/android"
	"repro/internal/arch"
	"repro/internal/checkpoint"
	"repro/internal/core"
	"repro/internal/mem"
	"repro/internal/pagetable"
	"repro/internal/vm"
	"repro/internal/workload"
)

// encodeImageReference is the straightforward encoder the streamed
// writer replaced, kept as its reference: it flattens every section into
// its own array, assembles the whole file in one buffer, and digests
// the assembled body in one call.
func encodeImageReference(key string, img *checkpoint.Image) ([]byte, error) {
	snap, files, tables := img.Proto().SnapshotState()
	m, ok := arch.Lookup(snap.Kernel.Arch)
	if !ok {
		return nil, fmt.Errorf("imagestore: unknown architecture %q", snap.Kernel.Arch)
	}
	stride := m.Geometry().LeafEntries

	meta := metaDoc{Key: key}

	var frames []mem.Frame
	for _, c := range snap.Kernel.Phys.Chunks {
		frames = append(frames, c...)
	}
	snap.Kernel.Phys.Chunks = nil
	freeList := snap.Kernel.Phys.FreeList
	snap.Kernel.Phys.FreeList = nil

	var tags []uint32
	var ages []uint64
	for _, cs := range cacheSnapshots(&snap.Kernel) {
		tags = append(tags, cs.Tags...)
		ages = append(ages, cs.Age...)
		cs.Tags, cs.Age = nil, nil
	}

	var slots []pagetable.SlotSnapshot
	for i := range snap.Kernel.Procs {
		pt := &snap.Kernel.Procs[i].MM.PT
		slots = append(slots, pt.Slots...)
		pt.Slots = nil
	}

	ptes := make([]pagetable.PTE, 0, len(tables)*stride)
	meta.TableFrames = make([]arch.FrameNum, len(tables))
	for i, t := range tables {
		p := t.SnapshotPTEs()
		if len(p) != stride {
			return nil, fmt.Errorf("imagestore: leaf table %d has %d PTEs, geometry wants %d", i, len(p), stride)
		}
		ptes = append(ptes, p...)
		meta.TableFrames[i] = t.Frame
	}

	var filePages []vm.FilePage
	meta.FileRanges = make([]fileRange, len(files))
	for i, f := range files {
		pg := f.SnapshotPages()
		meta.FileRanges[i] = fileRange{Off: len(filePages), N: len(pg)}
		filePages = append(filePages, pg...)
	}

	meta.System = snap
	metaJSON, err := json.Marshal(&meta)
	if err != nil {
		return nil, fmt.Errorf("imagestore: encoding metadata: %w", err)
	}

	sections := [numSections][]byte{
		secMeta:      metaJSON,
		secFrames:    bytesOf(frames),
		secFreeList:  bytesOf(freeList),
		secPTEs:      bytesOf(ptes),
		secPTSlots:   bytesOf(slots),
		secFilePages: bytesOf(filePages),
		secCacheTags: bytesOf(tags),
		secCacheAge:  bytesOf(ages),
	}

	var dir [numSections]sectionRange
	off := uint64(headerSize)
	for i, s := range sections {
		off = (off + 7) &^ 7
		dir[i] = sectionRange{Off: off, Len: uint64(len(s))}
		off += uint64(len(s))
	}
	buf := make([]byte, (off+7)&^7)
	le := binary.LittleEndian
	copy(buf[0:8], magic)
	le.PutUint32(buf[8:12], FormatVersion)
	hostPutUint32(buf[12:16], endianTag)
	le.PutUint32(buf[24:28], numSections)
	le.PutUint32(buf[28:32], layoutHash())
	for i, r := range dir {
		le.PutUint64(buf[32+i*16:], r.Off)
		le.PutUint64(buf[32+i*16+8:], r.Len)
	}
	for i, s := range sections {
		copy(buf[dir[i].Off:], s)
	}
	body := sha256.Sum256(buf[headerSize:])
	copy(buf[digestOff:headerSize], body[:])
	le.PutUint64(buf[16:24], uint64(crc32.Checksum(buf[24:], crcTable)))
	return buf, nil
}

// encodeBytes returns the streamed writer's output for img in an
// 8-aligned buffer, so the decoder's in-place casts accept it the way
// they accept a file mapping.
func encodeBytes(t testing.TB, key string, img *checkpoint.Image) []byte {
	t.Helper()
	var b bytes.Buffer
	if err := writeImage(&b, key, img); err != nil {
		t.Fatal(err)
	}
	return alignedCopy(b.Bytes())
}

// bodyDigest returns the body digest img's image file stores under key:
// the value the loader compares, so two machines with equal digests
// store the same state.
func bodyDigest(t testing.TB, key string, img *checkpoint.Image) [sha256.Size]byte {
	t.Helper()
	runs, err := layoutImage(key, img)
	if err != nil {
		t.Fatal(err)
	}
	return [sha256.Size]byte(runs[0][digestOff:headerSize])
}

// alignedCopy copies data into a buffer backed by []uint64.
func alignedCopy(data []byte) []byte { return shiftedCopy(data, 0) }

// shiftedCopy copies data to shift%8 bytes past an 8-aligned address.
func shiftedCopy(data []byte, shift uint8) []byte {
	s := int(shift % 8)
	buf := bytesOf(make([]uint64, (s+len(data)+7)/8))[s : s+len(data)]
	copy(buf, data)
	return buf
}

// launchPrefix is one boot prefix of the launch study (Figs 7-9).
type launchPrefix struct {
	cfg    core.Config
	layout android.Layout
	arch   string
}

func (p launchPrefix) String() string {
	return fmt.Sprintf("%s/%+v/layout=%d", p.arch, p.cfg, p.layout)
}

// launchPrefixes lists the 16 prefixes of the launch study: four
// kernels, two layouts, both MMU backends.
func launchPrefixes() []launchPrefix {
	var ps []launchPrefix
	for _, a := range []string{"armv7", "sv39"} {
		for _, layout := range []android.Layout{android.LayoutOriginal, android.Layout2MB} {
			for _, cfg := range []core.Config{core.Stock(), core.CopiedPTEs(), core.SharedPTP(), core.SharedPTPTLB()} {
				ps = append(ps, launchPrefix{cfg, layout, a})
			}
		}
	}
	return ps
}

// TestWriterMatchesReference pins the streamed writer to the reference
// encoder byte for byte, body digest included, on every launch prefix:
// freshly booted, and after a
// fork plus an app launch (a machine whose page tables, frame chunks and
// page cache have diverged from the boot image's).
func TestWriterMatchesReference(t *testing.T) {
	u := workload.DefaultUniverse()
	hello := workload.BuildProfile(u, workload.HelloWorldSpec())
	for _, p := range launchPrefixes() {
		t.Run(p.String(), func(t *testing.T) {
			opts := android.Options{Arch: p.arch}
			sys, err := android.BootOpts(p.cfg, p.layout, u, opts)
			if err != nil {
				t.Fatal(err)
			}
			key := checkpoint.Key(p.cfg, p.layout, u, opts)
			boot := checkpoint.Capture(sys)
			fork := boot.Fork()
			if _, _, err := fork.LaunchApp(hello, 1); err != nil {
				t.Fatal(err)
			}
			launched := checkpoint.Capture(fork)
			for _, tc := range []struct {
				name string
				img  *checkpoint.Image
			}{{"boot", boot}, {"launched", launched}} {
				want, err := encodeImageReference(key, tc.img)
				if err != nil {
					t.Fatal(err)
				}
				if got := encodeBytes(t, key, tc.img); !bytes.Equal(got, want) {
					t.Errorf("%s: streamed image differs from the reference encoding (%d vs %d bytes)",
						tc.name, len(got), len(want))
				}
			}
		})
	}
}

// bootDigest pins the body digest of the default armv7 shared-PTP boot
// image. A change to the encoding, or to the booted machine, must update
// it in a reviewed diff: a silent change would invalidate every store.
const bootDigest = "9f9fdec0290906525e903ac1e136ac469e49921fb66a70db909913563347ad11"

func TestFingerprintDigestPinned(t *testing.T) {
	img := checkpoint.Capture(bootSys(t, android.Options{}))
	if got := bodyDigest(t, bootKey(android.Options{}), img); hex.EncodeToString(got[:]) != bootDigest {
		t.Errorf("boot image body digest %x, pinned %s", got, bootDigest)
	}
}
