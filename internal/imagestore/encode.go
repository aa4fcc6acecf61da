package imagestore

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/json"
	"fmt"
	"hash/crc32"
	"io"

	"repro/internal/android"
	"repro/internal/arch"
	"repro/internal/cache"
	"repro/internal/checkpoint"
	"repro/internal/core"
)

// fileRange locates one file's page array inside the FILEPAGES section,
// in FilePage elements relative to the section start.
type fileRange struct {
	Off, N int
}

// metaDoc is the JSON document of the META section: the full cache key
// (collision guard for the hashed file name), the machine snapshot with
// its bulky arrays stripped into the binary sections, and the placement
// records needed to stitch them back.
type metaDoc struct {
	Key         string
	TableFrames []arch.FrameNum
	FileRanges  []fileRange
	System      android.SystemSnapshot
}

// cacheSnapshots lists the machine's cache levels in the fixed section
// order: the shared L2, then each core's L1I and L1D. Encoder and
// decoder must agree on this order; the arrays are stored back to back
// with lengths derived from each level's Config.
func cacheSnapshots(k *core.KernelSnapshot) []*cache.Snapshot {
	cs := make([]*cache.Snapshot, 0, 1+2*len(k.CPUs))
	cs = append(cs, &k.L2)
	for i := range k.CPUs {
		cs = append(cs, &k.CPUs[i].L1I, &k.CPUs[i].L1D)
	}
	return cs
}

// zeros supplies the alignment padding between sections.
var zeros [8]byte

// writeImage streams the image file for img to w, run by run as
// layoutImage lays it out, with no whole-file buffer.
func writeImage(w io.Writer, key string, img *checkpoint.Image) error {
	runs, err := layoutImage(key, img)
	if err != nil {
		return err
	}
	for _, r := range runs {
		if _, err := w.Write(r); err != nil {
			return err
		}
	}
	return nil
}

// layoutImage lays out the image file for img as a list of byte runs:
// the header, then each section straight from the captured machine's
// own arrays — the frame table chunk by chunk, the PTEs table by table —
// with no flattened copy. The runs form one 8-aligned section layout
// (see format.go); the header's directory is computed from the section
// lengths, then the body digest and last the checksum over the same
// runs. The image's machine is immutable, so the arrays it hands out
// stay valid while the runs are in use. The writer and the loader's
// admission check share this one encoder.
func layoutImage(key string, img *checkpoint.Image) ([][]byte, error) {
	snap, files, tables := img.Proto().SnapshotState()
	m, ok := arch.Lookup(snap.Kernel.Arch)
	if !ok {
		return nil, fmt.Errorf("imagestore: unknown architecture %q", snap.Kernel.Arch)
	}
	stride := m.Geometry().LeafEntries
	meta := metaDoc{Key: key}

	// Strip the bulky arrays out of the snapshot into the sections'
	// pieces; the remaining snapshot is the META document.
	var sections [numSections][][]byte
	for _, c := range snap.Kernel.Phys.Chunks {
		sections[secFrames] = append(sections[secFrames], bytesOf(c))
	}
	snap.Kernel.Phys.Chunks = nil
	sections[secFreeList] = [][]byte{bytesOf(snap.Kernel.Phys.FreeList)}
	snap.Kernel.Phys.FreeList = nil

	for _, cs := range cacheSnapshots(&snap.Kernel) {
		sections[secCacheTags] = append(sections[secCacheTags], bytesOf(cs.Tags))
		sections[secCacheAge] = append(sections[secCacheAge], bytesOf(cs.Age))
		cs.Tags, cs.Age = nil, nil
	}

	for i := range snap.Kernel.Procs {
		pt := &snap.Kernel.Procs[i].MM.PT
		sections[secPTSlots] = append(sections[secPTSlots], bytesOf(pt.Slots))
		pt.Slots = nil
	}

	meta.TableFrames = make([]arch.FrameNum, len(tables))
	for i, t := range tables {
		p := t.SnapshotPTEs()
		if len(p) != stride {
			return nil, fmt.Errorf("imagestore: leaf table %d has %d PTEs, geometry wants %d", i, len(p), stride)
		}
		sections[secPTEs] = append(sections[secPTEs], bytesOf(p))
		meta.TableFrames[i] = t.Frame
	}

	meta.FileRanges = make([]fileRange, len(files))
	nPages := 0
	for i, f := range files {
		pg := f.SnapshotPages()
		meta.FileRanges[i] = fileRange{Off: nPages, N: len(pg)}
		nPages += len(pg)
		sections[secFilePages] = append(sections[secFilePages], bytesOf(pg))
	}

	meta.System = snap
	metaJSON, err := json.Marshal(&meta)
	if err != nil {
		return nil, fmt.Errorf("imagestore: encoding metadata: %w", err)
	}
	sections[secMeta] = [][]byte{metaJSON}

	// Lay the sections out 8-aligned in index order behind the header,
	// as the file's list of byte runs.
	header := make([]byte, headerSize)
	runs := [][]byte{header}
	var dir [numSections]sectionRange
	off := uint64(headerSize)
	pad := func() {
		if n := (off+7)&^7 - off; n > 0 {
			runs = append(runs, zeros[:n])
			off += n
		}
	}
	for i, pieces := range sections {
		pad()
		dir[i].Off = off
		for _, p := range pieces {
			if len(p) > 0 {
				runs = append(runs, p)
				off += uint64(len(p))
			}
		}
		dir[i].Len = off - dir[i].Off
	}
	pad()

	le := binary.LittleEndian
	copy(header[0:8], magic)
	le.PutUint32(header[8:12], FormatVersion)
	hostPutUint32(header[12:16], endianTag)
	le.PutUint32(header[24:28], numSections)
	le.PutUint32(header[28:32], layoutHash())
	for i, r := range dir {
		le.PutUint64(header[32+i*16:], r.Off)
		le.PutUint64(header[32+i*16+8:], r.Len)
	}
	h := sha256.New()
	for _, r := range runs[1:] {
		h.Write(r) // a hash.Hash never returns a write error
	}
	h.Sum(header[digestOff:digestOff])
	sum := crc32.Checksum(header[24:], crcTable)
	for _, r := range runs[1:] {
		sum = crc32.Update(sum, crcTable, r)
	}
	le.PutUint64(header[16:24], uint64(sum))
	return runs, nil
}
