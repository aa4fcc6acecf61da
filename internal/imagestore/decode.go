package imagestore

import (
	"bytes"
	"encoding/json"
	"fmt"

	"repro/internal/android"
	"repro/internal/arch"
	"repro/internal/cache"
	"repro/internal/checkpoint"
	"repro/internal/mem"
	"repro/internal/pagetable"
	"repro/internal/vm"
	"repro/internal/workload"
)

// section returns one section's bytes; parseHeader has already bounds-
// checked the range against the data.
func section(data []byte, r sectionRange) []byte {
	return data[r.Off : r.Off+r.Len : r.Off+r.Len]
}

// validCacheConfig pre-checks the invariants cache.New would panic on,
// so a file with fabricated metadata is rejected with an error instead.
func validCacheConfig(c cache.Config) error {
	if c.Size <= 0 || c.LineSize <= 0 || c.Assoc <= 0 || c.Assoc > 8 {
		return fmt.Errorf("imagestore: cache %q has impossible config %+v", c.Name, c)
	}
	if c.LineSize&(c.LineSize-1) != 0 {
		return fmt.Errorf("imagestore: cache %q line size %d not a power of two", c.Name, c.LineSize)
	}
	nSets := c.Size / (c.LineSize * c.Assoc)
	if nSets <= 0 || nSets&(nSets-1) != 0 {
		return fmt.Errorf("imagestore: cache %q set count %d not a positive power of two", c.Name, nSets)
	}
	return nil
}

// decodeImage reconstructs the stored machine from one image file's
// bytes, verifying structure at every step. Last, it re-encodes the
// rebuilt machine with the writer's own layoutImage and admits it only
// if that body's digest equals the one stored in the header: the stored
// bytes are the saved ones and the decode reproduced them exactly. The
// structural checks come first, so a malformed file fails at the check
// that names its defect. The big arrays of the result
// alias data: the caller must keep the mapping alive for the life of
// the image, and may only unmap it when decoding fails.
func decodeImage(data []byte, u *workload.Universe) (*checkpoint.Image, string, error) {
	dir, err := parseHeader(data)
	if err != nil {
		return nil, "", err
	}
	var meta metaDoc
	if err := json.Unmarshal(section(data, dir[secMeta]), &meta); err != nil {
		return nil, "", fmt.Errorf("imagestore: decoding metadata: %w", err)
	}
	snap := &meta.System
	m, ok := arch.Lookup(snap.Kernel.Arch)
	if !ok {
		return nil, "", fmt.Errorf("imagestore: image for unknown architecture %q", snap.Kernel.Arch)
	}
	geo := m.Geometry()

	// Physical frame table below the bump pointer and allocator free list.
	frames, err := castSlice[mem.Frame](data, dir[secFrames], "frame")
	if err != nil {
		return nil, "", err
	}
	if want := snap.Kernel.Phys.StoredFrames(); len(frames) != want {
		return nil, "", fmt.Errorf("imagestore: frame section holds %d frames, bump pointer %d needs %d",
			len(frames), snap.Kernel.Phys.Next, want)
	}
	freeList, err := castSlice[arch.FrameNum](data, dir[secFreeList], "free-list")
	if err != nil {
		return nil, "", err
	}
	snap.Kernel.Phys.Chunks = mem.ChunkViews(frames)
	snap.Kernel.Phys.FreeList = freeList
	phys, err := mem.Restore(snap.Kernel.Phys)
	if err != nil {
		return nil, "", err
	}

	// Cache arrays, carved in the fixed level order.
	tags, err := castSlice[uint32](data, dir[secCacheTags], "cache-tag")
	if err != nil {
		return nil, "", err
	}
	ages, err := castSlice[uint64](data, dir[secCacheAge], "cache-age")
	if err != nil {
		return nil, "", err
	}
	for _, cs := range cacheSnapshots(&snap.Kernel) {
		if err := validCacheConfig(cs.Config); err != nil {
			return nil, "", err
		}
		nSets := cs.Config.Size / (cs.Config.LineSize * cs.Config.Assoc)
		nTags := nSets * cs.Config.Assoc
		if nTags > len(tags) || nSets > len(ages) {
			return nil, "", fmt.Errorf("imagestore: cache sections exhausted at level %q", cs.Config.Name)
		}
		cs.Tags, tags = tags[:nTags:nTags], tags[nTags:]
		cs.Age, ages = ages[:nSets:nSets], ages[nSets:]
	}
	if len(tags) != 0 || len(ages) != 0 {
		return nil, "", fmt.Errorf("imagestore: %d tags and %d age words left over", len(tags), len(ages))
	}

	// Page-table slot arrays: geo.NumSlots() per process, PID order.
	slots, err := castSlice[pagetable.SlotSnapshot](data, dir[secPTSlots], "slot")
	if err != nil {
		return nil, "", err
	}
	nSlots := geo.NumSlots()
	if len(slots) != len(snap.Kernel.Procs)*nSlots {
		return nil, "", fmt.Errorf("imagestore: slot section holds %d entries for %d processes of %d",
			len(slots), len(snap.Kernel.Procs), nSlots)
	}
	for i := range snap.Kernel.Procs {
		snap.Kernel.Procs[i].MM.PT.Slots = slots[i*nSlots : (i+1)*nSlots : (i+1)*nSlots]
	}

	// Leaf page tables: one fixed-stride PTE run per table.
	ptes, err := castSlice[pagetable.PTE](data, dir[secPTEs], "PTE")
	if err != nil {
		return nil, "", err
	}
	stride := geo.LeafEntries
	if len(ptes) != len(meta.TableFrames)*stride {
		return nil, "", fmt.Errorf("imagestore: PTE section holds %d entries for %d tables of %d",
			len(ptes), len(meta.TableFrames), stride)
	}
	tables := make([]*pagetable.LeafTable, len(meta.TableFrames))
	for i, frame := range meta.TableFrames {
		run := ptes[i*stride : (i+1)*stride : (i+1)*stride]
		tables[i] = pagetable.RestoreLeafTable(frame, run, geo.EntryBytes)
	}

	// Page-cache files.
	filePages, err := castSlice[vm.FilePage](data, dir[secFilePages], "file-page")
	if err != nil {
		return nil, "", err
	}
	if len(meta.FileRanges) != len(snap.Files) {
		return nil, "", fmt.Errorf("imagestore: %d file ranges for %d files", len(meta.FileRanges), len(snap.Files))
	}
	files := make([]*vm.File, len(snap.Files))
	for i, fm := range snap.Files {
		r := meta.FileRanges[i]
		if r.Off < 0 || r.N < 0 || r.Off > len(filePages) || r.N > len(filePages)-r.Off {
			return nil, "", fmt.Errorf("imagestore: file %q pages [%d,%d) beyond %d stored pages",
				fm.Name, r.Off, r.Off+r.N, len(filePages))
		}
		files[i] = vm.RestoreFile(phys, fm.Name, fm.Size, filePages[r.Off:r.Off+r.N:r.Off+r.N])
	}

	sys, err := android.RestoreSystem(*snap, u, phys, files, tables)
	if err != nil {
		return nil, "", err
	}
	img := checkpoint.Adopt(sys)
	runs, err := layoutImage(meta.Key, img)
	if err != nil {
		return nil, "", err
	}
	if !bytes.Equal(runs[0][digestOff:headerSize], data[digestOff:headerSize]) {
		return nil, "", fmt.Errorf("imagestore: digest mismatch: restored machine does not re-encode to the stored body")
	}
	return img, meta.Key, nil
}
