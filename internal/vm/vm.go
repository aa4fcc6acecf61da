// Package vm implements the machine-independent Linux-like virtual memory
// substrate that the shared-address-translation kernel (package core) is
// built on: address spaces (MM), memory regions (VMA, mirroring Linux's
// vm_area_struct), a page cache for file-backed mappings, and the demand
// paging and copy-on-write logic that computes page-table entries for
// faulting pages.
//
// The substrate deliberately stops below kernel policy: deciding whether a
// page-table page may be shared, when to unshare it, and how to install
// the computed PTE (privately or into a shared PTP) is the core package's
// job, exactly as the paper's patch layers over stock Linux mechanisms.
//
// Data frames (anonymous memory and page-cache pages) are allocate-only in
// the simulation: the metrics the paper reports — page faults, PTPs
// allocated, PTEs copied, TLB and cache behavior — never require data
// frames to be reclaimed, so the substrate trades reclamation for
// simplicity. Page-table pages, by contrast, are fully reference-counted
// through their frame mapcount, because PTP lifetime is the object of
// study.
package vm

import (
	"fmt"
	"sort"

	"repro/internal/arch"
	"repro/internal/mem"
	"repro/internal/pagetable"
)

// Prot is a region's access protection.
type Prot uint8

// Protection bits.
const (
	ProtRead Prot = 1 << iota
	ProtWrite
	ProtExec
)

// String renders the protection in ls -l style ("r-x").
func (p Prot) String() string {
	b := []byte("---")
	if p&ProtRead != 0 {
		b[0] = 'r'
	}
	if p&ProtWrite != 0 {
		b[1] = 'w'
	}
	if p&ProtExec != 0 {
		b[2] = 'x'
	}
	return string(b)
}

// Category classifies a region for the instruction-footprint analyses of
// Section 2.3 (Figures 2 and 3 of the paper).
type Category uint8

// Region categories.
const (
	// CatOther covers data, heap, stack and anonymous regions.
	CatOther Category = iota
	// CatPrivateCode is application private code.
	CatPrivateCode
	// CatZygoteDynLib is a zygote-preloaded dynamic shared library
	// (.so) code segment, including the dynamic loader.
	CatZygoteDynLib
	// CatZygoteJavaLib is zygote-preloaded Java shared library code,
	// AOT-compiled to native code by ART at installation time.
	CatZygoteJavaLib
	// CatZygoteBinary is the zygote's C++ main program, app_process.
	CatZygoteBinary
	// CatOtherDynLib is an application-specific or platform-specific
	// dynamic shared library not preloaded by the zygote.
	CatOtherDynLib
)

// String names the category as in the paper's figure legends.
func (c Category) String() string {
	switch c {
	case CatPrivateCode:
		return "private code"
	case CatZygoteDynLib:
		return "zygote-preloaded dynamic shared lib"
	case CatZygoteJavaLib:
		return "zygote-preloaded Java shared lib"
	case CatZygoteBinary:
		return "zygote program binary"
	case CatOtherDynLib:
		return "dynamic shared lib not preloaded by zygote"
	default:
		return "other"
	}
}

// IsSharedCode reports whether the category counts as "shared code" in the
// paper's terminology.
func (c Category) IsSharedCode() bool {
	switch c {
	case CatZygoteDynLib, CatZygoteJavaLib, CatZygoteBinary, CatOtherDynLib:
		return true
	default:
		return false
	}
}

// IsZygotePreloaded reports whether the category is zygote-preloaded
// shared code.
func (c Category) IsZygotePreloaded() bool {
	switch c {
	case CatZygoteDynLib, CatZygoteJavaLib, CatZygoteBinary:
		return true
	default:
		return false
	}
}

// File is a simulated file with its resident page cache. All processes
// mapping the same file page share one physical frame, which is what makes
// the virtual-to-physical translations of zygote-preloaded shared code
// identical across all application processes.
type File struct {
	// Name is the file's path-like identifier.
	Name string
	// Size is the file length in bytes.
	Size int

	phys *mem.PhysMem
	// pages is this file's private page-cache overlay; frozen is an
	// immutable base shared structurally with checkpoint clones of the
	// file. Both are sorted by page index and disjoint: a read-in page
	// lands in pages only when neither array holds it, and frozen is
	// never written after freezing. Flat sorted arrays beat maps here:
	// lookups are a short binary search with no hashing, iteration is a
	// merge in index order with no sort, and a checkpoint clone shares
	// one contiguous block instead of a bucket graph.
	pages  []FilePage
	frozen []FilePage
}

// FilePage is one resident page-cache entry. It is exported for the
// persistent image store (internal/imagestore), which serializes page
// caches as flat sorted arrays of this struct.
type FilePage struct {
	Idx   int32
	Frame arch.FrameNum
}

// findPage binary-searches a sorted filePage array.
func findPage(s []FilePage, idx int32) (arch.FrameNum, bool) {
	lo, hi := 0, len(s)
	for lo < hi {
		mid := int(uint(lo+hi) >> 1)
		if s[mid].Idx < idx {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	if lo < len(s) && s[lo].Idx == idx {
		return s[lo].Frame, true
	}
	return 0, false
}

// NewFile creates a file of the given size with an empty page cache.
func NewFile(phys *mem.PhysMem, name string, size int) *File {
	return &File{Name: name, Size: size, phys: phys}
}

// frameAt returns the cached frame for page idx from the overlay or the
// frozen base.
func (f *File) frameAt(idx int) (arch.FrameNum, bool) {
	if fr, ok := findPage(f.pages, int32(idx)); ok {
		return fr, true
	}
	return findPage(f.frozen, int32(idx))
}

// PageFrame returns the page-cache frame for page index idx, reading it in
// (allocating a frame) on first touch.
func (f *File) PageFrame(idx int) (arch.FrameNum, error) {
	if idx < 0 || idx*arch.PageSize >= f.Size {
		return 0, fmt.Errorf("vm: page %d beyond EOF of %q (%d bytes)", idx, f.Name, f.Size)
	}
	if fr, ok := f.frameAt(idx); ok {
		return fr, nil
	}
	fr, err := f.phys.Alloc(mem.FramePageCache)
	if err != nil {
		return 0, fmt.Errorf("vm: page cache for %q: %w", f.Name, err)
	}
	f.insertRun(int32(idx), fr, 1)
	return fr, nil
}

// insertRun splices n pages with consecutive indices starting at base and
// consecutive frames starting at fr into the sorted overlay. The caller
// has checked none of them is resident, so the run occupies one gap.
// Checkpoint clones start with a nil overlay; the first write allocates
// it, so an unwritten file costs nothing per fork.
func (f *File) insertRun(base int32, fr arch.FrameNum, n int) {
	i := sort.Search(len(f.pages), func(i int) bool { return f.pages[i].Idx >= base })
	f.pages = append(f.pages, make([]FilePage, n)...)
	copy(f.pages[i+n:], f.pages[i:])
	for k := 0; k < n; k++ {
		f.pages[i+k] = FilePage{Idx: base + int32(k), Frame: fr + arch.FrameNum(k)}
	}
}

// ResidentPages returns the number of pages currently in the page cache.
func (f *File) ResidentPages() int { return len(f.pages) + len(f.frozen) }

// ForEachPage calls fn for every resident page-cache page in ascending
// page order, for state fingerprinting. Both layers are already sorted,
// so this is a plain two-way merge.
func (f *File) ForEachPage(fn func(idx int, frame arch.FrameNum)) {
	a, b := f.frozen, f.pages
	for len(a) > 0 || len(b) > 0 {
		switch {
		case len(b) == 0 || (len(a) > 0 && a[0].Idx < b[0].Idx):
			fn(int(a[0].Idx), a[0].Frame)
			a = a[1:]
		default:
			fn(int(b[0].Idx), b[0].Frame)
			b = b[1:]
		}
	}
}

// LargeFrame returns the base frame of the aligned page-cache block
// backing large-page chunk index chunk, reading the whole chunk in
// (pagesPerChunk contiguous, aligned frames) on first touch. The chunk
// size is the architecture's large-page span — 16 pages (64KB) on
// ARMv7, 512 pages (2MB) on Sv39. A chunk partially cached with 4KB
// frames cannot be promoted and is an error: large mappings must be
// established before demand paging touches the range.
func (f *File) LargeFrame(chunk, pagesPerChunk int) (arch.FrameNum, error) {
	base := chunk * pagesPerChunk
	if base < 0 || base*arch.PageSize >= f.Size {
		return 0, fmt.Errorf("vm: large chunk %d beyond EOF of %q (%d bytes)", chunk, f.Name, f.Size)
	}
	if fr, ok := f.frameAt(base); ok {
		if int(fr)%pagesPerChunk != 0 {
			return 0, fmt.Errorf("vm: chunk %d of %q already cached with 4KB frames", chunk, f.Name)
		}
		return fr, nil
	}
	for i := 0; i < pagesPerChunk; i++ {
		if _, ok := f.frameAt(base + i); ok {
			return 0, fmt.Errorf("vm: chunk %d of %q partially cached; cannot map large", chunk, f.Name)
		}
	}
	fr, err := f.phys.AllocRange(pagesPerChunk, pagesPerChunk, mem.FramePageCache)
	if err != nil {
		return 0, fmt.Errorf("vm: large page cache for %q: %w", f.Name, err)
	}
	f.insertRun(int32(base), fr, pagesPerChunk)
	return fr, nil
}

// VMAFlags carries region attributes beyond the protection.
type VMAFlags uint8

// Region flags.
const (
	// VMAPrivate gives copy-on-write semantics: stores are not visible
	// through the file or to other mappers.
	VMAPrivate VMAFlags = 1 << iota
	// VMAShared makes stores visible to all mappers of the file.
	VMAShared
	// VMAGlobal marks zygote-preloaded shared code mapped by the
	// zygote: the kernel sets the PTE global bit for its pages so that
	// TLB entries are shared among all zygote-like processes.
	VMAGlobal
	// VMAStack marks the stack region, which is modified immediately
	// after every fork and is therefore never worth sharing.
	VMAStack
)

// VMA is one memory region of an address space (vm_area_struct).
type VMA struct {
	// Start and End delimit the region: [Start, End), page aligned.
	Start, End arch.VirtAddr
	// Prot is the region protection.
	Prot Prot
	// Flags are the region attributes.
	Flags VMAFlags
	// File backs the region; nil for anonymous regions.
	File *File
	// FileOff is the byte offset of Start within File (page aligned).
	FileOff int
	// Name labels the region for smaps-style dumps.
	Name string
	// Category classifies the region for footprint analyses.
	Category Category
}

// Len returns the region length in bytes.
func (v *VMA) Len() int { return int(v.End - v.Start) }

// Pages returns the region length in pages.
func (v *VMA) Pages() int { return v.Len() / arch.PageSize }

// Contains reports whether va falls inside the region.
func (v *VMA) Contains(va arch.VirtAddr) bool { return va >= v.Start && va < v.End }

// Anonymous reports whether the region has no backing file.
func (v *VMA) Anonymous() bool { return v.File == nil }

// filePage returns the file page index backing va.
func (v *VMA) filePage(va arch.VirtAddr) int {
	return (v.FileOff + int(va-v.Start)) / arch.PageSize
}

// Counters are the software counters the paper adds to the kernel, kept
// per address space.
type Counters struct {
	// PageFaults counts all soft page faults taken.
	PageFaults uint64
	// FileFaults counts page faults for file-based mappings, the
	// central steady-state metric of Figures 9 and 10.
	FileFaults uint64
	// AnonFaults counts faults on anonymous regions.
	AnonFaults uint64
	// COWBreaks counts copy-on-write page copies.
	COWBreaks uint64
}

// MM is one process's address space.
type MM struct {
	// PT is the process page table.
	PT *pagetable.PageTable
	// ASID is the address space identifier assigned to the process.
	ASID arch.ASID
	// Counters accumulates fault statistics.
	Counters Counters

	phys *mem.PhysMem
	vmas []*VMA // sorted by Start, non-overlapping
}

// NewMM creates an empty address space with a fresh page table laid
// out for the given MMU geometry.
func NewMM(phys *mem.PhysMem, asid arch.ASID, geo arch.Geometry) (*MM, error) {
	pt, err := pagetable.New(phys, geo)
	if err != nil {
		return nil, err
	}
	return &MM{PT: pt, ASID: asid, phys: phys}, nil
}

// Phys returns the physical memory the address space allocates from.
func (mm *MM) Phys() *mem.PhysMem { return mm.phys }

// VMAs returns the regions in address order. The slice is shared; callers
// must not mutate it.
func (mm *MM) VMAs() []*VMA { return mm.vmas }

// FindVMA returns the region containing va, or nil.
func (mm *MM) FindVMA(va arch.VirtAddr) *VMA {
	i := sort.Search(len(mm.vmas), func(i int) bool { return mm.vmas[i].End > va })
	if i < len(mm.vmas) && mm.vmas[i].Contains(va) {
		return mm.vmas[i]
	}
	return nil
}

// VMAsInRange returns the regions overlapping [start, end).
func (mm *MM) VMAsInRange(start, end arch.VirtAddr) []*VMA {
	var out []*VMA
	for _, v := range mm.vmas {
		if v.Start < end && v.End > start {
			out = append(out, v)
		}
	}
	return out
}

// Insert adds a region, rejecting misaligned bounds and overlaps.
func (mm *MM) Insert(v *VMA) error {
	if v.Start >= v.End {
		return fmt.Errorf("vm: empty region %#x-%#x (%s)", v.Start, v.End, v.Name)
	}
	if v.Start&arch.PageMask != 0 || v.End&arch.PageMask != 0 {
		return fmt.Errorf("vm: misaligned region %#x-%#x (%s)", v.Start, v.End, v.Name)
	}
	if got := mm.VMAsInRange(v.Start, v.End); len(got) != 0 {
		return fmt.Errorf("vm: region %#x-%#x (%s) overlaps %q", v.Start, v.End, v.Name, got[0].Name)
	}
	i := sort.Search(len(mm.vmas), func(i int) bool { return mm.vmas[i].Start >= v.Start })
	mm.vmas = append(mm.vmas, nil)
	copy(mm.vmas[i+1:], mm.vmas[i:])
	mm.vmas[i] = v
	return nil
}

// RemoveRange deletes [start, end) from the region list, splitting
// regions that straddle a boundary, and returns the removed pieces. Page
// table updates are the caller's responsibility (the kernel must first
// unshare any shared PTPs in the range).
func (mm *MM) RemoveRange(start, end arch.VirtAddr) []*VMA {
	var removed []*VMA
	var kept []*VMA
	for _, v := range mm.vmas {
		switch {
		case v.End <= start || v.Start >= end:
			kept = append(kept, v)
		case v.Start >= start && v.End <= end:
			removed = append(removed, v)
		default:
			// Partial overlap: split.
			if v.Start < start {
				left := *v
				left.End = start
				kept = append(kept, &left)
			}
			if v.End > end {
				right := *v
				right.Start = end
				if right.File != nil {
					right.FileOff = v.FileOff + int(end-v.Start)
				}
				kept = append(kept, &right)
			}
			mid := *v
			if mid.Start < start {
				if mid.File != nil {
					mid.FileOff += int(start - mid.Start)
				}
				mid.Start = start
			}
			if mid.End > end {
				mid.End = end
			}
			removed = append(removed, &mid)
		}
	}
	sort.Slice(kept, func(i, j int) bool { return kept[i].Start < kept[j].Start })
	mm.vmas = kept
	return removed
}

// ProtFlags converts a region protection into the hardware PTE bits for a
// present user page.
func ProtFlags(p Prot) arch.PTEFlags {
	f := arch.PTEValid | arch.PTEUser
	if p&ProtWrite != 0 {
		f |= arch.PTEWrite
	}
	if p&ProtExec != 0 {
		f |= arch.PTEExec
	}
	return f
}

// ResolvePTE computes the page-table entry that resolves a fault of the
// given kind at va inside vma, allocating page-cache or anonymous frames
// as required. existing is the current PTE at va (zero PTE when absent).
// The returned entry is what the stock kernel would install; installing it
// — privately or through a shared PTP, possibly after unsharing — is the
// caller's decision. Counters are updated here.
func (mm *MM) ResolvePTE(vma *VMA, va arch.VirtAddr, kind arch.AccessKind, existing pagetable.PTE) (pagetable.PTE, error) {
	if vma == nil || !vma.Contains(va) {
		return pagetable.PTE{}, fmt.Errorf("vm: fault at %#x outside any region (SIGSEGV)", va)
	}
	if !protPermits(vma.Prot, kind) {
		return pagetable.PTE{}, fmt.Errorf("vm: %s at %#x violates %s protection of %q (SIGSEGV)",
			kind, va, vma.Prot, vma.Name)
	}
	mm.Counters.PageFaults++

	if existing.Valid() {
		if kind != arch.AccessWrite {
			return pagetable.PTE{}, fmt.Errorf("vm: unexpected %s permission fault at %#x in %q", kind, va, vma.Name)
		}
		if vma.Flags&VMAShared != 0 {
			// A shared mapping's PTE was write-protected (by PTP sharing
			// at fork): writes go to the shared frame, so only the write
			// permission needs restoring — no copy.
			restored := existing
			restored.Flags |= arch.PTEWrite
			restored.Soft |= arch.SoftDirty | arch.SoftAccessed
			restored.Soft &^= arch.SoftCOW
			return restored, nil
		}
		// Permission fault on a present private page: copy-on-write break.
		if existing.Soft&arch.SoftCOW == 0 {
			return pagetable.PTE{}, fmt.Errorf("vm: unexpected %s permission fault at %#x in %q", kind, va, vma.Name)
		}
		mm.Counters.COWBreaks++
		fr, err := mm.phys.Alloc(mem.FrameAnon)
		if err != nil {
			return pagetable.PTE{}, err
		}
		return pagetable.PTE{
			Frame: fr,
			Flags: ProtFlags(vma.Prot),
			Soft:  arch.SoftDirty | arch.SoftAccessed,
		}, nil
	}

	if vma.Anonymous() {
		mm.Counters.AnonFaults++
		fr, err := mm.phys.Alloc(mem.FrameAnon)
		if err != nil {
			return pagetable.PTE{}, err
		}
		soft := arch.SoftAccessed
		if kind == arch.AccessWrite {
			soft |= arch.SoftDirty
		}
		return pagetable.PTE{Frame: fr, Flags: ProtFlags(vma.Prot), Soft: soft}, nil
	}

	// File-backed region.
	mm.Counters.FileFaults++
	if vma.Flags&VMAPrivate != 0 && kind == arch.AccessWrite {
		// First touch is a store: allocate a private copy directly.
		mm.Counters.COWBreaks++
		fr, err := mm.phys.Alloc(mem.FrameAnon)
		if err != nil {
			return pagetable.PTE{}, err
		}
		return pagetable.PTE{
			Frame: fr,
			Flags: ProtFlags(vma.Prot),
			Soft:  arch.SoftDirty | arch.SoftAccessed,
		}, nil
	}
	fr, err := vma.File.PageFrame(vma.filePage(va))
	if err != nil {
		return pagetable.PTE{}, err
	}
	flags := ProtFlags(vma.Prot)
	soft := arch.SoftAccessed | arch.SoftFile
	if vma.Flags&VMAPrivate != 0 {
		// Map the page-cache frame read-only; a later store breaks COW.
		if vma.Prot&ProtWrite != 0 {
			flags &^= arch.PTEWrite
			soft |= arch.SoftCOW
		}
	} else if kind == arch.AccessWrite {
		soft |= arch.SoftDirty
	}
	return pagetable.PTE{Frame: fr, Flags: flags, Soft: soft}, nil
}

func protPermits(p Prot, kind arch.AccessKind) bool {
	switch kind {
	case arch.AccessFetch:
		return p&ProtExec != 0
	case arch.AccessWrite:
		return p&ProtWrite != 0
	default:
		return p&ProtRead != 0
	}
}

// CopyMode selects which of a region's PTEs a fork-time copy takes.
type CopyMode uint8

const (
	// CopyStock copies only the PTEs that page faults cannot
	// reconstruct: anonymous memory and dirty (COW-broken) private
	// file-backed pages. Clean file-backed PTEs are skipped, to be
	// refilled by soft faults — the stock Linux fork policy.
	CopyStock CopyMode = iota
	// CopyAll copies every valid PTE, clean file-backed ones included.
	// This is the "Copied PTEs" comparison kernel of Table 4, which
	// copies the PTEs of the zygote-preloaded shared code at fork time.
	CopyAll
)

// CopyPTERange implements the fork-time PTE copy for the part of a region
// clipped to [lo, hi): each selected valid parent PTE is copied into the
// child, write-protecting writable entries on both sides (COW). It returns
// the number of PTEs copied. The child's covering leaf tables are
// allocated on demand.
func CopyPTERange(parent, child *MM, vma *VMA, lo, hi arch.VirtAddr, mode CopyMode, domain uint8) (int, error) {
	if lo < vma.Start {
		lo = vma.Start
	}
	if hi > vma.End {
		hi = vma.End
	}
	copied := 0
	for va := lo; va < hi; va += arch.PageSize {
		src := parent.PT.PTEAt(va)
		if src == nil || !src.Valid() {
			continue
		}
		reconstructible := src.Soft&arch.SoftFile != 0 && src.Soft&arch.SoftDirty == 0 && !vma.Anonymous()
		if mode == CopyStock && reconstructible {
			continue
		}
		if src.Writable() {
			// Write protection mutates the parent's table in place, so
			// take a privatized pointer: after a checkpoint fork the
			// parent's PTE array may still be shared with the image.
			src = parent.PT.PTEForWrite(va)
			src.Flags &^= arch.PTEWrite
			src.Soft |= arch.SoftCOW
		}
		if _, err := child.PT.EnsureLeafForVA(va, domain); err != nil {
			return copied, err
		}
		child.PT.Set(va, *src)
		copied++
	}
	return copied, nil
}

// Smaps describes one region in a /proc/pid/smaps-like dump, including
// how many of its pages are resident (have valid PTEs).
type Smaps struct {
	Start, End arch.VirtAddr
	Prot       Prot
	Name       string
	Category   Category
	Resident   int
}

// SmapsDump walks the region list and page table, mirroring the
// /proc/pid/smaps interface the paper's methodology reads.
func (mm *MM) SmapsDump() []Smaps {
	out := make([]Smaps, 0, len(mm.vmas))
	for _, v := range mm.vmas {
		s := Smaps{Start: v.Start, End: v.End, Prot: v.Prot, Name: v.Name, Category: v.Category}
		for va := v.Start; va < v.End; va += arch.PageSize {
			if p := mm.PT.PTEAt(va); p != nil && p.Valid() {
				s.Resident++
			}
		}
		out = append(out, s)
	}
	return out
}
