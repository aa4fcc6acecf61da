// Package pagetable implements the simulated Linux hierarchical page
// table over an architecture-neutral geometry (arch.Geometry).
//
// The unit of management and sharing is the "slot": the span of virtual
// space translated by one leaf page-table page (PTP) — 1MB under ARMv7's
// two-level format, 2MB under Sv39's three-level format. A PageTable
// holds one SlotEntry per slot; each valid entry points at a LeafTable
// whose PTEs map 4KB pages. For two-level formats the slot array is the
// root table itself; for three-level formats the root and mid levels
// above the slots carry no software state, so the simulator materializes
// them only as physical frames (allocated up front — a 4GB space needs
// at most a handful of mid tables) whose entry addresses the modeled
// hardware walker touches.
//
// On ARMv7 virtually all bits of a hardware level-2 entry are reserved
// for the MMU — the architecture provides neither a referenced nor a
// dirty bit — so the Linux VM system maintains a parallel software entry
// for each hardware entry, and a pair of hardware plus a pair of
// software tables occupy one 4KB PTP. The simulator folds the hardware
// and shadow entries into one PTE struct but preserves the physical
// layout for cache modeling: each PTP occupies one physical frame, and
// the hardware words of its entries have stable physical addresses
// inside that frame (entry width per the geometry).
//
// Sharing a PTP between address spaces is expressed by pointing two slot
// entries at the same LeafTable. The sharer count lives in the mapcount
// of the PTP's physical frame, exactly as the paper reuses the existing
// mapcount field of the PTP's page structure. The spare NEED_COPY
// software bit in the slot entry marks the PTP as shared and managed
// copy-on-write.
//
// Orthogonally to that simulated NEED_COPY protocol, the simulator itself
// shares PTE arrays copy-on-write between a checkpointed machine image
// and its forks (internal/checkpoint): CloneShared duplicates a page
// table in O(slots), leaving every PTE array shared with a cow mark that
// the mutating operations clear by copying the array on first write. The
// simulated kernel never observes this second level of sharing — reads
// and counter bookkeeping are unaffected.
package pagetable

import (
	"fmt"

	"repro/internal/alloc"
	"repro/internal/arch"
	"repro/internal/mem"
)

// PTE is one leaf entry: the hardware translation word plus the parallel
// Linux software word.
type PTE struct {
	// Frame is the physical frame mapped by this entry.
	Frame arch.FrameNum
	// Flags holds the hardware permission and attribute bits.
	Flags arch.PTEFlags
	// Soft holds the Linux-maintained software bits.
	Soft arch.SoftFlags
}

// Valid reports whether the entry holds a live translation.
func (p PTE) Valid() bool { return p.Flags&arch.PTEValid != 0 }

// Writable reports whether the hardware entry currently permits user writes.
func (p PTE) Writable() bool { return p.Flags&arch.PTEWrite != 0 }

// Global reports whether the hardware global bit is set.
func (p PTE) Global() bool { return p.Flags&arch.PTEGlobal != 0 }

// LeafTable is a leaf-level table: one page-table page.
type LeafTable struct {
	// Frame is the physical frame holding this PTP. TLB-miss page walks
	// load hardware PTEs from this frame into the cache hierarchy, so a
	// PTP shared by many processes occupies one set of cache lines
	// where private page tables would occupy one set per process.
	Frame arch.FrameNum

	// ptes holds the entries (Geometry.LeafEntries of them). A
	// checkpoint fork shares the backing array between the image's
	// table and the fork's (cow set on both); mutators privatize with
	// ensurePrivate before writing. Within one machine the simulated
	// kernel's own PTP sharing still works by pointing two slot entries
	// at the same *LeafTable, so privatizing in place keeps the write
	// visible to every simulated sharer.
	ptes []PTE
	cow  bool

	// entryBytes is the width of one hardware entry, for PTEPhysAddr.
	entryBytes int

	populated int
}

// newLeafTable returns an empty private table backed by frame f.
func newLeafTable(f arch.FrameNum, entries, entryBytes int) *LeafTable {
	return &LeafTable{Frame: f, ptes: make([]PTE, entries), entryBytes: entryBytes}
}

// ensurePrivate gives the table its own PTE array, copying the shared
// one on first write after a checkpoint fork.
func (t *LeafTable) ensurePrivate() {
	if t.cow {
		arr := make([]PTE, len(t.ptes))
		copy(arr, t.ptes)
		t.ptes = arr
		t.cow = false
	}
}

// CloneArena batches the LeafTable clone nodes of one machine clone: they
// are the most numerous small objects a checkpoint fork allocates (one
// per referenced PTP per address space), and they all share the clone's
// lifetime. See the alloc package for the lifetime rules.
type CloneArena = alloc.Arena[LeafTable]

// cloneShared returns a struct copy of t whose PTE array is shared
// copy-on-write with t; both sides are marked cow. The node comes from
// the arena when one is supplied. The flag is only written when it is
// still clear: a checkpoint image's tables are cow from capture (or
// restore) on, and several workers fork one image at once, so a fork
// must only read them.
func (t *LeafTable) cloneShared(nodes *CloneArena) *LeafTable {
	if !t.cow {
		t.cow = true
	}
	var c *LeafTable
	if nodes != nil {
		c = nodes.New()
	} else {
		c = new(LeafTable)
	}
	*c = *t
	return c
}

// Populated returns the number of valid entries in the table.
func (t *LeafTable) Populated() int { return t.populated }

// Len returns the number of entries in the table.
func (t *LeafTable) Len() int { return len(t.ptes) }

// PTE returns entry i by value.
func (t *LeafTable) PTE(i int) PTE { return t.ptes[i] }

// SharesStorage reports whether t and o currently share one PTE array.
// Test helper for the checkpoint fork's zero-copy guarantee.
func (t *LeafTable) SharesStorage(o *LeafTable) bool {
	return &t.ptes[0] == &o.ptes[0]
}

// PTEPhysAddr returns the physical address of the hardware word of entry
// idx inside this PTP, used to model the cache footprint of page walks.
func (t *LeafTable) PTEPhysAddr(idx int) arch.PhysAddr {
	return arch.FrameAddr(t.Frame) + arch.PhysAddr(idx*t.entryBytes)
}

// SlotEntry is the table entry addressing one slot's leaf table, paired
// with its software state. Under a two-level format it is a first-level
// entry; under a three-level format it is the mid-level entry (the
// levels above carry no software state).
type SlotEntry struct {
	// Table points to the leaf table, nil when the entry is invalid.
	// Two address spaces sharing a PTP hold pointers to the same
	// LeafTable.
	Table *LeafTable
	// Domain is the protection-domain field recorded in the entry and
	// inherited by its leaf entries when they are loaded into the TLB.
	// Always zero on architectures without domains.
	Domain uint8
	// NeedCopy is the spare software bit marking the leaf PTP as
	// shared: any modification must first unshare (copy) the PTP.
	NeedCopy bool
}

// Valid reports whether the entry points at a leaf table.
func (e SlotEntry) Valid() bool { return e.Table != nil }

// Stats counts page-table activity for one address space.
type Stats struct {
	// PTPsAllocated counts leaf tables allocated on behalf of this
	// address space (including tables allocated during unsharing).
	PTPsAllocated uint64
	// PTPsFreed counts leaf tables released by this address space.
	PTPsFreed uint64
	// PTEsSet counts entries written (populated).
	PTEsSet uint64
	// PTEsCleared counts entries invalidated.
	PTEsCleared uint64
}

// WalkPath lists the physical addresses of the table entries a hardware
// walk of one virtual address touches, outermost level first: the root
// entry, the mid entry for three-level formats, and the leaf PTE when
// the slot has a leaf table. The cpu model replays these through the
// cache hierarchy on every TLB miss.
type WalkPath struct {
	Addrs [3]arch.PhysAddr
	N     int
}

// PageTable is one process's translation table.
type PageTable struct {
	phys  *mem.PhysMem
	geo   arch.Geometry
	slots []SlotEntry
	// rootFrames holds the physical frames of the root table (four for
	// ARMv7's 16KB table, one for Sv39).
	rootFrames []arch.FrameNum
	// midFrames holds the physical frames of the mid-level tables,
	// indexed by root-entry index; empty for two-level formats. They
	// are allocated up front — the modeled 4GB space needs at most a
	// few — so attach/ensure paths have no mid-level error cases.
	midFrames []arch.FrameNum
	stats     Stats
}

// New allocates an empty page table for the given geometry, including
// the physical frames of the root table and (for three-level formats)
// the mid-level tables.
func New(phys *mem.PhysMem, geo arch.Geometry) (*PageTable, error) {
	pt := &PageTable{
		phys:  phys,
		geo:   geo,
		slots: make([]SlotEntry, geo.NumSlots()),
	}
	nmid := 0
	if geo.MidEntries != 0 {
		nmid = (geo.NumSlots() + geo.MidEntries - 1) / geo.MidEntries
	}
	frames := make([]arch.FrameNum, 0, geo.RootFrames+nmid)
	for i := 0; i < geo.RootFrames+nmid; i++ {
		f, err := phys.Alloc(mem.FramePageTable)
		if err != nil {
			for _, g := range frames {
				phys.Free(g)
			}
			return nil, fmt.Errorf("pagetable: allocating table frame: %w", err)
		}
		frames = append(frames, f)
	}
	pt.rootFrames = frames[:geo.RootFrames]
	pt.midFrames = frames[geo.RootFrames:]
	return pt, nil
}

// CloneShared duplicates this page table for a checkpoint fork in
// O(slots): every referenced LeafTable is cloned as a struct sharing its
// PTE array copy-on-write with the original. tables is the clone's
// identity map — a LeafTable referenced from several address spaces (a
// simulated-kernel shared PTP) must map to one clone so the sharing
// structure survives the fork; pass the same map for every page table
// cloned into one machine, and the same arena (nil means plain
// allocation) — nodes minted from it belong to the cloned machine.
// phys is the fork's physical memory.
func (pt *PageTable) CloneShared(phys *mem.PhysMem, tables map[*LeafTable]*LeafTable, nodes *CloneArena) *PageTable {
	c := &PageTable{
		phys:       phys,
		geo:        pt.geo,
		slots:      make([]SlotEntry, len(pt.slots)),
		rootFrames: pt.rootFrames,
		midFrames:  pt.midFrames,
		stats:      pt.stats,
	}
	for i := range pt.slots {
		e := pt.slots[i]
		if e.Table != nil {
			ct, ok := tables[e.Table]
			if !ok {
				ct = e.Table.cloneShared(nodes)
				tables[e.Table] = ct
			}
			e.Table = ct
		}
		c.slots[i] = e
	}
	return c
}

// Stats returns a snapshot of this table's counters.
func (pt *PageTable) Stats() Stats { return pt.stats }

// Geometry returns the table's architecture geometry.
func (pt *PageTable) Geometry() arch.Geometry { return pt.geo }

// NumSlots returns the number of leaf-table slots.
func (pt *PageTable) NumSlots() int { return len(pt.slots) }

// RootEntryPhysAddr returns the physical address of the hardware word of
// the root-table entry above slot idx, used to model the first page-walk
// access. off is the entry's byte offset into the root table, whose
// frames are consecutive in table order; EntryBytes divides PageSize, so
// no entry straddles two frames.
func (pt *PageTable) RootEntryPhysAddr(idx int) arch.PhysAddr {
	off := pt.geo.RootIndex(idx) * pt.geo.EntryBytes
	return arch.FrameAddr(pt.rootFrames[off>>arch.PageShift]) + arch.PhysAddr(off&arch.PageMask)
}

// midEntryPhysAddr returns the physical address of the mid-level entry
// addressing slot idx. Three-level formats only.
func (pt *PageTable) midEntryPhysAddr(idx int) arch.PhysAddr {
	frame := pt.midFrames[pt.geo.RootIndex(idx)]
	return arch.FrameAddr(frame) + arch.PhysAddr(pt.geo.MidIndex(idx)*pt.geo.EntryBytes)
}

// Slot returns a pointer to the entry of slot idx.
func (pt *PageTable) Slot(idx int) *SlotEntry {
	return &pt.slots[idx]
}

// SlotForVA returns a pointer to the slot entry covering va.
func (pt *PageTable) SlotForVA(va arch.VirtAddr) *SlotEntry {
	return &pt.slots[pt.geo.Slot(va)]
}

// EnsureLeaf returns the leaf table covering slot idx, allocating a
// fresh, empty PTP when the slot is invalid. The new PTP's sharer count
// is set to one. The domain is recorded in the slot entry.
func (pt *PageTable) EnsureLeaf(idx int, domain uint8) (*LeafTable, error) {
	e := &pt.slots[idx]
	if e.Table != nil {
		return e.Table, nil
	}
	f, err := pt.phys.Alloc(mem.FramePageTable)
	if err != nil {
		return nil, fmt.Errorf("pagetable: allocating PTP for slot %d: %w", idx, err)
	}
	t := newLeafTable(f, pt.geo.LeafEntries, pt.geo.EntryBytes)
	pt.phys.Get(f) // sharer count 1: this address space
	e.Table = t
	e.Domain = domain
	e.NeedCopy = false
	pt.stats.PTPsAllocated++
	return t, nil
}

// EnsureLeafForVA is EnsureLeaf for the slot covering va.
func (pt *PageTable) EnsureLeafForVA(va arch.VirtAddr, domain uint8) (*LeafTable, error) {
	return pt.EnsureLeaf(pt.geo.Slot(va), domain)
}

// AttachShared points slot idx at an existing PTP owned by another
// address space, marking it NEED_COPY and incrementing the PTP's sharer
// count. The caller is responsible for having write-protected the
// table's writable entries first.
func (pt *PageTable) AttachShared(idx int, t *LeafTable, domain uint8) {
	e := &pt.slots[idx]
	if e.Table != nil {
		panic(fmt.Sprintf("pagetable: AttachShared over live slot %d", idx))
	}
	pt.phys.Get(t.Frame)
	e.Table = t
	e.Domain = domain
	e.NeedCopy = true
}

// SharerCount returns the number of address spaces referencing the PTP in
// slot idx, or zero when the slot is invalid.
func (pt *PageTable) SharerCount(idx int) int {
	e := &pt.slots[idx]
	if e.Table == nil {
		return 0
	}
	return pt.phys.MapCount(e.Table.Frame)
}

// DetachLeaf disconnects slot idx from its PTP, decrementing the sharer
// count. When this address space was the last sharer the PTP's frame is
// freed. It returns the number of remaining sharers.
func (pt *PageTable) DetachLeaf(idx int) int {
	e := &pt.slots[idx]
	if e.Table == nil {
		panic(fmt.Sprintf("pagetable: DetachLeaf on invalid slot %d", idx))
	}
	t := e.Table
	e.Table = nil
	e.NeedCopy = false
	remaining := pt.phys.Put(t.Frame)
	if remaining == 0 {
		pt.phys.Free(t.Frame)
		pt.stats.PTPsFreed++
	}
	return remaining
}

// Lookup walks the table for va and returns the leaf PTE together with
// the slot entry. A missing slot or leaf translation reports a
// translation fault; permission checking against the access kind is the
// MMU's job (see the tlb and cpu packages), not the walker's.
func (pt *PageTable) Lookup(va arch.VirtAddr) (PTE, SlotEntry, arch.FaultStatus) {
	e := pt.slots[pt.geo.Slot(va)]
	if e.Table == nil {
		return PTE{}, e, arch.FaultTranslation
	}
	pte := e.Table.ptes[pt.geo.LeafIndex(va)]
	if !pte.Valid() {
		return pte, e, arch.FaultTranslation
	}
	return pte, e, arch.FaultNone
}

// Walk is Lookup plus the physical path the hardware walker takes: the
// root entry is always read; for three-level formats the mid entry is
// read next (mid tables exist from birth, so the walk always reaches
// it); the leaf PTE is read only when the slot has a leaf table.
func (pt *PageTable) Walk(va arch.VirtAddr) (PTE, SlotEntry, arch.FaultStatus, WalkPath) {
	idx := pt.geo.Slot(va)
	var path WalkPath
	path.Addrs[0] = pt.RootEntryPhysAddr(idx)
	path.N = 1
	if pt.geo.MidEntries != 0 {
		path.Addrs[path.N] = pt.midEntryPhysAddr(idx)
		path.N++
	}
	e := pt.slots[idx]
	if e.Table == nil {
		return PTE{}, e, arch.FaultTranslation, path
	}
	path.Addrs[path.N] = e.Table.PTEPhysAddr(pt.geo.LeafIndex(va))
	path.N++
	pte := e.Table.ptes[pt.geo.LeafIndex(va)]
	if !pte.Valid() {
		return pte, e, arch.FaultTranslation, path
	}
	return pte, e, arch.FaultNone, path
}

// PTEAt returns a pointer to the leaf PTE for va, or nil when no leaf
// table covers va, for reading. Mutating through the pointer bypasses
// the populated-count bookkeeping and — after a checkpoint fork — would
// write through a PTE array still shared with the immutable image;
// mutators use Set, Clear, or PTEForWrite.
func (pt *PageTable) PTEAt(va arch.VirtAddr) *PTE {
	e := pt.slots[pt.geo.Slot(va)]
	if e.Table == nil {
		return nil
	}
	return &e.Table.ptes[pt.geo.LeafIndex(va)]
}

// PTEForWrite returns a pointer to the leaf PTE for va after privatizing
// the covering table's PTE array, so in-place flag edits (write
// protection, permission changes) never leak into a checkpoint image
// sharing the array. The caller must not flip the entry's Valid bit
// through the pointer — that would corrupt the populated count; use Set
// and Clear for that.
func (pt *PageTable) PTEForWrite(va arch.VirtAddr) *PTE {
	e := pt.slots[pt.geo.Slot(va)]
	if e.Table == nil {
		return nil
	}
	e.Table.ensurePrivate()
	return &e.Table.ptes[pt.geo.LeafIndex(va)]
}

// Set writes the leaf PTE for va. The covering leaf table must exist
// (callers allocate it with EnsureLeaf), and shared tables must have
// been unshared first; writing through a NEED_COPY entry is a bug in the
// simulated kernel and panics.
func (pt *PageTable) Set(va arch.VirtAddr, pte PTE) {
	e := &pt.slots[pt.geo.Slot(va)]
	if e.Table == nil {
		panic(fmt.Sprintf("pagetable: Set at %#x without leaf table", va))
	}
	if e.NeedCopy {
		panic(fmt.Sprintf("pagetable: Set at %#x through NEED_COPY entry", va))
	}
	e.Table.ensurePrivate()
	slot := &e.Table.ptes[pt.geo.LeafIndex(va)]
	wasValid := slot.Valid()
	*slot = pte
	if pte.Valid() && !wasValid {
		e.Table.populated++
		pt.stats.PTEsSet++
	} else if !pte.Valid() && wasValid {
		e.Table.populated--
		pt.stats.PTEsCleared++
	} else if pte.Valid() {
		pt.stats.PTEsSet++
	}
}

// SetShared writes the leaf PTE for va through a shared (NEED_COPY)
// table. This is the one legal mutation of a shared PTP: populating a
// previously invalid entry on a read fault, which makes the new
// translation immediately visible to all sharers and thereby eliminates
// their soft faults. Overwriting a valid entry through a shared table
// panics.
func (pt *PageTable) SetShared(va arch.VirtAddr, pte PTE) {
	e := &pt.slots[pt.geo.Slot(va)]
	if e.Table == nil {
		panic(fmt.Sprintf("pagetable: SetShared at %#x without leaf table", va))
	}
	slot := &e.Table.ptes[pt.geo.LeafIndex(va)]
	if slot.Valid() {
		panic(fmt.Sprintf("pagetable: SetShared over valid entry at %#x", va))
	}
	if !pte.Valid() {
		panic(fmt.Sprintf("pagetable: SetShared with invalid PTE at %#x", va))
	}
	if pte.Writable() {
		panic(fmt.Sprintf("pagetable: SetShared with writable PTE at %#x", va))
	}
	e.Table.ensurePrivate()
	slot = &e.Table.ptes[pt.geo.LeafIndex(va)]
	*slot = pte
	e.Table.populated++
	pt.stats.PTEsSet++
}

// SetLarge establishes a large-page mapping at va, which must be
// large-page aligned: Geometry.PagesPerLarge consecutive, aligned leaf
// entries are written, each a replica carrying the base frame of the
// large physical block and the PTELarge attribute — sixteen 64KB-page
// replicas on ARMv7, a leaf table's worth of megapage replicas on Sv39.
func (pt *PageTable) SetLarge(va arch.VirtAddr, baseFrame arch.FrameNum, flags arch.PTEFlags, soft arch.SoftFlags) {
	if va&(pt.geo.LargePageSize()-1) != 0 {
		panic(fmt.Sprintf("pagetable: SetLarge at unaligned %#x", va))
	}
	if int(baseFrame)%pt.geo.PagesPerLarge() != 0 {
		panic(fmt.Sprintf("pagetable: SetLarge with unaligned base frame %d", baseFrame))
	}
	pte := PTE{Frame: baseFrame, Flags: flags | arch.PTELarge, Soft: soft}
	for i := 0; i < pt.geo.PagesPerLarge(); i++ {
		pt.Set(va+arch.VirtAddr(i*arch.PageSize), pte)
	}
}

// Clear invalidates the leaf PTE for va and returns the previous entry.
// Clearing through a shared table panics: the kernel must unshare first.
func (pt *PageTable) Clear(va arch.VirtAddr) PTE {
	e := &pt.slots[pt.geo.Slot(va)]
	if e.Table == nil {
		return PTE{}
	}
	if e.NeedCopy {
		panic(fmt.Sprintf("pagetable: Clear at %#x through NEED_COPY entry", va))
	}
	old := e.Table.ptes[pt.geo.LeafIndex(va)]
	if old.Valid() {
		e.Table.ensurePrivate()
		e.Table.ptes[pt.geo.LeafIndex(va)] = PTE{}
		e.Table.populated--
		pt.stats.PTEsCleared++
	}
	return old
}

// UnsharePTP performs the unsharing procedure of Figure 6 on slot idx
// and returns the number of PTEs copied. When the sharer count is one,
// the current address space is the only user: the NEED_COPY bit is
// simply cleared and no copy happens. Otherwise a new, empty PTP is
// allocated, all valid PTEs are copied from the shared PTP into it, the
// slot entry is repointed, and the shared PTP's sharer count is
// decremented. The caller is responsible for the accompanying TLB flush.
func (pt *PageTable) UnsharePTP(idx int) (ptesCopied int, err error) {
	return pt.UnsharePTPFunc(idx, nil)
}

// UnsharePTPFunc is UnsharePTP with a copy filter: when keep is non-nil,
// only valid PTEs for which keep returns true are copied into the private
// PTP. This implements the design alternative of Section 3.1.3 — reducing
// the cost of unsharing by copying only the PTEs that have their reference
// bit set or that stock fork would have copied. PTEs filtered out simply
// soft-fault again later.
func (pt *PageTable) UnsharePTPFunc(idx int, keep func(PTE) bool) (ptesCopied int, err error) {
	e := &pt.slots[idx]
	if e.Table == nil || !e.NeedCopy {
		return 0, nil
	}
	if pt.phys.MapCount(e.Table.Frame) == 1 {
		e.NeedCopy = false
		return 0, nil
	}
	shared := e.Table
	f, err := pt.phys.Alloc(mem.FramePageTable)
	if err != nil {
		return 0, fmt.Errorf("pagetable: unshare slot %d: %w", idx, err)
	}
	fresh := newLeafTable(f, len(shared.ptes), shared.entryBytes)
	for i := range shared.ptes {
		if shared.ptes[i].Valid() && (keep == nil || keep(shared.ptes[i])) {
			fresh.ptes[i] = shared.ptes[i]
			fresh.populated++
			ptesCopied++
		}
	}
	pt.phys.Get(f)
	pt.phys.Put(shared.Frame)
	e.Table = fresh
	e.NeedCopy = false
	pt.stats.PTPsAllocated++
	pt.stats.PTEsSet += uint64(ptesCopied)
	return ptesCopied, nil
}

// WriteProtectTable clears the hardware write bit on every writable entry
// of the PTP in slot idx, recording SoftCOW on each, and returns how many
// entries were protected. This prepares a not-yet-shared PTP for sharing.
func (pt *PageTable) WriteProtectTable(idx int) int {
	e := &pt.slots[idx]
	if e.Table == nil {
		return 0
	}
	n := 0
	for i := range e.Table.ptes {
		if p := e.Table.ptes[i]; p.Valid() && p.Writable() {
			e.Table.ensurePrivate()
			p := &e.Table.ptes[i]
			p.Flags &^= arch.PTEWrite
			p.Soft |= arch.SoftCOW
			n++
		}
	}
	return n
}

// ReleaseAll detaches every live slot, freeing exclusively owned PTPs
// and decrementing sharer counts on shared ones, and finally frees the
// mid-level and root table frames. Used at process exit.
func (pt *PageTable) ReleaseAll() {
	for i := range pt.slots {
		if pt.slots[i].Table != nil {
			pt.DetachLeaf(i)
		}
	}
	for _, f := range pt.midFrames {
		pt.phys.Free(f)
	}
	for _, f := range pt.rootFrames {
		pt.phys.Free(f)
	}
}

// LivePTPs returns the number of slots currently pointing at a leaf
// table.
func (pt *PageTable) LivePTPs() int {
	n := 0
	for i := range pt.slots {
		if pt.slots[i].Table != nil {
			n++
		}
	}
	return n
}

// SharedPTPs returns the number of slots whose PTP is marked NEED_COPY
// (shared copy-on-write with at least this address space).
func (pt *PageTable) SharedPTPs() int {
	n := 0
	for i := range pt.slots {
		if pt.slots[i].Table != nil && pt.slots[i].NeedCopy {
			n++
		}
	}
	return n
}

// PopulatedPTEs returns the total number of valid leaf entries.
func (pt *PageTable) PopulatedPTEs() int {
	n := 0
	for i := range pt.slots {
		if t := pt.slots[i].Table; t != nil {
			n += t.populated
		}
	}
	return n
}
