package arch

import "math/bits"

// MMU describes one concrete memory-management-unit architecture. The
// interface is deliberately split into three orthogonal descriptor
// structs, fetched once at kernel construction and cached by value in
// every consumer — translation hot paths never dispatch through the
// interface:
//
//   - Geometry: page-table shape — levels, index extraction, entry
//     widths, large-page size. Consumed by pagetable, cpu and vm.
//   - Tagging: how TLB entries are tagged — ASID width. Consumed by the
//     kernel's ASID allocator and the TLB model.
//   - Protection: the permission model beyond per-PTE bits — ARM's
//     16-domain DACR, or its absence. Consumed by core's fork/sharing
//     policy and cpu's domain check.
//
// Backends register themselves with Register from an init function so
// that commands and tests can resolve them by name (see registry.go).
type MMU interface {
	// Name is the registry key and -arch flag value, e.g. "armv7".
	Name() string
	// Geometry returns the page-table shape.
	Geometry() Geometry
	// Tagging returns the TLB tagging scheme.
	Tagging() Tagging
	// Protection returns the protection model.
	Protection() Protection
}

// Geometry describes an architecture's page-table shape over 4KB base
// pages. The simulator's unit of sharing is the "slot": the span of
// virtual space translated by one leaf page-table page (1MB on ARMv7,
// 2MB on Sv39). Two- and three-level formats are supported; for
// three-level formats the root and mid levels are folded into the slot
// addressing (RootIndex/MidIndex) and only leaf tables are shared.
type Geometry struct {
	// Levels is the number of translation levels (2 or 3).
	Levels int
	// VABits is the width of the modeled virtual address space. All
	// backends model 32 bits: architectures with wider spaces (Sv39)
	// are simulated over their low 4GB so workloads are identical.
	VABits uint
	// TableShift is log2 of the span of one leaf table — the slot size
	// (20 on ARMv7, 21 on Sv39).
	TableShift uint
	// LeafEntries is the number of PTEs in one leaf table (256 on
	// ARMv7, 512 on Sv39), a power of two.
	LeafEntries int
	// RootEntries is the number of entries in the root table across
	// all of its frames (4096 on ARMv7, 512 on Sv39).
	RootEntries int
	// MidEntries is the number of entries in a mid-level table, a power
	// of two, or 0 for two-level formats (0 on ARMv7, 512 on Sv39).
	MidEntries int
	// RootFrames is the number of 4KB frames occupied by the root
	// table (4 on ARMv7 — the 16KB TTBR table — and 1 on Sv39).
	RootFrames int
	// EntryBytes is the size of one table entry in bytes (4 on ARMv7,
	// 8 on Sv39). It determines the physical addresses the hardware
	// walker touches, and therefore what the walk caches see.
	EntryBytes int
	// LargePageShift is log2 of the large-page size that maps within a
	// leaf table (16 → 64KB on ARMv7; 21 → 2MB on Sv39, where one
	// megapage spans the whole leaf table).
	LargePageShift uint
}

// NumSlots returns how many leaf-table slots cover the virtual space.
func (g Geometry) NumSlots() int { return 1 << (g.VABits - g.TableShift) }

// Slot returns the leaf-table slot index covering va.
func (g Geometry) Slot(va VirtAddr) int { return int(va >> g.TableShift) }

// SlotBase returns the first virtual address of slot idx.
func (g Geometry) SlotBase(idx int) VirtAddr {
	return VirtAddr(idx) << g.TableShift
}

// SlotSpan returns the bytes of virtual space one leaf table translates.
func (g Geometry) SlotSpan() VirtAddr { return 1 << g.TableShift }

// LeafIndex returns the index of va's PTE within its leaf table.
func (g Geometry) LeafIndex(va VirtAddr) int {
	return int((va >> PageShift) & VirtAddr(g.LeafEntries-1))
}

// LargePageSize returns the large-page size in bytes.
func (g Geometry) LargePageSize() VirtAddr { return 1 << g.LargePageShift }

// PagesPerLarge returns the number of consecutive, aligned leaf entries
// that establish one large-page mapping (16 on ARMv7, 512 on Sv39).
func (g Geometry) PagesPerLarge() int {
	return 1 << (g.LargePageShift - PageShift)
}

// RootIndex returns the root-table entry index for slot idx: the slot
// itself for two-level formats, the enclosing mid-table's root entry for
// three-level formats.
func (g Geometry) RootIndex(idx int) int {
	if g.MidEntries == 0 {
		return idx
	}
	return idx >> bits.TrailingZeros(uint(g.MidEntries))
}

// MidIndex returns the mid-table entry index for slot idx, or 0 for
// two-level formats.
func (g Geometry) MidIndex(idx int) int {
	if g.MidEntries == 0 {
		return 0
	}
	return idx & (g.MidEntries - 1)
}

// Tagging describes how the TLB distinguishes address spaces.
type Tagging struct {
	// ASIDBits is the implemented width of the address-space identifier
	// (8 on ARMv7, 16 on Sv39). The kernel's allocator wraps — and
	// flushes all TLBs — after handing out 1<<ASIDBits-1 identifiers.
	ASIDBits uint
}

// MaxASID returns the largest assignable identifier (0 is reserved).
func (t Tagging) MaxASID() ASID { return ASID(1<<t.ASIDBits - 1) }

// Protection describes the architecture's protection model beyond the
// per-PTE permission bits. ARMv7 tags every mapping with one of 16
// domains and revokes access per-domain through the DACR on context
// switch — the mechanism the paper's TLB-sharing design exploits.
// Architectures without domains (Sv39's U/S bits plus SUM cover only a
// user/supervisor split) set HasDomains false and collapse every domain
// field to zero, which makes the kernel's domain bookkeeping a
// behavioral no-op; the TLB-sharing design must then fall back to
// flushing global entries on switches to non-sharing processes.
type Protection struct {
	// HasDomains reports whether the architecture has a domain register
	// that can revoke access to tagged mappings without touching PTEs.
	HasDomains bool
	// NumDomains is the number of architecturally defined domains (16
	// on ARMv7, 1 — the trivial domain 0 — otherwise).
	NumDomains int
	// KernelDomain tags kernel mappings.
	KernelDomain uint8
	// UserDomain tags ordinary user mappings.
	UserDomain uint8
	// SharedDomain tags zygote-preloaded shared code, the domain whose
	// access the DACR toggles per-process. Equal to UserDomain when
	// HasDomains is false.
	SharedDomain uint8
	// StockDACR is the register value used by the stock kernel.
	StockDACR DACR
	// ZygoteDACR is the register value granted to zygote-like
	// processes: StockDACR plus client access to SharedDomain.
	ZygoteDACR DACR
}
