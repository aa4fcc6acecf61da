// Package arch defines the architecture-neutral address types, page-table
// entry encodings and fault model shared by every simulated MMU, plus the
// MMU interface (see mmu.go) through which a concrete architecture
// describes its page-table geometry, TLB tagging scheme and protection
// model. Concrete backends live in subpackages: internal/arch/armv7
// models the 32-bit ARMv7-A short-descriptor format studied in "Shared
// Address Translation Revisited" (EuroSys 2016), and internal/arch/sv39
// models the RISC-V Sv39 three-level format.
//
// Only what is common to every backend lives here: 32-bit virtual and
// physical addresses over 4KB base pages, the simulator's positive-logic
// PTE permission bits, the software-maintained dirty/accessed shadow
// bits, the domain-access-register mechanics (a no-op on architectures
// without domains), and the fault-status codes reported on memory aborts.
package arch

// VirtAddr is a 32-bit virtual address.
//
// Architectures with wider virtual spaces (Sv39's 39 bits, for instance)
// are modeled over the low 4GB of their address space so that workloads
// are identical across backends; see Geometry.VABits.
type VirtAddr uint32

// PhysAddr is a 32-bit physical address.
type PhysAddr uint32

// FrameNum identifies a 4KB physical page frame. Frame n covers physical
// addresses [n<<PageShift, (n+1)<<PageShift).
type FrameNum uint32

// Base-page geometry, common to all modeled architectures.
const (
	// PageShift is log2 of the base (small) page size.
	PageShift = 12
	// PageSize is the base page size: 4KB.
	PageSize = 1 << PageShift
	// PageMask masks the offset within a base page.
	PageMask = PageSize - 1
)

// PageBase returns va rounded down to a 4KB page boundary.
func PageBase(va VirtAddr) VirtAddr { return va &^ VirtAddr(PageMask) }

// VPN returns the virtual page number of va.
func VPN(va VirtAddr) uint32 { return uint32(va) >> PageShift }

// FrameAddr returns the physical base address of frame f.
func FrameAddr(f FrameNum) PhysAddr { return PhysAddr(f) << PageShift }

// PTEFlags is the set of hardware permission and attribute bits carried
// by a leaf page-table entry, as loaded into the TLB. The encoding is the
// simulator's own positive-logic form; each backend documents how it maps
// onto the real entry format.
type PTEFlags uint16

const (
	// PTEValid marks the entry as a valid translation. A fetch or data
	// access through an invalid entry raises a translation fault.
	PTEValid PTEFlags = 1 << iota
	// PTEWrite grants user write access.
	PTEWrite
	// PTEExec grants instruction fetch. ARM expresses this as the
	// absence of XN (execute-never); the simulator uses positive logic.
	PTEExec
	// PTEUser grants unprivileged (user-mode) access.
	PTEUser
	// PTEGlobal asserts that the mapping is identical in all address
	// spaces: the TLB ignores the ASID when matching this entry.
	PTEGlobal
	// PTELarge marks the first of Geometry.PagesPerLarge consecutive
	// entries forming one large-page mapping (64KB on ARMv7, 2MB on
	// Sv39).
	PTELarge
)

// SoftFlags is the set of software-only bits kept in the parallel Linux
// PTE table. On ARMv7 virtually all bits of the hardware level-2 entry
// are reserved for the MMU, and the architecture provides neither a
// hardware "referenced" nor "dirty" bit, so the VM system maintains these
// in a shadow entry paired with the hardware table (Figure 5 of the
// paper). RISC-V has hardware A/D bits, but Linux keeps the same software
// state machine; the simulator models the shadow bits uniformly.
type SoftFlags uint16

const (
	// SoftDirty records that the page has been written.
	SoftDirty SoftFlags = 1 << iota
	// SoftAccessed records that the page has been referenced.
	SoftAccessed
	// SoftFile marks the mapping as file-backed (reconstructible by a
	// soft fault from the page cache, so fork may skip copying it).
	SoftFile
	// SoftCOW marks a private mapping whose next write must copy the
	// underlying page.
	SoftCOW
)

// DomainAccess is a two-bit access right held in the DACR for one domain.
// Architectures without domain registers (Protection.HasDomains false)
// keep every mapping in domain 0 with client access, which makes the
// domain check a structural no-op.
type DomainAccess uint8

const (
	// DomainNoAccess causes any access to the domain to generate a
	// domain fault.
	DomainNoAccess DomainAccess = 0
	// DomainClient checks accesses against the permission bits in the
	// TLB entry / PTE.
	DomainClient DomainAccess = 1
	// DomainManager overrides the permission bits: all accesses are
	// permitted. (Reserved encoding 2 is not modeled.)
	DomainManager DomainAccess = 3
)

// DACR is the domain access control register: two bits of DomainAccess
// per domain, up to 16 domains. It is loaded from the task control block
// on every context switch.
type DACR uint32

// Access returns the access right the register grants to domain d.
func (r DACR) Access(d uint8) DomainAccess {
	return DomainAccess((r >> (2 * uint(d))) & 3)
}

// WithAccess returns a copy of the register with domain d's right set to a.
func (r DACR) WithAccess(d uint8, a DomainAccess) DACR {
	shift := 2 * uint(d)
	return (r &^ (3 << shift)) | DACR(a&3)<<shift
}

// FaultStatus is the memory-abort cause recorded in the fault status
// register (FSR). The exception handler reads it, together with the fault
// address register (FAR), to identify domain faults.
type FaultStatus uint8

const (
	// FaultNone reports no fault.
	FaultNone FaultStatus = iota
	// FaultTranslation reports a missing (invalid) translation.
	FaultTranslation
	// FaultPermission reports an access denied by PTE permission bits.
	FaultPermission
	// FaultDomain reports an access to a domain for which the DACR
	// grants no access.
	FaultDomain
)

// String returns the architectural name of the fault status.
func (f FaultStatus) String() string {
	switch f {
	case FaultNone:
		return "none"
	case FaultTranslation:
		return "translation fault"
	case FaultPermission:
		return "permission fault"
	case FaultDomain:
		return "domain fault"
	default:
		return "unknown fault"
	}
}

// AccessKind distinguishes the three ways the core touches memory.
type AccessKind uint8

const (
	// AccessFetch is an instruction fetch. A faulting fetch generates
	// a prefetch abort exception.
	AccessFetch AccessKind = iota
	// AccessRead is a data load. A faulting load generates a data
	// abort exception.
	AccessRead
	// AccessWrite is a data store.
	AccessWrite
)

// String returns a short name for the access kind.
func (k AccessKind) String() string {
	switch k {
	case AccessFetch:
		return "fetch"
	case AccessRead:
		return "read"
	case AccessWrite:
		return "write"
	default:
		return "unknown"
	}
}

// ASID is an address space identifier as tagged in TLB entries. The type
// is wide enough for every modeled architecture; Tagging.ASIDBits says
// how many of the low bits a given MMU implements (8 on ARMv7, 16 on
// Sv39), and the kernel's allocator wraps at that width.
type ASID uint16
