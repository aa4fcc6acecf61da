// Package cpu models one processor core of the evaluation platform: it
// drives instruction fetches and data accesses through the two-level TLB,
// the hardware page-table walker, and the cache hierarchy, charging cycles
// to the running context. It is the component that turns the memory
// management mechanisms of the vm and core packages into the performance
// numbers the paper reports — execution cycles, instruction-cache stall
// cycles, and instruction main-TLB stall cycles.
//
// The model follows the Cortex-A9: per-core micro-TLBs that are flushed on
// every context switch in front of a unified 128-entry main TLB, a
// hardware walker that loads PTEs through the L1 data cache and L2, and a
// soft page-fault cost calibrated to the ~2.25 microsecond (~2,700 cycle)
// LMbench lat_pagefault measurement on the Nexus 7.
package cpu

import (
	"fmt"

	"repro/internal/arch"
	"repro/internal/cache"
	"repro/internal/pagetable"
	"repro/internal/tlb"
)

// Costs is the cycle cost model.
type Costs struct {
	// BaseInstr is the pipelined cost of one instruction.
	BaseInstr int
	// MainTLBHit is the added latency of a micro-TLB miss that hits in
	// the main TLB.
	MainTLBHit int
	// WalkFixed is the walker's control overhead beyond its two memory
	// accesses.
	WalkFixed int
	// SoftFault is the fixed cost of a soft page fault: mode switch,
	// exception entry and exit. The fault path's instruction execution
	// is modeled separately via SoftFaultKernelText; together they land
	// near the ~2,700-cycle LMbench lat_pagefault measurement.
	SoftFault int
	// SoftFaultKernelText is the number of kernel-text bytes the fault
	// path executes (trap dispatch, region lookup, PTE population, rmap
	// bookkeeping); those fetches pollute the I-cache, which is how
	// page-fault elimination improves launch I-cache stall cycles.
	SoftFaultKernelText int
	// DomainFaultHandler is the cost of the domain-fault exception
	// path: read FSR/FAR, flush matching TLB entries, return.
	DomainFaultHandler int
	// ContextSwitch is the base scheduler cost of a context switch,
	// including the DACR load from the task control block.
	ContextSwitch int
	// TLBFlushAll is the added cost of a full main-TLB flush on a
	// context switch when ASIDs are not used.
	TLBFlushAll int
}

// DefaultCosts returns the calibrated cost model.
func DefaultCosts() Costs {
	return Costs{
		BaseInstr:           1,
		MainTLBHit:          2,
		WalkFixed:           10,
		SoftFault:           700,
		SoftFaultKernelText: 16384,
		DomainFaultHandler:  400,
		ContextSwitch:       900,
		TLBFlushAll:         60,
	}
}

// Stats accumulates per-context performance counters, mirroring the PMU
// and software counters read in the paper's evaluation.
type Stats struct {
	// Cycles is the total execution time attributed to the context.
	Cycles uint64
	// Instructions counts user instructions executed.
	Instructions uint64
	// KernelInstructions counts kernel instructions executed on behalf
	// of the context (fault handling, IPC kernel path).
	KernelInstructions uint64
	// ICacheStallCycles counts L1 instruction cache stall cycles.
	ICacheStallCycles uint64
	// DCacheStallCycles counts L1 data cache stall cycles.
	DCacheStallCycles uint64
	// ITLBStallCycles counts instruction main-TLB stall cycles: the
	// added latency of instruction-side micro-TLB misses, main-TLB
	// misses, and their page walks.
	ITLBStallCycles uint64
	// DTLBStallCycles is the data-side equivalent.
	DTLBStallCycles uint64
	// ITLBMainMisses counts instruction-side main TLB misses.
	ITLBMainMisses uint64
	// DTLBMainMisses counts data-side main TLB misses.
	DTLBMainMisses uint64
	// SoftFaults counts page faults taken.
	SoftFaults uint64
	// DomainFaults counts domain-fault exceptions taken.
	DomainFaults uint64
	// ContextSwitchesIn counts switches into this context.
	ContextSwitchesIn uint64
}

// Context is the hardware-visible execution context of one process: its
// translation table base, ASID, and domain access rights.
type Context struct {
	// ID is the owning process identifier (diagnostics only).
	ID int
	// Name is the owning process name (diagnostics only).
	Name string
	// PT is the process page table (translation table base register).
	PT *pagetable.PageTable
	// ASID is the address space identifier tagged into TLB entries.
	ASID arch.ASID
	// DACR is the domain access control value loaded on switch-in.
	DACR arch.DACR
	// KernelTextPA is the physical base of the kernel text this
	// context's kernel work fetches through the I-cache.
	KernelTextPA arch.PhysAddr
	// FlushGlobals marks a context whose address space does not hold
	// the shared global mappings: on architectures without domain
	// registers the kernel cannot let global TLB entries for shared
	// code survive into such a context, so switching one in must flush
	// the global entries the previous context may have loaded.
	FlushGlobals bool
	// Stats accumulates this context's counters.
	Stats Stats
}

// FaultHandler is the kernel entry point for translation and permission
// faults. It must establish a valid translation for va (or report failure)
// and return the number of kernel instructions the handling consumed
// beyond the fixed SoftFault trap cost.
type FaultHandler interface {
	HandlePageFault(ctx *Context, va arch.VirtAddr, kind arch.AccessKind) error
}

// CPU is one simulated core.
type CPU struct {
	// MicroI and MicroD are the instruction and data micro-TLBs,
	// flushed on every context switch.
	MicroI *tlb.TLB
	// MicroD is the data micro-TLB.
	MicroD *tlb.TLB
	// Main is the unified main TLB.
	Main *tlb.TLB
	// Caches is the cache hierarchy.
	Caches *cache.Hierarchy
	// Costs is the cycle cost model.
	Costs Costs
	// UseASID selects ASID-tagged TLB entries; when false the main TLB
	// is flushed on every context switch (the "Disabled ASID"
	// configuration of Figure 13).
	UseASID bool
	// KeepGlobalOnFlush makes the no-ASID context-switch flush spare
	// global entries: the shared-TLB kernel's translations for
	// zygote-preloaded code are identical in every zygote-like address
	// space and domain-protected against everyone else, so they can
	// survive the switch even without ASIDs.
	KeepGlobalOnFlush bool
	// Handler is the kernel fault handler.
	Handler FaultHandler
	// SampleEvery enables rate-based program-counter sampling: one
	// sample is delivered to Sampler every SampleEvery executed
	// instructions. This mirrors the perf record methodology of
	// Section 4.1.1. Sampling is on only while both SampleEvery > 0 and
	// Sampler is set; a caller detaching the sampler clears both.
	SampleEvery int
	// Sampler receives the samples.
	Sampler Sampler

	geo          arch.Geometry
	largeOffMask arch.VirtAddr
	cur          *Context
	now          uint64
	sinceSample  int
	lastFetchVA  arch.VirtAddr
}

// Sampler receives rate-based program-counter samples: the sampled
// virtual address and whether the core was executing kernel code.
type Sampler interface {
	Sample(va arch.VirtAddr, kernel bool)
}

// sampling reports whether program-counter samples are being taken: a
// rate and a sampler are both set. Only then does tick run.
func (c *CPU) sampling() bool { return c.SampleEvery > 0 && c.Sampler != nil }

// tick advances the sampling counter by n instructions executed at or
// near va and emits due samples. The caller has checked c.sampling().
func (c *CPU) tick(va arch.VirtAddr, kernel bool, n int) {
	c.sinceSample += n
	for c.sinceSample >= c.SampleEvery {
		c.sinceSample -= c.SampleEvery
		c.Sampler.Sample(va, kernel)
	}
}

// New builds a core with the default Cortex-A9-like TLB and cache
// geometry: 32-entry micro-TLBs and a unified 128-entry main TLB. The
// MMU geometry fixes the large-page granularity the TLBs coalesce at
// and the page-table walk depth.
func New(handler FaultHandler, geo arch.Geometry) *CPU {
	return NewWithCaches(handler, cache.DefaultHierarchy(), geo)
}

// NewWithCaches builds a core over an existing cache hierarchy; SMP
// configurations pass per-core hierarchies sharing one L2.
func NewWithCaches(handler FaultHandler, caches *cache.Hierarchy, geo arch.Geometry) *CPU {
	return &CPU{
		MicroI:       tlb.New("uTLB-I", 32, geo.PagesPerLarge()),
		MicroD:       tlb.New("uTLB-D", 32, geo.PagesPerLarge()),
		Main:         tlb.New("mainTLB", 128, geo.PagesPerLarge()),
		Caches:       caches,
		Costs:        DefaultCosts(),
		UseASID:      true,
		Handler:      handler,
		geo:          geo,
		largeOffMask: geo.LargePageSize() - 1,
	}
}

// Geometry returns the MMU geometry the core was built for.
func (c *CPU) Geometry() arch.Geometry { return c.geo }

// Now returns the core's cycle counter.
func (c *CPU) Now() uint64 { return c.now }

// Current returns the running context, nil before the first switch.
func (c *CPU) Current() *Context { return c.cur }

// charge adds cycles to the global clock and the running context.
func (c *CPU) charge(cycles int) {
	c.now += uint64(cycles)
	if c.cur != nil {
		c.cur.Stats.Cycles += uint64(cycles)
	}
}

// ContextSwitch installs ctx as the running context, modeling the
// hardware effects: micro-TLBs are always flushed (Cortex-A9), the main
// TLB is flushed too when ASIDs are disabled, and the DACR is loaded from
// the task control block.
func (c *CPU) ContextSwitch(ctx *Context) {
	if ctx == c.cur {
		return
	}
	c.cur = ctx
	ctx.Stats.ContextSwitchesIn++
	cost := c.Costs.ContextSwitch
	c.MicroI.FlushAll()
	c.MicroD.FlushAll()
	if !c.UseASID {
		if c.KeepGlobalOnFlush {
			c.Main.FlushNonGlobal()
		} else {
			c.Main.FlushAll()
		}
		cost += c.Costs.TLBFlushAll
	}
	if ctx.FlushGlobals && (c.UseASID || c.KeepGlobalOnFlush) {
		// Without domain protection the global entries of the shared
		// mappings must not be visible in an address space that does
		// not hold them; the no-ASID full flush above already removed
		// them, so only the surviving-entry paths pay here.
		c.Main.FlushGlobal()
		cost += c.Costs.TLBFlushAll
	}
	c.charge(cost)
}

// fetchBlock models the execution of n sequential instructions starting
// at va, all within one page: the address is translated once, and the
// I-cache is accessed once per 32-byte line covered. This is the page
// visit (a RefRun with Block n); it keeps the TLB and cache models exact
// at line granularity while charging n instructions.
func (c *CPU) fetchBlock(va arch.VirtAddr, n int) error {
	if n <= 0 {
		return nil
	}
	const instrSize = 4
	const lineSize = 32
	off := int(va & arch.PageMask)
	if off+n*instrSize > arch.PageSize {
		// The first instruction executes even when it straddles the page end.
		n = max((arch.PageSize-off)/instrSize, 1)
	}
	ctx := c.cur
	if ctx == nil {
		return fmt.Errorf("cpu: fetch block at %#x with no context", va)
	}
	// The first instruction's line, plus the further lines the rest of
	// the block's bytes reach.
	lines := 1
	if n > 1 {
		lines += (off+n*instrSize-1)/lineSize - off/lineSize
	}
	// The first instruction takes the full translation (and handles any
	// fault), and the rest of the block reuses it. The block's
	// re-translation is a micro-TLB hit on the slot the translation left,
	// committed without a probe, and the first line's fetch joins the rest
	// of the block's lines. Events carry no clock and samples carry only
	// their address, so charging once after the translation leaves every
	// counter, event and sample as charging step by step would.
	pa, slot, err := c.issue(va, arch.AccessFetch)
	if err != nil {
		return err
	}
	if rest := n - 1; rest > 0 {
		ctx.Stats.Instructions += uint64(rest)
		if c.sampling() {
			c.tick(va, false, rest)
		}
		c.MicroI.CommitHit(slot)
	}
	stall := c.fetchLines(pa, lines)
	ctx.Stats.ICacheStallCycles += uint64(stall)
	c.charge((n-1)*c.Costs.BaseInstr + stall)
	return nil
}

// fetchLines fetches a block's lines through the I-cache and returns the
// stall cycles: pa's own line, then the following lines at their line
// bases, as the block's instructions address them. Page visits start at
// a line base, so this is one cache run; a block starting mid-line
// issues its first line separately.
func (c *CPU) fetchLines(pa arch.PhysAddr, lines int) int {
	const lineSize = 32
	if off := pa & (lineSize - 1); off != 0 && lines > 1 {
		return c.Caches.FetchRun(pa, 1) + c.Caches.FetchRun(pa-off+lineSize, lines-1)
	}
	return c.Caches.FetchRun(pa, lines)
}

// ChargeUser charges abstract user compute cycles (register-register
// work with no memory-system interaction) and the equivalent instruction
// count to the running context.
func (c *CPU) ChargeUser(instrs int) {
	if c.cur == nil || instrs <= 0 {
		return
	}
	c.cur.Stats.Instructions += uint64(instrs)
	c.charge(instrs * c.Costs.BaseInstr)
	if c.sampling() {
		c.tick(c.lastFetchVA, false, instrs)
	}
}

// access executes one user reference at va: an instruction fetch through
// the instruction side and the I-cache, or a load or store through the
// data side, charging the cycles. A translation or permission fault
// invokes the kernel handler and retries.
func (c *CPU) access(va arch.VirtAddr, kind arch.AccessKind) error {
	ctx := c.cur
	if ctx == nil {
		return fmt.Errorf("cpu: access %#x with no context", va)
	}
	pa, _, err := c.issue(va, kind)
	if err != nil {
		return err
	}
	var lat int
	if kind == arch.AccessFetch {
		lat = c.Caches.Fetch(pa)
		ctx.Stats.ICacheStallCycles += uint64(lat - 1)
	} else {
		lat = c.Caches.Data(pa)
		ctx.Stats.DCacheStallCycles += uint64(lat - 1)
	}
	c.charge(lat - 1)
	return nil
}

// issue retires one instruction at va up to its memory access: the base
// cost, the instruction count and the sampler tick, then the translation,
// delivering faults to the kernel and retrying. It returns the physical
// address and the micro-TLB slot the translation resolved at. The
// caller has checked that a context is running.
func (c *CPU) issue(va arch.VirtAddr, kind arch.AccessKind) (arch.PhysAddr, int32, error) {
	ctx := c.cur
	c.charge(c.Costs.BaseInstr)
	ctx.Stats.Instructions++
	if kind == arch.AccessFetch {
		c.lastFetchVA = va
	}
	if c.sampling() {
		c.tick(c.lastFetchVA, false, 1)
	}

	micro, stall := c.MicroI, &ctx.Stats.ITLBStallCycles
	mainMisses := &ctx.Stats.ITLBMainMisses
	if kind != arch.AccessFetch {
		micro, stall = c.MicroD, &ctx.Stats.DTLBStallCycles
		mainMisses = &ctx.Stats.DTLBMainMisses
	}

	const maxRetries = 8
	for attempt := 0; attempt < maxRetries; attempt++ {
		pa, slot, ok, err := c.translate(va, kind, micro, stall, mainMisses)
		if err != nil {
			return 0, 0, err
		}
		if ok {
			return pa, slot, nil
		}
		// A fault was handled; retry the translation.
	}
	return 0, 0, fmt.Errorf("cpu: %s at %#x did not resolve after %d fault retries (pid %d %q)",
		kind, va, maxRetries, ctx.ID, ctx.Name)
}

// translate resolves va to a physical address and the micro-TLB slot
// that now translates it. ok=false means a fault was delivered to the
// kernel and the access must be retried.
func (c *CPU) translate(va arch.VirtAddr, kind arch.AccessKind, micro *tlb.TLB, stall *uint64, mainMisses *uint64) (pa arch.PhysAddr, slot int32, ok bool, err error) {
	ctx := c.cur
	e, slot, r := micro.Lookup(va, ctx.ASID, ctx.DACR, kind)
	switch r {
	case tlb.Hit:
		return c.physAddr(e.Frame(), e.Flags(), va), slot, true, nil
	case tlb.DomainFault:
		c.domainFault(va, micro)
		return 0, 0, false, nil
	case tlb.PermFault:
		return 0, 0, false, c.pageFault(va, kind, micro)
	}

	// Micro miss: probe the main TLB.
	c.charge(c.Costs.MainTLBHit)
	*stall += uint64(c.Costs.MainTLBHit)
	e, _, r = c.Main.Lookup(va, ctx.ASID, ctx.DACR, kind)
	switch r {
	case tlb.Hit:
		slot = micro.Insert(va, ctx.ASID, e.Frame(), e.Flags(), e.Domain())
		return c.physAddr(e.Frame(), e.Flags(), va), slot, true, nil
	case tlb.DomainFault:
		c.domainFault(va, micro)
		return 0, 0, false, nil
	case tlb.PermFault:
		return 0, 0, false, c.pageFault(va, kind, micro)
	}

	// Main miss: hardware page walk. The walker reads one entry per
	// table level through the cache hierarchy; with a shared PTP the
	// leaf PTE word has the same physical address in every process.
	*mainMisses++
	walk := c.Costs.WalkFixed
	pte, ptSlot, fault, path := ctx.PT.Walk(va)
	for i := 0; i < path.N; i++ {
		walk += c.Caches.Walk(path.Addrs[i])
	}
	c.charge(walk)
	*stall += uint64(walk)

	if fault != arch.FaultNone {
		return 0, 0, false, c.pageFault(va, kind, micro)
	}
	if !permits(pte.Flags, kind, ctx.DACR.Access(ptSlot.Domain)) {
		if ctx.DACR.Access(ptSlot.Domain) == arch.DomainNoAccess {
			// Architecturally a walk into a no-access domain aborts
			// with a domain fault rather than loading the TLB.
			c.domainFault(va, micro)
			return 0, 0, false, nil
		}
		return 0, 0, false, c.pageFault(va, kind, micro)
	}
	c.Main.Insert(va, ctx.ASID, pte.Frame, pte.Flags, ptSlot.Domain)
	slot = micro.Insert(va, ctx.ASID, pte.Frame, pte.Flags, ptSlot.Domain)
	return c.physAddr(pte.Frame, pte.Flags, va), slot, true, nil
}

// physAddr computes the physical address for a translated access,
// honoring large-page mappings (whose TLB entries and PTE replicas
// carry the base frame of the large block).
func (c *CPU) physAddr(frame arch.FrameNum, flags arch.PTEFlags, va arch.VirtAddr) arch.PhysAddr {
	if flags&arch.PTELarge != 0 {
		return arch.FrameAddr(frame) + arch.PhysAddr(va&c.largeOffMask)
	}
	return arch.FrameAddr(frame) + arch.PhysAddr(va&arch.PageMask)
}

func permits(flags arch.PTEFlags, kind arch.AccessKind, acc arch.DomainAccess) bool {
	if acc == arch.DomainManager {
		return true
	}
	if flags&arch.PTEUser == 0 {
		return false
	}
	switch kind {
	case arch.AccessFetch:
		return flags&arch.PTEExec != 0
	case arch.AccessWrite:
		return flags&arch.PTEWrite != 0
	default:
		return true
	}
}

// domainFault models the memory-abort exception taken when an access
// matches a TLB entry in a domain the DACR denies: the handler reads the
// FSR, finds a domain fault, and flushes all TLB entries matching the
// faulting address so the retry walks the process's own page table.
func (c *CPU) domainFault(va arch.VirtAddr, micro *tlb.TLB) {
	ctx := c.cur
	ctx.Stats.DomainFaults++
	micro.FlushVA(va)
	c.Main.FlushVA(va)
	c.charge(c.Costs.DomainFaultHandler)
	ctx.Stats.KernelInstructions += uint64(c.Costs.DomainFaultHandler / 2)
}

// pageFault models a soft page fault: trap into the kernel, run the fault
// path (whose kernel-text fetches pollute the I-cache), and let the VM
// system establish the translation.
func (c *CPU) pageFault(va arch.VirtAddr, kind arch.AccessKind, micro *tlb.TLB) error {
	ctx := c.cur
	if c.Handler == nil {
		return fmt.Errorf("cpu: unhandled %s page fault at %#x (pid %d %q)", kind, va, ctx.ID, ctx.Name)
	}
	ctx.Stats.SoftFaults++
	c.charge(c.Costs.SoftFault)
	c.KernelExec(c.Costs.SoftFaultKernelText)
	// The translation that failed the permission check must not be used
	// again after the kernel fixes the PTE.
	micro.FlushVA(va)
	c.Main.FlushVA(va)
	if err := c.Handler.HandlePageFault(ctx, va, kind); err != nil {
		return fmt.Errorf("cpu: page fault at %#x (pid %d %q): %w", va, ctx.ID, ctx.Name, err)
	}
	return nil
}

// KernelExec models the execution of kernel code on behalf of the current
// context: bytes of kernel text are fetched through the I-cache (from the
// context's kernel-text physical window, shared by all processes) and the
// stall cycles and kernel instruction counts are charged.
func (c *CPU) KernelExec(bytes int) {
	ctx := c.cur
	if ctx == nil || bytes <= 0 {
		return
	}
	const instrSize = 4
	const lineSize = 32
	n := bytes / instrSize
	ctx.Stats.KernelInstructions += uint64(n)
	c.charge(n * c.Costs.BaseInstr)
	if c.sampling() {
		c.tick(kernelSpaceVA, true, n)
	}
	stall := c.Caches.FetchRun(ctx.KernelTextPA, (bytes+lineSize-1)/lineSize)
	if stall > 0 {
		ctx.Stats.ICacheStallCycles += uint64(stall)
		c.charge(stall)
	}
}

// ChargeKernel charges raw kernel cycles (and the equivalent instruction
// count) without cache modeling, for fixed-cost kernel paths such as
// system-call entry or scheduler bookkeeping.
func (c *CPU) ChargeKernel(cycles int) {
	if c.cur != nil {
		c.cur.Stats.KernelInstructions += uint64(cycles)
	}
	c.charge(cycles)
	if c.sampling() {
		c.tick(kernelSpaceVA, true, cycles)
	}
}

// kernelSpaceVA is the pseudo program counter reported for kernel-mode
// samples; Linux/ARM places the kernel above this split.
const kernelSpaceVA = arch.VirtAddr(0xC0000000)
