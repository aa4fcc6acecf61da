package core

import (
	"testing"

	"repro/internal/arch"
	"repro/internal/cpu"
	"repro/internal/mem"
	"repro/internal/tlb"
	"repro/internal/vm"
)

const testFrames = 4096

// ref issues one reference of kind at va on c: a one-element run.
func ref(c *cpu.CPU, va arch.VirtAddr, kind arch.AccessKind) error {
	return c.AccessBatch([]arch.RefRun{{VA: va, Count: 1, Kind: kind}})
}

func boot(t *testing.T, cfg Config) *Kernel {
	t.Helper()
	k, err := New(testFrames, WithConfig(cfg))
	if err != nil {
		t.Fatal(err)
	}
	return k
}

// buildParent creates a zygote-like parent with a file-backed code region,
// a file-backed private data region, an anonymous heap, and a stack, then
// touches some pages of each.
func buildParent(t *testing.T, k *Kernel) *Process {
	t.Helper()
	p, err := k.NewProcess("zygote")
	if err != nil {
		t.Fatal(err)
	}
	k.SetZygote(p)
	lib := vm.NewFile(k.Phys, "libc.so", 0x80000)
	regions := []*vm.VMA{
		{Start: 0x00100000, End: 0x00140000, Prot: vm.ProtRead | vm.ProtExec,
			Flags: vm.VMAPrivate, File: lib, Name: "libc.so code", Category: vm.CatZygoteDynLib},
		{Start: 0x00140000, End: 0x00180000, Prot: vm.ProtRead | vm.ProtWrite,
			Flags: vm.VMAPrivate, File: lib, FileOff: 0x40000, Name: "libc.so data"},
		{Start: 0x00200000, End: 0x00280000, Prot: vm.ProtRead | vm.ProtWrite,
			Flags: vm.VMAPrivate, Name: "heap"},
		{Start: 0x7FF00000, End: 0x7FF40000, Prot: vm.ProtRead | vm.ProtWrite,
			Flags: vm.VMAPrivate | vm.VMAStack, Name: "stack"},
	}
	for _, v := range regions {
		if err := k.Mmap(p, v); err != nil {
			t.Fatal(err)
		}
	}
	err = k.Run(p, func() error {
		for va := arch.VirtAddr(0x00100000); va < 0x00110000; va += arch.PageSize {
			if err := ref(k.CPU, va, arch.AccessFetch); err != nil {
				return err
			}
		}
		for va := arch.VirtAddr(0x00200000); va < 0x00208000; va += arch.PageSize {
			if err := ref(k.CPU, va, arch.AccessWrite); err != nil {
				return err
			}
		}
		for va := arch.VirtAddr(0x7FF3C000); va < 0x7FF40000; va += arch.PageSize {
			if err := ref(k.CPU, va, arch.AccessWrite); err != nil {
				return err
			}
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	return p
}

func TestConfigNames(t *testing.T) {
	cases := map[string]Config{
		"Stock Android":    Stock(),
		"Copied PTEs":      CopiedPTEs(),
		"Shared PTP":       SharedPTP(),
		"Shared PTP & TLB": SharedPTPTLB(),
	}
	for want, cfg := range cases {
		if got := cfg.Name(); got != want {
			t.Errorf("Name() = %q, want %q", got, want)
		}
	}
}

func TestInvalidConfigRejected(t *testing.T) {
	if _, err := New(testFrames, WithConfig(Config{SharePTP: true, CopyPTEsAtFork: true})); err == nil {
		t.Fatal("SharePTP+CopyPTEsAtFork should be rejected")
	}
}

func TestStockForkCopiesAnonSkipsFile(t *testing.T) {
	k := boot(t, Stock())
	parent := buildParent(t, k)
	child, err := k.Fork(parent, "app")
	if err != nil {
		t.Fatal(err)
	}
	fs := child.ForkStats
	// Anonymous heap (8 pages) + stack (4 pages) copied; clean file pages skipped.
	if fs.PTEsCopied != 12 {
		t.Errorf("PTEsCopied = %d, want 12", fs.PTEsCopied)
	}
	if fs.PTPsShared != 0 {
		t.Errorf("PTPsShared = %d, want 0 under stock", fs.PTPsShared)
	}
	if fs.PTPsAllocated == 0 {
		t.Error("stock fork should allocate child PTPs for the copies")
	}
	// File-backed code pages are not in the child: soft faults refill them.
	if p := child.MM.PT.PTEAt(0x00100000); p != nil && p.Valid() {
		t.Error("clean file PTE should not be copied at stock fork")
	}
	// Anon pages are present, COW-protected, sharing frames with parent.
	cp := child.MM.PT.PTEAt(0x00200000)
	pp := parent.MM.PT.PTEAt(0x00200000)
	if cp == nil || !cp.Valid() || cp.Writable() {
		t.Fatalf("child anon PTE = %+v", cp)
	}
	if pp.Writable() {
		t.Error("parent anon PTE must be write-protected after fork")
	}
	if cp.Frame != pp.Frame {
		t.Error("COW pages must share frames")
	}
}

func TestCopiedPTEsForkCopiesSharedCode(t *testing.T) {
	k := boot(t, CopiedPTEs())
	parent := buildParent(t, k)
	child, err := k.Fork(parent, "app")
	if err != nil {
		t.Fatal(err)
	}
	// 16 code pages were populated in the parent and must now be copied
	// too: 12 (stock) + 16 = 28.
	if child.ForkStats.PTEsCopied != 28 {
		t.Errorf("PTEsCopied = %d, want 28", child.ForkStats.PTEsCopied)
	}
	if p := child.MM.PT.PTEAt(0x00100000); p == nil || !p.Valid() {
		t.Error("shared-code PTE should be copied by the Copied PTEs kernel")
	}
}

func TestSharedPTPFork(t *testing.T) {
	k := boot(t, SharedPTP())
	parent := buildParent(t, k)
	child, err := k.Fork(parent, "app")
	if err != nil {
		t.Fatal(err)
	}
	fs := child.ForkStats
	// Slots 0x001 (libc), 0x002 (heap) shared; stack slot 0x7FF copied.
	if fs.PTPsShared != 2 {
		t.Errorf("PTPsShared = %d, want 2", fs.PTPsShared)
	}
	if fs.PTEsCopied != 4 {
		t.Errorf("PTEsCopied = %d, want 4 (the stack pages)", fs.PTEsCopied)
	}
	if fs.PTPsAllocated != 1 {
		t.Errorf("PTPsAllocated = %d, want 1 (the stack PTP)", fs.PTPsAllocated)
	}
	if fs.PTEsWriteProtected == 0 {
		t.Error("first share must write-protect the writable PTEs")
	}
	// The child's shared slots carry NEED_COPY, and so do the parent's.
	if !child.MM.PT.Slot(1).NeedCopy || !parent.MM.PT.Slot(1).NeedCopy {
		t.Error("both sides must be NEED_COPY")
	}
	if got := child.MM.PT.SharerCount(1); got != 2 {
		t.Errorf("sharer count = %d, want 2", got)
	}
	// Shared fork must be much cheaper than stock fork of the same space.
	k2 := boot(t, Stock())
	p2 := buildParent(t, k2)
	c2, err := k2.Fork(p2, "app")
	if err != nil {
		t.Fatal(err)
	}
	if fs.Cycles >= c2.ForkStats.Cycles {
		t.Errorf("shared fork (%d cycles) should beat stock fork (%d cycles)",
			fs.Cycles, c2.ForkStats.Cycles)
	}
}

func TestSecondForkIsCheaper(t *testing.T) {
	k := boot(t, SharedPTP())
	parent := buildParent(t, k)
	c1, err := k.Fork(parent, "app1")
	if err != nil {
		t.Fatal(err)
	}
	c2, err := k.Fork(parent, "app2")
	if err != nil {
		t.Fatal(err)
	}
	// The second fork finds NEED_COPY already set: no write-protect pass.
	if c2.ForkStats.PTEsWriteProtected != 0 {
		t.Errorf("second fork write-protected %d PTEs, want 0", c2.ForkStats.PTEsWriteProtected)
	}
	if c2.ForkStats.Cycles >= c1.ForkStats.Cycles {
		t.Errorf("second fork (%d) should be no more expensive than first (%d)",
			c2.ForkStats.Cycles, c1.ForkStats.Cycles)
	}
	if got := parent.MM.PT.SharerCount(1); got != 3 {
		t.Errorf("sharer count = %d, want 3", got)
	}
}

func TestSharedPTPReadFaultPopulatesForAllSharers(t *testing.T) {
	k := boot(t, SharedPTP())
	parent := buildParent(t, k)
	child1, _ := k.Fork(parent, "app1")
	child2, _ := k.Fork(parent, "app2")

	// child1 faults on a code page nobody has touched.
	va := arch.VirtAddr(0x00120000)
	if err := k.Run(child1, func() error { return ref(k.CPU, va, arch.AccessFetch) }); err != nil {
		t.Fatal(err)
	}
	if child1.MM.Counters.FileFaults != 1 {
		t.Errorf("child1 FileFaults = %d, want 1", child1.MM.Counters.FileFaults)
	}
	// child2 and the parent see the PTE without faulting.
	if err := k.Run(child2, func() error { return ref(k.CPU, va, arch.AccessFetch) }); err != nil {
		t.Fatal(err)
	}
	if child2.MM.Counters.FileFaults != 0 {
		t.Errorf("child2 FileFaults = %d, want 0 (PTE visible via shared PTP)", child2.MM.Counters.FileFaults)
	}
	if p := parent.MM.PT.PTEAt(va); p == nil || !p.Valid() {
		t.Error("parent must see the PTE populated by child1")
	}
}

func TestWriteFaultUnshares(t *testing.T) {
	k := boot(t, SharedPTP())
	parent := buildParent(t, k)
	child, _ := k.Fork(parent, "app")

	// Child writes its heap: write fault in a shared PTP triggers
	// unsharing, then normal COW handling.
	va := arch.VirtAddr(0x00200000)
	if err := k.Run(child, func() error { return ref(k.CPU, va, arch.AccessWrite) }); err != nil {
		t.Fatal(err)
	}
	if k.Counters.UnshareOps == 0 {
		t.Error("write fault in shared PTP must unshare")
	}
	if child.MM.PT.Slot(2).NeedCopy {
		t.Error("child's heap slot must be private after unshare")
	}
	if !parent.MM.PT.Slot(2).NeedCopy {
		t.Error("parent keeps its NEED_COPY marking until it writes")
	}
	// Child's write is private.
	cp := child.MM.PT.PTEAt(va)
	pp := parent.MM.PT.PTEAt(va)
	if cp.Frame == pp.Frame {
		t.Error("after COW the child must have its own frame")
	}
	if !cp.Writable() {
		t.Error("child PTE must be writable after COW")
	}
	// The code slot is still shared.
	if !child.MM.PT.Slot(1).NeedCopy {
		t.Error("untouched slots must remain shared")
	}
	if child.PTEsCopied == 0 {
		t.Error("unshare copies must be accounted to the process")
	}
}

func TestMmapUnshares(t *testing.T) {
	k := boot(t, SharedPTP())
	parent := buildParent(t, k)
	child, _ := k.Fork(parent, "app")
	// New region inside the heap slot's range (trigger 3): without
	// unsharing, its PTEs would leak to the other sharers.
	nv := &vm.VMA{Start: 0x00280000, End: 0x00290000, Prot: vm.ProtRead | vm.ProtWrite,
		Flags: vm.VMAPrivate, Name: "anon-map"}
	if err := k.Mmap(child, nv); err != nil {
		t.Fatal(err)
	}
	if child.MM.PT.Slot(2).NeedCopy {
		t.Error("mmap into a shared PTP's range must unshare it")
	}
	if err := k.Run(child, func() error { return ref(k.CPU, 0x00280000, arch.AccessWrite) }); err != nil {
		t.Fatal(err)
	}
	// Parent must not see the new PTE.
	if p := parent.MM.PT.PTEAt(0x00280000); p != nil && p.Valid() {
		t.Error("new region's PTEs leaked to the parent")
	}
}

func TestMunmapUnshares(t *testing.T) {
	k := boot(t, SharedPTP())
	parent := buildParent(t, k)
	child, _ := k.Fork(parent, "app")
	if err := k.Munmap(child, 0x00100000, 0x00140000); err != nil {
		t.Fatal(err)
	}
	// Child's code slot is private and cleared; parent still sees its PTEs.
	if child.MM.PT.Slot(1).NeedCopy {
		t.Error("munmap must unshare the slot first")
	}
	if p := child.MM.PT.PTEAt(0x00100000); p != nil && p.Valid() {
		t.Error("unmapped PTE must be cleared")
	}
	if p := parent.MM.PT.PTEAt(0x00100000); p == nil || !p.Valid() {
		t.Error("parent's PTE must survive the child's munmap")
	}
	if child.MM.FindVMA(0x00100000) != nil {
		t.Error("region must be gone from the child")
	}
}

func TestMprotectUnshares(t *testing.T) {
	k := boot(t, SharedPTP())
	parent := buildParent(t, k)
	child, _ := k.Fork(parent, "app")
	if err := k.Mprotect(child, 0x00100000, 0x00140000, vm.ProtRead); err != nil {
		t.Fatal(err)
	}
	if child.MM.PT.Slot(1).NeedCopy {
		t.Error("mprotect must unshare the slot")
	}
	v := child.MM.FindVMA(0x00100000)
	if v == nil || v.Prot != vm.ProtRead {
		t.Errorf("child VMA prot = %v", v)
	}
	pv := parent.MM.FindVMA(0x00100000)
	if pv.Prot != vm.ProtRead|vm.ProtExec {
		t.Error("parent's protection must be untouched")
	}
	// Fetching the now non-exec page must fail in the child.
	if err := k.Run(child, func() error { return ref(k.CPU, 0x00100000, arch.AccessFetch) }); err == nil {
		t.Error("fetch from PROT_READ region should fail")
	}
}

func TestExitDetachesWithoutCopy(t *testing.T) {
	k := boot(t, SharedPTP())
	parent := buildParent(t, k)
	child, _ := k.Fork(parent, "app")
	copiesBefore := k.Counters.PTEsCopiedOnUnshare
	ptpFramesBefore := k.Phys.InUseByKind(mem.FramePageTable)
	k.Exit(child)
	if k.Counters.PTEsCopiedOnUnshare != copiesBefore {
		t.Error("exit must not copy PTEs")
	}
	if child.Alive() {
		t.Error("child should be dead")
	}
	// The child's stack PTP and root table are freed; shared PTPs survive
	// with the parent.
	if got := k.Phys.InUseByKind(mem.FramePageTable); got >= ptpFramesBefore {
		t.Errorf("exit should free page-table frames: %d -> %d", ptpFramesBefore, got)
	}
	if got := parent.MM.PT.SharerCount(1); got != 1 {
		t.Errorf("parent sharer count = %d, want 1", got)
	}
	// Parent can still unshare trivially (sole sharer: clear NEED_COPY).
	if err := k.Run(parent, func() error { return ref(k.CPU, 0x00150000, arch.AccessWrite) }); err != nil {
		t.Fatal(err)
	}
}

func TestTLBSharingGlobalBit(t *testing.T) {
	k := boot(t, SharedPTPTLB())
	parent := buildParent(t, k)
	// Parent's fetches created global PTEs (zygote + exec file mapping).
	pte := parent.MM.PT.PTEAt(0x00100000)
	if pte == nil || !pte.Global() {
		t.Fatalf("zygote code PTE should be global, got %+v", pte)
	}
	child, _ := k.Fork(parent, "app")
	// Child fetches the same page: the TLB entry loaded by the parent is
	// global, so no main-TLB miss and no fault.
	if err := k.Run(child, func() error { return ref(k.CPU, 0x00100000, arch.AccessFetch) }); err != nil {
		t.Fatal(err)
	}
	if child.Ctx.Stats.ITLBMainMisses != 0 {
		t.Errorf("child should hit the parent's global TLB entry, got %d misses",
			child.Ctx.Stats.ITLBMainMisses)
	}
	if child.MM.Counters.PageFaults != 0 {
		t.Error("child should not fault on globally mapped code")
	}
}

func TestTLBSharingDeniedToNonZygote(t *testing.T) {
	k := boot(t, SharedPTPTLB())
	parent := buildParent(t, k)
	_ = parent
	daemon, err := k.NewProcess("daemon") // not forked from the zygote
	if err != nil {
		t.Fatal(err)
	}
	// Give the daemon its own mapping at the same address.
	f := vm.NewFile(k.Phys, "daemon-bin", 0x40000)
	if err := k.Mmap(daemon, &vm.VMA{Start: 0x00100000, End: 0x00140000,
		Prot: vm.ProtRead | vm.ProtExec, Flags: vm.VMAPrivate, File: f, Name: "bin"}); err != nil {
		t.Fatal(err)
	}
	if err := k.Run(daemon, func() error { return ref(k.CPU, 0x00100000, arch.AccessFetch) }); err != nil {
		t.Fatal(err)
	}
	if daemon.Ctx.Stats.DomainFaults != 1 {
		t.Errorf("daemon DomainFaults = %d, want 1", daemon.Ctx.Stats.DomainFaults)
	}
	// The daemon ends with its own private, non-global translation.
	p := daemon.MM.PT.PTEAt(0x00100000)
	if p == nil || !p.Valid() || p.Global() {
		t.Errorf("daemon PTE = %+v, want valid non-global", p)
	}
	// And its page maps the daemon's file, not libc.
	zp := parent.MM.PT.PTEAt(0x00100000)
	if p.Frame == zp.Frame {
		t.Error("daemon must not inherit the zygote's translation")
	}
}

func TestStockHasNoGlobalBit(t *testing.T) {
	k := boot(t, SharedPTP()) // PTP sharing without TLB sharing
	parent := buildParent(t, k)
	if pte := parent.MM.PT.PTEAt(0x00100000); pte.Global() {
		t.Error("global bit must not be set without ShareTLB")
	}
}

func TestSharingStats(t *testing.T) {
	k := boot(t, SharedPTP())
	parent := buildParent(t, k)
	_, _ = k.Fork(parent, "app1")
	_, _ = k.Fork(parent, "app2")
	s := k.SharingStats()
	// Parent: 3 shared slots? No: slots 1 (libc), 2 (heap) shared; stack not.
	// Each of the 3 processes references the 2 shared PTPs -> 6 shared refs;
	// plus 3 stack references (parent's original + 2 copies).
	if s.SharedPTPs != 6 {
		t.Errorf("SharedPTPs = %d, want 6", s.SharedPTPs)
	}
	if s.TotalPTPs != 9 {
		t.Errorf("TotalPTPs = %d, want 9", s.TotalPTPs)
	}
	if s.DistinctPTPs != 5 {
		t.Errorf("DistinctPTPs = %d, want 5 (2 shared + 3 stacks)", s.DistinctPTPs)
	}
}

func TestCopyOnlyReferencedAblation(t *testing.T) {
	cfg := SharedPTP()
	cfg.CopyOnlyReferenced = true
	k := boot(t, cfg)
	parent := buildParent(t, k)
	child, _ := k.Fork(parent, "app")
	// Write to the lib data segment: unshare of the libc slot. With the
	// referenced-only policy, clean file-backed PTEs (the parent's 16
	// fetched code pages) are skipped: page faults can reconstruct them.
	if err := k.Run(child, func() error { return ref(k.CPU, 0x00150000, arch.AccessWrite) }); err != nil {
		t.Fatal(err)
	}
	if got := k.Counters.PTEsCopiedOnUnshare; got != 0 {
		t.Errorf("PTEsCopiedOnUnshare = %d, want 0 (clean file PTEs dropped)", got)
	}
	// The dropped translations simply soft-fault again.
	faults := child.MM.Counters.FileFaults
	if err := k.Run(child, func() error { return ref(k.CPU, 0x00100000, arch.AccessFetch) }); err != nil {
		t.Fatal(err)
	}
	if child.MM.Counters.FileFaults != faults+1 {
		t.Error("dropped PTE should refault on next access")
	}
	// Under the default full-copy policy the same write copies the code
	// PTEs along.
	k2 := boot(t, SharedPTP())
	parent2 := buildParent(t, k2)
	child2, _ := k2.Fork(parent2, "app")
	if err := k2.Run(child2, func() error { return ref(k2.CPU, 0x00150000, arch.AccessWrite) }); err != nil {
		t.Fatal(err)
	}
	if got := k2.Counters.PTEsCopiedOnUnshare; got != 16 {
		t.Errorf("full-copy PTEsCopiedOnUnshare = %d, want 16", got)
	}
}

func TestForkCyclesScaleTable4(t *testing.T) {
	// The relationship of Table 4 must hold: shared < stock < copied.
	var cycles []uint64
	for _, cfg := range []Config{SharedPTP(), Stock(), CopiedPTEs()} {
		k := boot(t, cfg)
		parent := buildParent(t, k)
		child, err := k.Fork(parent, "app")
		if err != nil {
			t.Fatal(err)
		}
		cycles = append(cycles, child.ForkStats.Cycles)
	}
	if !(cycles[0] < cycles[1] && cycles[1] < cycles[2]) {
		t.Errorf("fork cycles = shared %d, stock %d, copied %d; want strictly increasing",
			cycles[0], cycles[1], cycles[2])
	}
}

func TestRunDeadProcessFails(t *testing.T) {
	k := boot(t, Stock())
	p, _ := k.NewProcess("p")
	k.Exit(p)
	if err := k.Run(p, func() error { return nil }); err == nil {
		t.Error("running a dead process should fail")
	}
}

func TestShareStackAblation(t *testing.T) {
	cfg := SharedPTP()
	cfg.ShareStackPTPs = true
	k := boot(t, cfg)
	parent := buildParent(t, k)
	child, _ := k.Fork(parent, "app")
	if child.ForkStats.PTPsShared != 3 {
		t.Errorf("PTPsShared = %d, want 3 (stack shared too)", child.ForkStats.PTPsShared)
	}
	if child.ForkStats.PTPsAllocated != 0 {
		t.Errorf("PTPsAllocated = %d, want 0", child.ForkStats.PTPsAllocated)
	}
	// First stack write unshares immediately — sharing bought nothing.
	if err := k.Run(child, func() error { return ref(k.CPU, 0x7FF3C000, arch.AccessWrite) }); err != nil {
		t.Fatal(err)
	}
	if child.MM.PT.Slot(0x7FF).NeedCopy {
		t.Error("stack slot should have been unshared on first write")
	}
}

func TestSMPShootdowns(t *testing.T) {
	k, err := New(testFrames, WithConfig(SharedPTP()), WithCPUs(4))
	if err != nil {
		t.Fatal(err)
	}
	if k.NumCPUs() != 4 {
		t.Fatalf("NumCPUs = %d", k.NumCPUs())
	}
	// The cores share one L2: a line fetched by core 0 hits for core 1.
	if k.CPUAt(0).Caches.L2 != k.CPUAt(1).Caches.L2 {
		t.Fatal("cores must share the L2")
	}
	if k.CPUAt(0).Caches.L1I == k.CPUAt(1).Caches.L1I {
		t.Fatal("cores must have private L1s")
	}

	parent := buildParentOn(t, k)
	child, err := k.Fork(parent, "app")
	if err != nil {
		t.Fatal(err)
	}
	// Fork write-protected the parent: its ASID is flushed on all four
	// cores, costing three shootdown IPIs.
	if k.Counters.TLBShootdowns != 3 {
		t.Errorf("fork shootdowns = %d, want 3", k.Counters.TLBShootdowns)
	}
	// Child runs on core 2; the parent's entries on core 0 are stale
	// after the child's unshare, which must broadcast.
	before := k.Counters.TLBShootdowns
	err = k.RunOn(2, child, func() error { return ref(k.CPUAt(2), 0x00200000, arch.AccessWrite) })
	if err != nil {
		t.Fatal(err)
	}
	if k.Counters.TLBShootdowns != before+3 {
		t.Errorf("unshare shootdowns = %d, want %d", k.Counters.TLBShootdowns, before+3)
	}
}

// buildParentOn is buildParent for an existing kernel.
func buildParentOn(t *testing.T, k *Kernel) *Process {
	t.Helper()
	p, err := k.NewProcess("zygote")
	if err != nil {
		t.Fatal(err)
	}
	k.SetZygote(p)
	lib := vm.NewFile(k.Phys, "libc.so", 0x80000)
	regions := []*vm.VMA{
		{Start: 0x00100000, End: 0x00140000, Prot: vm.ProtRead | vm.ProtExec,
			Flags: vm.VMAPrivate, File: lib, Name: "libc.so code", Category: vm.CatZygoteDynLib},
		{Start: 0x00200000, End: 0x00280000, Prot: vm.ProtRead | vm.ProtWrite,
			Flags: vm.VMAPrivate, Name: "heap"},
		{Start: 0x7FF00000, End: 0x7FF40000, Prot: vm.ProtRead | vm.ProtWrite,
			Flags: vm.VMAPrivate | vm.VMAStack, Name: "stack"},
	}
	for _, v := range regions {
		if err := k.Mmap(p, v); err != nil {
			t.Fatal(err)
		}
	}
	err = k.Run(p, func() error {
		for va := arch.VirtAddr(0x00100000); va < 0x00108000; va += arch.PageSize {
			if err := ref(k.CPU, va, arch.AccessFetch); err != nil {
				return err
			}
		}
		return ref(k.CPU, 0x00200000, arch.AccessWrite)
	})
	if err != nil {
		t.Fatal(err)
	}
	return p
}

func TestSMPCrossCoreSharedPTE(t *testing.T) {
	// A PTE populated by a fault on core 0 serves the sibling on core 3
	// without a fault — the shared PTP is one structure, not per-core.
	k, err := New(testFrames, WithConfig(SharedPTP()), WithCPUs(4))
	if err != nil {
		t.Fatal(err)
	}
	parent := buildParentOn(t, k)
	c1, _ := k.Fork(parent, "app1")
	c2, _ := k.Fork(parent, "app2")
	if err := k.RunOn(0, c1, func() error { return ref(k.CPUAt(0), 0x00120000, arch.AccessFetch) }); err != nil {
		t.Fatal(err)
	}
	if err := k.RunOn(3, c2, func() error { return ref(k.CPUAt(3), 0x00120000, arch.AccessFetch) }); err != nil {
		t.Fatal(err)
	}
	if c2.MM.Counters.PageFaults != 0 {
		t.Errorf("core-3 sibling took %d faults, want 0", c2.MM.Counters.PageFaults)
	}
	// And its walk hit the L2 line core 0's walk loaded.
	if k.CPUAt(3).Caches.L2.Stats().Hits == 0 {
		t.Error("cross-core walk should hit the shared L2")
	}
}

// validEntries counts tb's valid entries.
func validEntries(tb *tlb.TLB) int {
	n := 0
	for _, e := range tb.SnapshotState().Entries {
		if e.Valid {
			n++
		}
	}
	return n
}

func TestASIDWrapFlushes(t *testing.T) {
	// ASIDs are 8 bits; allocating past 255 wraps and must flush every
	// core's main TLB so recycled ASIDs cannot alias stale entries.
	k := boot(t, Stock())
	p, err := k.NewProcess("first")
	if err != nil {
		t.Fatal(err)
	}
	if err := k.Mmap(p, &vm.VMA{Start: 0x10000, End: 0x20000,
		Prot: vm.ProtRead | vm.ProtWrite, Flags: vm.VMAPrivate, Name: "heap"}); err != nil {
		t.Fatal(err)
	}
	if err := k.Run(p, func() error { return ref(k.CPU, 0x10000, arch.AccessWrite) }); err != nil {
		t.Fatal(err)
	}
	if v := validEntries(k.CPU.Main); v == 0 {
		t.Fatal("expected a resident TLB entry")
	}
	// Exhaust the ASID space.
	for i := 0; i < 256; i++ {
		q, err := k.NewProcess("filler")
		if err != nil {
			t.Fatal(err)
		}
		k.Exit(q)
	}
	if v := validEntries(k.CPU.Main); v != 0 {
		t.Errorf("ASID wrap must flush the main TLB, %d entries survive", v)
	}
}

func TestMunmapSpanningMultiplePTPs(t *testing.T) {
	// Unsharing triggered by a system call "may be necessary to unshare
	// more than one PTP if the virtual address range spans multiple PTPs"
	// (Section 3.1.2).
	k := boot(t, SharedPTP())
	parent := buildParent(t, k)
	// Give the parent a second populated slot adjacent to libc's.
	f2 := vm.NewFile(k.Phys, "lib2.so", 0x100000)
	if err := k.Mmap(parent, &vm.VMA{Start: 0x00300000, End: 0x00400000,
		Prot: vm.ProtRead | vm.ProtExec, Flags: vm.VMAPrivate, File: f2,
		Name: "lib2.so code", Category: vm.CatZygoteDynLib}); err != nil {
		t.Fatal(err)
	}
	err := k.Run(parent, func() error {
		if err := ref(k.CPU, 0x00300000, arch.AccessFetch); err != nil {
			return err
		}
		return ref(k.CPU, 0x003F0000, arch.AccessFetch)
	})
	if err != nil {
		t.Fatal(err)
	}
	child, err := k.Fork(parent, "app")
	if err != nil {
		t.Fatal(err)
	}
	if !child.MM.PT.Slot(1).NeedCopy || !child.MM.PT.Slot(3).NeedCopy {
		t.Fatal("both slots should be shared")
	}
	unshares := k.Counters.UnshareOps
	// One munmap spanning slots 1 (libc data part) through 3 (lib2).
	if err := k.Munmap(child, 0x00140000, 0x00400000); err != nil {
		t.Fatal(err)
	}
	if got := k.Counters.UnshareOps - unshares; got < 2 {
		t.Errorf("spanning munmap performed %d unshares, want >= 2", got)
	}
	if child.MM.PT.Slot(1).NeedCopy || child.MM.PT.Slot(3).NeedCopy {
		t.Error("all spanned slots must be unshared")
	}
	// The parent's view of the unmapped range is intact.
	if p := parent.MM.PT.PTEAt(0x00300000); p == nil || !p.Valid() {
		t.Error("parent's lib2 PTE must survive")
	}
	// The child's libc code below the unmapped range still works.
	if err := k.Run(child, func() error { return ref(k.CPU, 0x00100000, arch.AccessFetch) }); err != nil {
		t.Fatal(err)
	}
}

func TestSharedMappingWriteKeepsFrame(t *testing.T) {
	// A MAP_SHARED region inside a shared PTP: the write fault unshares
	// the PTP (trigger 1) but the data page is the file's frame — both
	// processes keep writing to the same physical page.
	k := boot(t, SharedPTP())
	parent := buildParent(t, k)
	shm := vm.NewFile(k.Phys, "shm", 0x40000)
	if err := k.Mmap(parent, &vm.VMA{Start: 0x00400000, End: 0x00440000,
		Prot: vm.ProtRead | vm.ProtWrite, Flags: vm.VMAShared, File: shm, Name: "shm"}); err != nil {
		t.Fatal(err)
	}
	if err := k.Run(parent, func() error { return ref(k.CPU, 0x00400000, arch.AccessWrite) }); err != nil {
		t.Fatal(err)
	}
	child, err := k.Fork(parent, "worker")
	if err != nil {
		t.Fatal(err)
	}
	if err := k.Run(child, func() error { return ref(k.CPU, 0x00400000, arch.AccessWrite) }); err != nil {
		t.Fatal(err)
	}
	pp := parent.MM.PT.PTEAt(0x00400000)
	cp := child.MM.PT.PTEAt(0x00400000)
	if pp.Frame != cp.Frame {
		t.Errorf("shared mapping must keep one frame: %d vs %d", pp.Frame, cp.Frame)
	}
	if child.MM.Counters.COWBreaks != 0 {
		t.Error("no COW break for shared mappings")
	}
}
