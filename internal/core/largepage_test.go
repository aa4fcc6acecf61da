package core

import (
	"testing"

	"repro/internal/arch"
	"repro/internal/arch/armv7"
	"repro/internal/vm"
)

func largeRegion(t *testing.T, k *Kernel, p *Process) *vm.VMA {
	t.Helper()
	// 128KB of code, 64KB aligned.
	f := vm.NewFile(k.Phys, "boot.oat", 2*armv7.LargePageSize)
	v := &vm.VMA{
		Start: 0x30000000, End: 0x30000000 + 2*armv7.LargePageSize,
		Prot: vm.ProtRead | vm.ProtExec, Flags: vm.VMAPrivate, File: f,
		Name: "boot.oat code", Category: vm.CatZygoteJavaLib,
	}
	if err := k.MapLargePages(p, v); err != nil {
		t.Fatal(err)
	}
	return v
}

func TestMapLargePages(t *testing.T) {
	k := boot(t, SharedPTP())
	p, err := k.NewProcess("zygote")
	if err != nil {
		t.Fatal(err)
	}
	k.SetZygote(p)
	v := largeRegion(t, k, p)

	// All 32 subpage PTEs exist, replicated with the block base frame.
	first := p.MM.PT.PTEAt(v.Start)
	if first == nil || !first.Valid() || first.Flags&arch.PTELarge == 0 {
		t.Fatalf("first PTE = %+v", first)
	}
	if first.Frame%armv7.PagesPerLargePage != 0 {
		t.Errorf("base frame %d not 64KB aligned", first.Frame)
	}
	for i := 0; i < armv7.PagesPerLargePage; i++ {
		pte := p.MM.PT.PTEAt(v.Start + arch.VirtAddr(i*arch.PageSize))
		if pte == nil || pte.Frame != first.Frame {
			t.Fatalf("replica %d = %+v, want base %d", i, pte, first.Frame)
		}
	}
	second := p.MM.PT.PTEAt(v.Start + armv7.LargePageSize)
	if second.Frame == first.Frame {
		t.Error("second chunk must have its own block")
	}
	// The page cache is fully resident: 32 pages.
	if got := v.File.ResidentPages(); got != 32 {
		t.Errorf("resident pages = %d, want 32 (eager large mapping)", got)
	}
}

func TestLargePageExecution(t *testing.T) {
	k := boot(t, SharedPTP())
	p, err := k.NewProcess("zygote")
	if err != nil {
		t.Fatal(err)
	}
	k.SetZygote(p)
	v := largeRegion(t, k, p)

	err = k.Run(p, func() error {
		// Fetch across the whole 64KB page: no faults (eager mapping).
		for off := arch.VirtAddr(0); off < armv7.LargePageSize; off += arch.PageSize {
			if err := ref(k.CPU, v.Start+off, arch.AccessFetch); err != nil {
				return err
			}
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if p.MM.Counters.PageFaults != 0 {
		t.Errorf("large-page fetches took %d faults, want 0", p.MM.Counters.PageFaults)
	}
	// One TLB entry covers all 16 subpages: exactly one main-TLB miss.
	if got := p.Ctx.Stats.ITLBMainMisses; got != 1 {
		t.Errorf("ITLB misses = %d, want 1 (one 64KB entry covers the page)", got)
	}
}

func TestLargePagePhysicalContiguity(t *testing.T) {
	// Physical addresses within the 64KB page are contiguous from the
	// block base: the paper's complementarity requires real large-page
	// semantics, not 16 unrelated frames.
	k := boot(t, SharedPTP())
	p, _ := k.NewProcess("zygote")
	k.SetZygote(p)
	v := largeRegion(t, k, p)
	pte := p.MM.PT.PTEAt(v.Start + 5*arch.PageSize)
	base := arch.FrameAddr(pte.Frame)
	// Subpage 5 should land at base + 5*4KB.
	wantPA := base + 5*arch.PageSize
	gotFrame := pte.Frame // replicas carry the base
	if arch.FrameAddr(gotFrame)+5*arch.PageSize != wantPA {
		t.Errorf("physical layout broken")
	}
}

func TestLargePagePTPSharing(t *testing.T) {
	// The PTPs holding large-page PTEs share at fork like any others,
	// and the child executes through them without faults.
	k := boot(t, SharedPTP())
	p, _ := k.NewProcess("zygote")
	k.SetZygote(p)
	v := largeRegion(t, k, p)

	child, err := k.Fork(p, "app")
	if err != nil {
		t.Fatal(err)
	}
	idx := k.Geometry().Slot(v.Start)
	if !child.MM.PT.Slot(idx).NeedCopy {
		t.Error("large-page PTP should be shared at fork")
	}
	if err := k.Run(child, func() error { return ref(k.CPU, v.Start+0x7000, arch.AccessFetch) }); err != nil {
		t.Fatal(err)
	}
	if child.MM.Counters.PageFaults != 0 {
		t.Error("child should inherit the large-page translations")
	}
}

func TestMapLargePagesValidation(t *testing.T) {
	k := boot(t, SharedPTP())
	p, _ := k.NewProcess("p")
	f := vm.NewFile(k.Phys, "f", 4*armv7.LargePageSize)
	cases := []*vm.VMA{
		// No file.
		{Start: 0x30000000, End: 0x30010000, Prot: vm.ProtRead, Flags: vm.VMAPrivate, Name: "anon"},
		// Writable.
		{Start: 0x30000000, End: 0x30010000, Prot: vm.ProtRead | vm.ProtWrite,
			Flags: vm.VMAPrivate, File: f, Name: "rw"},
		// Misaligned.
		{Start: 0x30001000, End: 0x30011000, Prot: vm.ProtRead,
			Flags: vm.VMAPrivate, File: f, Name: "misaligned"},
	}
	for _, v := range cases {
		if err := k.MapLargePages(p, v); err == nil {
			t.Errorf("MapLargePages(%s) should fail", v.Name)
		}
	}
}

func TestLargeFrameConflictsWith4KB(t *testing.T) {
	k := boot(t, Stock())
	f := vm.NewFile(k.Phys, "f", 2*armv7.LargePageSize)
	if _, err := f.PageFrame(3); err != nil { // 4KB page inside chunk 0
		t.Fatal(err)
	}
	if _, err := f.LargeFrame(0, armv7.PagesPerLargePage); err == nil {
		t.Error("partially cached chunk must not be mappable large")
	}
	if _, err := f.LargeFrame(1, armv7.PagesPerLargePage); err != nil {
		t.Errorf("untouched chunk should map large: %v", err)
	}
	// Idempotent.
	a, _ := f.LargeFrame(1, armv7.PagesPerLargePage)
	b, err := f.LargeFrame(1, armv7.PagesPerLargePage)
	if err != nil || a != b {
		t.Errorf("LargeFrame not stable: %d vs %d (%v)", a, b, err)
	}
	if _, err := f.LargeFrame(99, armv7.PagesPerLargePage); err == nil {
		t.Error("chunk beyond EOF should fail")
	}
}
