package trace

import (
	"testing"

	"repro/internal/arch"
	"repro/internal/core"
	"repro/internal/cpu"
	"repro/internal/vm"
)

// ref issues one reference of kind at va on c: a one-element run.
func ref(c *cpu.CPU, va arch.VirtAddr, kind arch.AccessKind) error {
	return c.AccessBatch([]arch.RefRun{{VA: va, Count: 1, Kind: kind}})
}

func TestFaultTraceCollects(t *testing.T) {
	k, err := core.New(2048, core.WithConfig(core.Stock()))
	if err != nil {
		t.Fatal(err)
	}
	tr := &FaultTrace{}
	tr.Attach(k)
	p, err := k.NewProcess("p")
	if err != nil {
		t.Fatal(err)
	}
	f := vm.NewFile(k.Phys, "bin", 0x10000)
	if err := k.Mmap(p, &vm.VMA{Start: 0x10000, End: 0x20000,
		Prot: vm.ProtRead | vm.ProtExec, Flags: vm.VMAPrivate, File: f, Name: "bin"}); err != nil {
		t.Fatal(err)
	}
	if err := k.Mmap(p, &vm.VMA{Start: 0x30000, End: 0x40000,
		Prot: vm.ProtRead | vm.ProtWrite, Flags: vm.VMAPrivate, Name: "heap"}); err != nil {
		t.Fatal(err)
	}
	err = k.Run(p, func() error {
		if err := ref(k.CPU, 0x10000, arch.AccessFetch); err != nil {
			return err
		}
		if err := ref(k.CPU, 0x11000, arch.AccessFetch); err != nil {
			return err
		}
		if err := ref(k.CPU, 0x11004, arch.AccessFetch); err != nil { // same page: no fault
			return err
		}
		return ref(k.CPU, 0x30000, arch.AccessWrite)
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(tr.Events) != 3 {
		t.Fatalf("recorded %d events, want 3", len(tr.Events))
	}
	pages := tr.ExecPages(p.PID)
	if len(pages) != 2 || pages[0] != 0x10000 || pages[1] != 0x11000 {
		t.Errorf("ExecPages = %v", pages)
	}
	tr.Detach()
	if err := k.Run(p, func() error { return ref(k.CPU, 0x12000, arch.AccessFetch) }); err != nil {
		t.Fatal(err)
	}
	if len(tr.Events) != 3 {
		t.Error("detached trace must not record")
	}
}

func TestPCSampler(t *testing.T) {
	s := NewPCSampler()
	s.Sample(0x1004, false)
	s.Sample(0x1008, false)
	s.Sample(0x2000, false)
	s.Sample(0xC0000000, true)
	if s.UserSamples != 3 || s.KernelSamples != 1 {
		t.Errorf("samples = %d user, %d kernel", s.UserSamples, s.KernelSamples)
	}
	if got := s.UserPct(); got != 75 {
		t.Errorf("UserPct = %v, want 75", got)
	}
	if s.ByPage[0x1000] != 2 || s.ByPage[0x2000] != 1 {
		t.Errorf("ByPage = %v", s.ByPage)
	}
}

func TestUserPctEmpty(t *testing.T) {
	if NewPCSampler().UserPct() != 0 {
		t.Error("empty sampler UserPct should be 0")
	}
}

func testSmaps() []vm.Smaps {
	return []vm.Smaps{
		{Start: 0x10000, End: 0x20000, Category: vm.CatZygoteDynLib},
		{Start: 0x20000, End: 0x30000, Category: vm.CatZygoteJavaLib},
		{Start: 0x40000, End: 0x50000, Category: vm.CatOtherDynLib},
		{Start: 0x60000, End: 0x70000, Category: vm.CatPrivateCode},
	}
}

func TestFootprintBreakdown(t *testing.T) {
	pages := []arch.VirtAddr{0x10000, 0x11000, 0x20000, 0x40000, 0x60000, 0x90000}
	got := FootprintBreakdown(testSmaps(), pages)
	want := map[vm.Category]int{
		vm.CatZygoteDynLib:  2,
		vm.CatZygoteJavaLib: 1,
		vm.CatOtherDynLib:   1,
		vm.CatPrivateCode:   1,
		vm.CatOther:         1,
	}
	for c, n := range want {
		if got[c] != n {
			t.Errorf("category %v = %d, want %d", c, got[c], n)
		}
	}
}

func TestFetchBreakdown(t *testing.T) {
	s := NewPCSampler()
	s.Sample(0x10000, false)
	s.Sample(0x10004, false)
	s.Sample(0x40000, false)
	got := FetchBreakdown(testSmaps(), s)
	if got[vm.CatZygoteDynLib] != 2 || got[vm.CatOtherDynLib] != 1 {
		t.Errorf("FetchBreakdown = %v", got)
	}
}

func TestSharedCodePages(t *testing.T) {
	pages := []arch.VirtAddr{0x10000, 0x20000, 0x40000, 0x60000}
	all := SharedCodePages(testSmaps(), pages, false)
	if len(all) != 3 { // dynlib + javalib + other dynlib
		t.Errorf("all shared = %v", all)
	}
	zyg := SharedCodePages(testSmaps(), pages, true)
	if len(zyg) != 2 { // dynlib + javalib only
		t.Errorf("zygote shared = %v", zyg)
	}
}

func TestIntersectionPct(t *testing.T) {
	a := []uint64{1, 2, 3}
	b := []uint64{2, 3, 4}
	if got := IntersectionPct(a, b, 4); got != 50 {
		t.Errorf("IntersectionPct = %v, want 50 (2 of footprint 4)", got)
	}
	if got := IntersectionPct(a, nil, 4); got != 0 {
		t.Errorf("empty b = %v", got)
	}
	if got := IntersectionPct(a, b, 0); got != 0 {
		t.Errorf("zero footprint = %v", got)
	}
}

func TestSharedCodeKeysIgnoreVA(t *testing.T) {
	// The same library page mapped at different addresses in two
	// processes yields the same key; an unrelated file at the same
	// address yields a different one.
	smapsA := []vm.Smaps{{Start: 0x10000, End: 0x20000, Name: "libc.so code", Category: vm.CatZygoteDynLib}}
	smapsB := []vm.Smaps{{Start: 0x50000, End: 0x60000, Name: "libc.so code", Category: vm.CatZygoteDynLib}}
	smapsC := []vm.Smaps{{Start: 0x10000, End: 0x20000, Name: "otherapp/launch0", Category: vm.CatOtherDynLib}}
	ka := SharedCodeKeys(smapsA, []arch.VirtAddr{0x11000}, true)
	kb := SharedCodeKeys(smapsB, []arch.VirtAddr{0x51000}, true)
	kc := SharedCodeKeys(smapsC, []arch.VirtAddr{0x11000}, false)
	if len(ka) != 1 || len(kb) != 1 || len(kc) != 1 {
		t.Fatalf("key counts: %d %d %d", len(ka), len(kb), len(kc))
	}
	if ka[0] != kb[0] {
		t.Error("same file page at different VAs must produce the same key")
	}
	if ka[0] == kc[0] {
		t.Error("different files at the same VA must produce different keys")
	}
	// zygoteOnly filters out the non-preloaded region.
	if got := SharedCodeKeys(smapsC, []arch.VirtAddr{0x11000}, true); len(got) != 0 {
		t.Errorf("zygoteOnly should exclude other dynlibs, got %v", got)
	}
}

func TestSparsity(t *testing.T) {
	// Two chunks: one with 1 page touched (15 untouched), one with 16
	// pages touched (0 untouched).
	var pages []arch.VirtAddr
	pages = append(pages, 0x00000)
	for i := 0; i < 16; i++ {
		pages = append(pages, arch.VirtAddr(0x10000+i*arch.PageSize))
	}
	r := Sparsity(pages)
	if r.Pages4KB != 17 || r.Chunks64KB != 2 {
		t.Errorf("result = %+v", r)
	}
	if got := r.CDF.Tail(15); got != 0.5 {
		t.Errorf("P(untouched >= 15) = %v, want 0.5", got)
	}
	if r.Memory4KB() != 17*4096 {
		t.Errorf("Memory4KB = %d", r.Memory4KB())
	}
	if r.Memory64KB() != 2*65536 {
		t.Errorf("Memory64KB = %d", r.Memory64KB())
	}
	want := float64(2*65536) / float64(17*4096)
	if got := r.WasteFactor(); got != want {
		t.Errorf("WasteFactor = %v, want %v", got, want)
	}
}

func TestSparsityEmpty(t *testing.T) {
	r := Sparsity(nil)
	if r.WasteFactor() != 0 {
		t.Error("empty footprint waste factor should be 0")
	}
}

func TestUnionPages(t *testing.T) {
	u := UnionPages(
		[]arch.VirtAddr{0x1000, 0x2000},
		[]arch.VirtAddr{0x2000, 0x3000},
	)
	if len(u) != 3 || u[0] != 0x1000 || u[2] != 0x3000 {
		t.Errorf("UnionPages = %v", u)
	}
}
