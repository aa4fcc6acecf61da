package vm

import (
	"testing"
	"testing/quick"

	"repro/internal/arch"
	"repro/internal/arch/armv7"
	"repro/internal/mem"
	"repro/internal/pagetable"
)

func newMM(t *testing.T, phys *mem.PhysMem, asid arch.ASID) *MM {
	t.Helper()
	mm, err := NewMM(phys, asid, geoARM)
	if err != nil {
		t.Fatal(err)
	}
	return mm
}

func TestProtString(t *testing.T) {
	if got := (ProtRead | ProtExec).String(); got != "r-x" {
		t.Errorf("Prot = %q, want r-x", got)
	}
	if got := (ProtRead | ProtWrite).String(); got != "rw-" {
		t.Errorf("Prot = %q, want rw-", got)
	}
	if got := Prot(0).String(); got != "---" {
		t.Errorf("Prot = %q, want ---", got)
	}
}

func TestCategoryClassification(t *testing.T) {
	if !CatZygoteDynLib.IsSharedCode() || !CatZygoteDynLib.IsZygotePreloaded() {
		t.Error("zygote dyn lib should be shared + preloaded")
	}
	if !CatOtherDynLib.IsSharedCode() || CatOtherDynLib.IsZygotePreloaded() {
		t.Error("other dyn lib should be shared but not preloaded")
	}
	if CatPrivateCode.IsSharedCode() {
		t.Error("private code is not shared code")
	}
	for c := CatOther; c <= CatOtherDynLib+1; c++ {
		if c.String() == "" {
			t.Errorf("empty name for category %d", c)
		}
	}
}

func TestFilePageCacheStable(t *testing.T) {
	phys := mem.New(64)
	f := NewFile(phys, "libc.so", 5*arch.PageSize)
	a, err := f.PageFrame(0)
	if err != nil {
		t.Fatal(err)
	}
	b, err := f.PageFrame(0)
	if err != nil {
		t.Fatal(err)
	}
	if a != b {
		t.Error("page cache must return a stable frame per page")
	}
	c, _ := f.PageFrame(4)
	if c == a {
		t.Error("different pages must get different frames")
	}
	if f.ResidentPages() != 2 {
		t.Errorf("ResidentPages = %d, want 2", f.ResidentPages())
	}
	if _, err := f.PageFrame(5); err == nil {
		t.Error("page beyond EOF should fail")
	}
	if _, err := f.PageFrame(-1); err == nil {
		t.Error("negative page should fail")
	}
}

func mkVMA(start, end arch.VirtAddr, prot Prot, name string) *VMA {
	return &VMA{Start: start, End: end, Prot: prot, Flags: VMAPrivate, Name: name}
}

func TestInsertFind(t *testing.T) {
	phys := mem.New(64)
	mm := newMM(t, phys, 1)
	if err := mm.Insert(mkVMA(0x10000, 0x20000, ProtRead, "a")); err != nil {
		t.Fatal(err)
	}
	if err := mm.Insert(mkVMA(0x40000, 0x50000, ProtRead, "b")); err != nil {
		t.Fatal(err)
	}
	if v := mm.FindVMA(0x10000); v == nil || v.Name != "a" {
		t.Errorf("FindVMA(start) = %v", v)
	}
	if v := mm.FindVMA(0x1FFFF); v == nil || v.Name != "a" {
		t.Errorf("FindVMA(end-1) = %v", v)
	}
	if v := mm.FindVMA(0x20000); v != nil {
		t.Errorf("FindVMA(end) = %v, want nil (exclusive)", v)
	}
	if v := mm.FindVMA(0x30000); v != nil {
		t.Errorf("FindVMA(gap) = %v, want nil", v)
	}
}

func TestInsertRejectsOverlapAndMisalignment(t *testing.T) {
	phys := mem.New(64)
	mm := newMM(t, phys, 1)
	if err := mm.Insert(mkVMA(0x10000, 0x20000, ProtRead, "a")); err != nil {
		t.Fatal(err)
	}
	if err := mm.Insert(mkVMA(0x18000, 0x28000, ProtRead, "overlap")); err == nil {
		t.Error("overlap should be rejected")
	}
	if err := mm.Insert(mkVMA(0x30001, 0x40000, ProtRead, "misaligned")); err == nil {
		t.Error("misaligned start should be rejected")
	}
	if err := mm.Insert(mkVMA(0x40000, 0x40000, ProtRead, "empty")); err == nil {
		t.Error("empty region should be rejected")
	}
}

func TestVMAsSorted(t *testing.T) {
	phys := mem.New(64)
	mm := newMM(t, phys, 1)
	_ = mm.Insert(mkVMA(0x40000, 0x50000, ProtRead, "b"))
	_ = mm.Insert(mkVMA(0x10000, 0x20000, ProtRead, "a"))
	_ = mm.Insert(mkVMA(0x60000, 0x70000, ProtRead, "c"))
	vmas := mm.VMAs()
	for i := 1; i < len(vmas); i++ {
		if vmas[i-1].Start >= vmas[i].Start {
			t.Fatal("VMAs not sorted")
		}
	}
}

func TestRemoveRangeWhole(t *testing.T) {
	phys := mem.New(64)
	mm := newMM(t, phys, 1)
	_ = mm.Insert(mkVMA(0x10000, 0x20000, ProtRead, "a"))
	removed := mm.RemoveRange(0x10000, 0x20000)
	if len(removed) != 1 || removed[0].Name != "a" {
		t.Fatalf("removed = %v", removed)
	}
	if len(mm.VMAs()) != 0 {
		t.Error("region should be gone")
	}
}

func TestRemoveRangeSplits(t *testing.T) {
	phys := mem.New(64)
	mm := newMM(t, phys, 1)
	f := NewFile(phys, "f", 0x40000)
	_ = mm.Insert(&VMA{Start: 0x10000, End: 0x40000, Prot: ProtRead, Flags: VMAPrivate, File: f, FileOff: 0x4000, Name: "a"})
	removed := mm.RemoveRange(0x20000, 0x30000)
	if len(removed) != 1 {
		t.Fatalf("removed %d regions, want 1", len(removed))
	}
	if removed[0].Start != 0x20000 || removed[0].End != 0x30000 {
		t.Errorf("removed piece = %#x-%#x", removed[0].Start, removed[0].End)
	}
	if removed[0].FileOff != 0x4000+0x10000 {
		t.Errorf("removed FileOff = %#x", removed[0].FileOff)
	}
	vmas := mm.VMAs()
	if len(vmas) != 2 {
		t.Fatalf("kept %d regions, want 2", len(vmas))
	}
	if vmas[0].Start != 0x10000 || vmas[0].End != 0x20000 {
		t.Errorf("left piece = %#x-%#x", vmas[0].Start, vmas[0].End)
	}
	if vmas[1].Start != 0x30000 || vmas[1].End != 0x40000 {
		t.Errorf("right piece = %#x-%#x", vmas[1].Start, vmas[1].End)
	}
	if vmas[1].FileOff != 0x4000+0x20000 {
		t.Errorf("right FileOff = %#x", vmas[1].FileOff)
	}
}

func TestRemoveRangePreservesTotalPages(t *testing.T) {
	prop := func(s1, e1, s2, e2 uint8) bool {
		phys := mem.New(64)
		mm, _ := NewMM(phys, 1, geoARM)
		start := arch.VirtAddr(0x100000)
		lo1, hi1 := arch.VirtAddr(s1), arch.VirtAddr(e1)
		if lo1 > hi1 {
			lo1, hi1 = hi1, lo1
		}
		if lo1 == hi1 {
			hi1++
		}
		v := mkVMA(start+lo1*arch.PageSize, start+hi1*arch.PageSize, ProtRead, "r")
		if mm.Insert(v) != nil {
			return true
		}
		total := v.Pages()
		lo2, hi2 := arch.VirtAddr(s2), arch.VirtAddr(e2)
		if lo2 > hi2 {
			lo2, hi2 = hi2, lo2
		}
		if lo2 == hi2 {
			return true
		}
		removed := mm.RemoveRange(start+lo2*arch.PageSize, start+hi2*arch.PageSize)
		n := 0
		for _, r := range removed {
			n += r.Pages()
		}
		for _, r := range mm.VMAs() {
			n += r.Pages()
		}
		return n == total
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 300}); err != nil {
		t.Error(err)
	}
}

func resolveAndSet(t *testing.T, mm *MM, vma *VMA, va arch.VirtAddr, kind arch.AccessKind) pagetable.PTE {
	t.Helper()
	var existing pagetable.PTE
	if p := mm.PT.PTEAt(va); p != nil {
		existing = *p
	}
	pte, err := mm.ResolvePTE(vma, va, kind, existing)
	if err != nil {
		t.Fatalf("ResolvePTE(%#x, %v): %v", va, kind, err)
	}
	if _, err := mm.PT.EnsureLeafForVA(va, armv7.DomainUser); err != nil {
		t.Fatal(err)
	}
	mm.PT.Set(va, pte)
	return pte
}

func TestResolveAnon(t *testing.T) {
	phys := mem.New(64)
	mm := newMM(t, phys, 1)
	v := mkVMA(0x10000, 0x20000, ProtRead|ProtWrite, "heap")
	_ = mm.Insert(v)
	pte := resolveAndSet(t, mm, v, 0x10000, arch.AccessWrite)
	if !pte.Writable() || pte.Soft&arch.SoftDirty == 0 {
		t.Errorf("anon write fault pte = %+v", pte)
	}
	if mm.Counters.AnonFaults != 1 || mm.Counters.FileFaults != 0 {
		t.Errorf("counters = %+v", mm.Counters)
	}
}

func TestResolveFilePrivateReadThenCOW(t *testing.T) {
	phys := mem.New(64)
	mm := newMM(t, phys, 1)
	f := NewFile(phys, "lib.so", 0x10000)
	v := &VMA{Start: 0x10000, End: 0x20000, Prot: ProtRead | ProtWrite, Flags: VMAPrivate, File: f, Name: "data"}
	_ = mm.Insert(v)

	pte := resolveAndSet(t, mm, v, 0x10000, arch.AccessRead)
	if pte.Writable() {
		t.Error("private writable file page must be mapped read-only first")
	}
	if pte.Soft&arch.SoftCOW == 0 || pte.Soft&arch.SoftFile == 0 {
		t.Errorf("soft flags = %v, want COW|File", pte.Soft)
	}
	fileFrame := pte.Frame

	// Write: COW break to a fresh anonymous frame.
	pte2 := resolveAndSet(t, mm, v, 0x10000, arch.AccessWrite)
	if !pte2.Writable() || pte2.Soft&arch.SoftDirty == 0 {
		t.Errorf("post-COW pte = %+v", pte2)
	}
	if pte2.Frame == fileFrame {
		t.Error("COW must allocate a new frame")
	}
	if mm.Counters.COWBreaks != 1 {
		t.Errorf("COWBreaks = %d, want 1", mm.Counters.COWBreaks)
	}
	if mm.Counters.FileFaults != 1 {
		t.Errorf("FileFaults = %d, want 1 (COW break is a perm fault, not a file fault)", mm.Counters.FileFaults)
	}
}

func TestResolveFileSharedAcrossProcesses(t *testing.T) {
	phys := mem.New(64)
	a := newMM(t, phys, 1)
	b := newMM(t, phys, 2)
	f := NewFile(phys, "libc.so", 0x10000)
	va := &VMA{Start: 0x10000, End: 0x20000, Prot: ProtRead | ProtExec, Flags: VMAPrivate, File: f, Name: "code"}
	vb := &VMA{Start: 0x10000, End: 0x20000, Prot: ProtRead | ProtExec, Flags: VMAPrivate, File: f, Name: "code"}
	_ = a.Insert(va)
	_ = b.Insert(vb)
	pa := resolveAndSet(t, a, va, 0x11000, arch.AccessFetch)
	pb := resolveAndSet(t, b, vb, 0x11000, arch.AccessFetch)
	if pa.Frame != pb.Frame {
		t.Error("both processes must map the same page-cache frame: identical translations")
	}
}

func TestResolveFirstTouchWrite(t *testing.T) {
	phys := mem.New(64)
	mm := newMM(t, phys, 1)
	f := NewFile(phys, "lib.so", 0x10000)
	v := &VMA{Start: 0x10000, End: 0x20000, Prot: ProtRead | ProtWrite, Flags: VMAPrivate, File: f, Name: "data"}
	_ = mm.Insert(v)
	pte := resolveAndSet(t, mm, v, 0x10000, arch.AccessWrite)
	if !pte.Writable() || pte.Soft&arch.SoftDirty == 0 {
		t.Errorf("first-touch write pte = %+v", pte)
	}
	if mm.Counters.COWBreaks != 1 || mm.Counters.FileFaults != 1 {
		t.Errorf("counters = %+v", mm.Counters)
	}
}

func TestResolveSharedFileWrite(t *testing.T) {
	phys := mem.New(64)
	mm := newMM(t, phys, 1)
	f := NewFile(phys, "shm", 0x10000)
	v := &VMA{Start: 0x10000, End: 0x20000, Prot: ProtRead | ProtWrite, Flags: VMAShared, File: f, Name: "shm"}
	_ = mm.Insert(v)
	pte := resolveAndSet(t, mm, v, 0x10000, arch.AccessWrite)
	if !pte.Writable() {
		t.Error("shared mapping write should map writable")
	}
	fr, _ := f.PageFrame(0)
	if pte.Frame != fr {
		t.Error("shared mapping must map the page-cache frame itself")
	}
}

func TestResolveSegv(t *testing.T) {
	phys := mem.New(64)
	mm := newMM(t, phys, 1)
	v := mkVMA(0x10000, 0x20000, ProtRead, "ro")
	_ = mm.Insert(v)
	if _, err := mm.ResolvePTE(nil, 0x50000, arch.AccessRead, pagetable.PTE{}); err == nil {
		t.Error("fault outside any region must fail")
	}
	if _, err := mm.ResolvePTE(v, 0x10000, arch.AccessWrite, pagetable.PTE{}); err == nil {
		t.Error("write to read-only region must fail")
	}
	if _, err := mm.ResolvePTE(v, 0x10000, arch.AccessFetch, pagetable.PTE{}); err == nil {
		t.Error("fetch from non-exec region must fail")
	}
}

func TestCopyPTERange(t *testing.T) {
	phys := mem.New(128)
	parent := newMM(t, phys, 1)
	child := newMM(t, phys, 2)
	v := mkVMA(0x10000, 0x20000, ProtRead|ProtWrite, "heap")
	_ = parent.Insert(v)
	resolveAndSet(t, parent, v, 0x10000, arch.AccessWrite)
	resolveAndSet(t, parent, v, 0x12000, arch.AccessWrite)

	copied, err := CopyPTERange(parent, child, v, v.Start, v.End, CopyStock, armv7.DomainUser)
	if err != nil {
		t.Fatal(err)
	}
	if copied != 2 {
		t.Errorf("copied = %d, want 2", copied)
	}
	// Both sides are now write-protected COW.
	pp := parent.PT.PTEAt(0x10000)
	cp := child.PT.PTEAt(0x10000)
	if pp.Writable() || cp.Writable() {
		t.Error("both sides must be write-protected after fork copy")
	}
	if pp.Soft&arch.SoftCOW == 0 || cp.Soft&arch.SoftCOW == 0 {
		t.Error("both sides must be marked COW")
	}
	if pp.Frame != cp.Frame {
		t.Error("COW pages share the frame until written")
	}
}

func TestCopyPTERangeCopiesDirtyFilePages(t *testing.T) {
	phys := mem.New(128)
	parent := newMM(t, phys, 1)
	child := newMM(t, phys, 2)
	f := NewFile(phys, "lib.so", 0x10000)
	v := &VMA{Start: 0x10000, End: 0x20000, Prot: ProtRead | ProtWrite, Flags: VMAPrivate, File: f, Name: "data"}
	_ = parent.Insert(v)
	resolveAndSet(t, parent, v, 0x10000, arch.AccessRead)  // clean file page
	resolveAndSet(t, parent, v, 0x12000, arch.AccessWrite) // dirty private copy

	copied, err := CopyPTERange(parent, child, v, v.Start, v.End, CopyStock, armv7.DomainUser)
	if err != nil {
		t.Fatal(err)
	}
	if copied != 1 {
		t.Errorf("copied = %d, want 1 (only the dirty page; clean file pages re-fault)", copied)
	}
	if p := child.PT.PTEAt(0x12000); p == nil || !p.Valid() {
		t.Error("dirty page must be in the child")
	}
	if p := child.PT.PTEAt(0x10000); p != nil && p.Valid() {
		t.Error("clean file page must not be copied")
	}
}

func TestSmapsDump(t *testing.T) {
	phys := mem.New(64)
	mm := newMM(t, phys, 1)
	v := mkVMA(0x10000, 0x14000, ProtRead|ProtWrite, "heap")
	v.Category = CatOther
	_ = mm.Insert(v)
	resolveAndSet(t, mm, v, 0x10000, arch.AccessWrite)
	dump := mm.SmapsDump()
	if len(dump) != 1 {
		t.Fatalf("dump has %d entries", len(dump))
	}
	if dump[0].Resident != 1 {
		t.Errorf("Resident = %d, want 1", dump[0].Resident)
	}
	if dump[0].Name != "heap" || dump[0].Prot != (ProtRead|ProtWrite) {
		t.Errorf("dump[0] = %+v", dump[0])
	}
}

func TestResolveSharedWriteRestoresPermission(t *testing.T) {
	// A MAP_SHARED page whose PTE was write-protected by PTP sharing:
	// the write fault restores permission on the same frame, no copy.
	phys := mem.New(64)
	mm := newMM(t, phys, 1)
	f := NewFile(phys, "shm", 0x10000)
	v := &VMA{Start: 0x10000, End: 0x20000, Prot: ProtRead | ProtWrite, Flags: VMAShared, File: f, Name: "shm"}
	_ = mm.Insert(v)
	pte := resolveAndSet(t, mm, v, 0x10000, arch.AccessRead)
	// Simulate fork-time write protection of the shared PTP.
	p := mm.PT.PTEAt(0x10000)
	p.Flags &^= arch.PTEWrite

	restored, err := mm.ResolvePTE(v, 0x10000, arch.AccessWrite, *p)
	if err != nil {
		t.Fatal(err)
	}
	if restored.Frame != pte.Frame {
		t.Error("shared write must keep the page-cache frame")
	}
	if !restored.Writable() || restored.Soft&arch.SoftDirty == 0 {
		t.Errorf("restored = %+v, want writable dirty", restored)
	}
	if mm.Counters.COWBreaks != 0 {
		t.Error("no COW break for a shared mapping")
	}
}

// geoARM is the geometry the legacy vm tests run under.
var geoARM = armv7.MMU().Geometry()
