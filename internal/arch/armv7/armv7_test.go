package armv7

import (
	"testing"
	"testing/quick"

	"repro/internal/arch"
)

func TestIndexing(t *testing.T) {
	cases := []struct {
		va     arch.VirtAddr
		l1, l2 int
	}{
		{0x00000000, 0, 0},
		{0x00001000, 0, 1},
		{0x000FF000, 0, 255},
		{0x00100000, 1, 0},
		{0x7FF42345, 0x7FF, 0x42},
		{0xFFFFFFFF, 4095, 255},
	}
	for _, c := range cases {
		if got := L1Index(c.va); got != c.l1 {
			t.Errorf("L1Index(%#x) = %d, want %d", c.va, got, c.l1)
		}
		if got := L2Index(c.va); got != c.l2 {
			t.Errorf("L2Index(%#x) = %d, want %d", c.va, got, c.l2)
		}
	}
}

func TestGeometryConstants(t *testing.T) {
	if LargePageSize != 64*1024 {
		t.Errorf("LargePageSize = %d, want 64KB", LargePageSize)
	}
	if PagesPerLargePage != 16 {
		t.Errorf("PagesPerLargePage = %d, want 16", PagesPerLargePage)
	}
	if SectionSize != 1<<20 {
		t.Errorf("SectionSize = %d, want 1MB", SectionSize)
	}
	if int64(L1Entries)*SectionSize != 1<<32 {
		t.Errorf("L1 coverage should be exactly 4GB")
	}
	if L2Entries*arch.PageSize != SectionSize {
		t.Errorf("one L2 table must cover one section: %d != %d", L2Entries*arch.PageSize, SectionSize)
	}
}

func TestSectionBase(t *testing.T) {
	if got := SectionBase(0x12345678); got != 0x12300000 {
		t.Errorf("SectionBase = %#x, want 0x12300000", got)
	}
}

func TestIndexRoundTrip(t *testing.T) {
	// Reconstructing an address from its indices recovers the page base.
	prop := func(raw uint32) bool {
		va := arch.VirtAddr(raw)
		rebuilt := arch.VirtAddr(L1Index(va))<<SectionShift | arch.VirtAddr(L2Index(va))<<arch.PageShift
		return rebuilt == arch.PageBase(va)
	}
	if err := quick.Check(prop, nil); err != nil {
		t.Error(err)
	}
}

func TestStockAndZygoteDACR(t *testing.T) {
	s := StockDACR()
	if s.Access(DomainKernel) != arch.DomainClient || s.Access(DomainUser) != arch.DomainClient {
		t.Errorf("stock DACR must grant client access to kernel and user domains")
	}
	if s.Access(DomainZygote) != arch.DomainNoAccess {
		t.Errorf("stock DACR must deny the zygote domain")
	}
	z := ZygoteDACR()
	if z.Access(DomainZygote) != arch.DomainClient {
		t.Errorf("zygote DACR must grant client access to the zygote domain")
	}
	if z.Access(DomainUser) != arch.DomainClient {
		t.Errorf("zygote DACR must keep user-domain access")
	}
}

func TestDescriptors(t *testing.T) {
	m := MMU()
	if m.Name() != "armv7" {
		t.Errorf("Name = %q", m.Name())
	}
	g := m.Geometry()
	if g.Levels != 2 || g.NumSlots() != L1Entries || g.SlotSpan() != SectionSize {
		t.Errorf("geometry mismatch: %+v", g)
	}
	if g.RootFrames != 4 || g.EntryBytes != 4 || arch.PageSize/g.EntryBytes != 1024 {
		t.Errorf("root table must be four frames of 1024 4-byte entries: %+v", g)
	}
	if g.PagesPerLarge() != PagesPerLargePage || g.LargePageSize() != LargePageSize {
		t.Errorf("large-page geometry mismatch: %+v", g)
	}
	for _, va := range []arch.VirtAddr{0, 0x1000, 0x7FF42345, 0xFFFFFFFF} {
		if g.Slot(va) != L1Index(va) || g.LeafIndex(va) != L2Index(va) {
			t.Errorf("Slot/LeafIndex disagree with L1Index/L2Index at %#x", va)
		}
		if g.RootIndex(g.Slot(va)) != g.Slot(va) || g.MidIndex(g.Slot(va)) != 0 {
			t.Errorf("two-level root/mid indexing wrong at %#x", va)
		}
	}
	if bits := m.Tagging().ASIDBits; bits != 8 {
		t.Errorf("ASIDBits = %d, want 8", bits)
	}
	if max := m.Tagging().MaxASID(); max != 255 {
		t.Errorf("MaxASID = %d, want 255", max)
	}
	p := m.Protection()
	if !p.HasDomains || p.NumDomains != 16 || p.SharedDomain != DomainZygote {
		t.Errorf("protection mismatch: %+v", p)
	}
	if p.StockDACR != StockDACR() || p.ZygoteDACR != ZygoteDACR() {
		t.Errorf("DACR values mismatch: %+v", p)
	}
}

func TestRegistered(t *testing.T) {
	m, ok := arch.Lookup("armv7")
	if !ok {
		t.Fatal("armv7 must self-register")
	}
	if m.Name() != "armv7" {
		t.Errorf("registry returned %q", m.Name())
	}
}
