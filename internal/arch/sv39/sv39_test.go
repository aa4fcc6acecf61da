package sv39

import (
	"testing"
	"testing/quick"

	"repro/internal/arch"
)

func TestGeometryConstants(t *testing.T) {
	if MegaPageSize != 2<<20 {
		t.Errorf("MegaPageSize = %d, want 2MB", MegaPageSize)
	}
	if PagesPerMegaPage != 512 {
		t.Errorf("PagesPerMegaPage = %d, want 512", PagesPerMegaPage)
	}
	if GigaPageSize != 1<<30 {
		t.Errorf("GigaPageSize = %d, want 1GB", GigaPageSize)
	}
	if EntriesPerLevel*arch.PageSize != MegaPageSize {
		t.Errorf("one leaf table must cover one megapage: %d != %d",
			EntriesPerLevel*arch.PageSize, MegaPageSize)
	}
	if EntriesPerLevel*EntryBytes != arch.PageSize {
		t.Errorf("a table level must fill exactly one frame: %d != %d",
			EntriesPerLevel*EntryBytes, arch.PageSize)
	}
}

func TestIndexing(t *testing.T) {
	cases := []struct {
		va               arch.VirtAddr
		vpn2, vpn1, vpn0 int
	}{
		{0x00000000, 0, 0, 0},
		{0x00001000, 0, 0, 1},
		{0x001FF000, 0, 0, 511},
		{0x00200000, 0, 1, 0},
		{0x3FFFF000, 0, 511, 511},
		{0x40000000, 1, 0, 0},
		{0xFFFFFFFF, 3, 511, 511},
	}
	for _, c := range cases {
		if got := VPN2(c.va); got != c.vpn2 {
			t.Errorf("VPN2(%#x) = %d, want %d", c.va, got, c.vpn2)
		}
		if got := VPN1(c.va); got != c.vpn1 {
			t.Errorf("VPN1(%#x) = %d, want %d", c.va, got, c.vpn1)
		}
		if got := VPN0(c.va); got != c.vpn0 {
			t.Errorf("VPN0(%#x) = %d, want %d", c.va, got, c.vpn0)
		}
	}
}

// TestDecomposeRoundTrip is the randomized VA ↔ (VPN2, VPN1, VPN0,
// offset) round-trip property: decomposing any address and recomposing
// it is the identity, and each field stays within its architectural
// range.
func TestDecomposeRoundTrip(t *testing.T) {
	prop := func(raw uint32) bool {
		va := arch.VirtAddr(raw)
		l2, l1, l0 := VPN2(va), VPN1(va), VPN0(va)
		if l2 < 0 || l2 > 3 { // modeled 4GB window: 2 bits of VPN[2]
			return false
		}
		if l1 < 0 || l1 >= EntriesPerLevel || l0 < 0 || l0 >= EntriesPerLevel {
			return false
		}
		return Compose(l2, l1, l0, va&arch.PageMask) == va
	}
	if err := quick.Check(prop, nil); err != nil {
		t.Error(err)
	}
}

// TestComposeRoundTrip drives the round trip in the other direction:
// composing in-range fields and decomposing recovers exactly the fields.
func TestComposeRoundTrip(t *testing.T) {
	prop := func(l2, l1, l0 uint16, off uint16) bool {
		vpn2 := int(l2) % 4
		vpn1 := int(l1) % EntriesPerLevel
		vpn0 := int(l0) % EntriesPerLevel
		offset := arch.VirtAddr(off) & arch.PageMask
		va := Compose(vpn2, vpn1, vpn0, offset)
		return VPN2(va) == vpn2 && VPN1(va) == vpn1 && VPN0(va) == vpn0 &&
			va&arch.PageMask == offset
	}
	if err := quick.Check(prop, nil); err != nil {
		t.Error(err)
	}
}

// TestMegaPageAlignment checks the large-page alignment properties the
// page-table code relies on: a megapage base has VPN0 == 0, every
// address in the megapage shares its VPN2/VPN1, and the geometry's
// large-page parameters agree with the constants here.
func TestMegaPageAlignment(t *testing.T) {
	prop := func(raw uint32) bool {
		va := arch.VirtAddr(raw)
		b := MegaPageBase(va)
		if b > va || MegaPageBase(b) != b || VPN0(b) != 0 || b&arch.PageMask != 0 {
			return false
		}
		return VPN2(b) == VPN2(va) && VPN1(b) == VPN1(va)
	}
	if err := quick.Check(prop, nil); err != nil {
		t.Error(err)
	}
	g := MMU().Geometry()
	if g.LargePageSize() != MegaPageSize || g.PagesPerLarge() != PagesPerMegaPage {
		t.Errorf("geometry large-page parameters disagree: %+v", g)
	}
	if g.PagesPerLarge() != g.LeafEntries {
		t.Errorf("an Sv39 megapage must span a whole leaf table: %+v", g)
	}
}

// TestSlotIndexingAgreesWithVPNs pins the slot-addressing scheme the
// shared page-table code uses to the architectural VPN split: slot =
// VPN2·512 + VPN1, root index = VPN2, mid index = VPN1.
func TestSlotIndexingAgreesWithVPNs(t *testing.T) {
	g := MMU().Geometry()
	prop := func(raw uint32) bool {
		va := arch.VirtAddr(raw)
		slot := g.Slot(va)
		if slot != VPN2(va)*EntriesPerLevel+VPN1(va) {
			return false
		}
		if g.RootIndex(slot) != VPN2(va) || g.MidIndex(slot) != VPN1(va) {
			return false
		}
		if g.LeafIndex(va) != VPN0(va) {
			return false
		}
		return g.SlotBase(slot) == MegaPageBase(va)
	}
	if err := quick.Check(prop, nil); err != nil {
		t.Error(err)
	}
	if g.NumSlots() != 4*EntriesPerLevel {
		t.Errorf("NumSlots = %d, want %d", g.NumSlots(), 4*EntriesPerLevel)
	}
}

func TestDescriptors(t *testing.T) {
	m := MMU()
	if m.Name() != "sv39" {
		t.Errorf("Name = %q", m.Name())
	}
	g := m.Geometry()
	if g.Levels != 3 || g.RootFrames != 1 || g.EntryBytes != 8 || g.MidEntries != EntriesPerLevel {
		t.Errorf("geometry mismatch: %+v", g)
	}
	if epf := arch.PageSize / g.EntryBytes; epf != EntriesPerLevel {
		t.Errorf("root frame must hold %d entries, got %d", EntriesPerLevel, epf)
	}
	if bits := m.Tagging().ASIDBits; bits != 16 {
		t.Errorf("ASIDBits = %d, want 16", bits)
	}
	if max := m.Tagging().MaxASID(); max != 65535 {
		t.Errorf("MaxASID = %d, want 65535", max)
	}
	p := m.Protection()
	if p.HasDomains {
		t.Error("Sv39 has no domain registers")
	}
	if p.KernelDomain != 0 || p.UserDomain != 0 || p.SharedDomain != 0 {
		t.Errorf("all Sv39 domains must collapse to 0: %+v", p)
	}
	if p.StockDACR != p.ZygoteDACR {
		t.Error("without domains the stock and zygote DACRs must be identical")
	}
	if p.StockDACR.Access(0) != arch.DomainClient {
		t.Error("domain 0 must have client access")
	}
}

func TestRegistered(t *testing.T) {
	m, ok := arch.Lookup("sv39")
	if !ok {
		t.Fatal("sv39 must self-register")
	}
	if m.Name() != "sv39" {
		t.Errorf("registry returned %q", m.Name())
	}
}
