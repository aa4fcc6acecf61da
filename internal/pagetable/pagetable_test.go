package pagetable

import (
	"testing"
	"testing/quick"

	"repro/internal/arch"
	"repro/internal/arch/armv7"
	"repro/internal/arch/sv39"
	"repro/internal/mem"
)

var (
	geoARM  = armv7.MMU().Geometry()
	geoSv39 = sv39.MMU().Geometry()
)

func newPT(t *testing.T, phys *mem.PhysMem) *PageTable {
	t.Helper()
	pt, err := New(phys, geoARM)
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	return pt
}

func validPTE(frame arch.FrameNum, extra arch.PTEFlags) PTE {
	return PTE{Frame: frame, Flags: arch.PTEValid | arch.PTEUser | extra}
}

func TestNewAllocatesRootFrames(t *testing.T) {
	phys := mem.New(16)
	_ = newPT(t, phys)
	if got := phys.InUseByKind(mem.FramePageTable); got != 4 {
		t.Errorf("ARMv7 root table should occupy 4 frames, got %d", got)
	}
}

func TestNewAllocatesMidFrames(t *testing.T) {
	phys := mem.New(16)
	if _, err := New(phys, geoSv39); err != nil {
		t.Fatal(err)
	}
	// One root frame plus four mid-level tables covering the 4GB window.
	if got := phys.InUseByKind(mem.FramePageTable); got != 5 {
		t.Errorf("Sv39 table skeleton should occupy 5 frames, got %d", got)
	}
}

func TestNewFailsCleanlyWhenExhausted(t *testing.T) {
	phys := mem.New(2) // not enough for the 4-frame root table
	if _, err := New(phys, geoARM); err == nil {
		t.Fatal("New should fail with 2 frames")
	}
	if got := phys.Stats().InUse; got != 0 {
		t.Errorf("failed New leaked %d frames", got)
	}
}

func TestSetLookupClear(t *testing.T) {
	for _, tc := range []struct {
		name string
		geo  arch.Geometry
	}{{"armv7", geoARM}, {"sv39", geoSv39}} {
		t.Run(tc.name, func(t *testing.T) {
			phys := mem.New(64)
			pt, err := New(phys, tc.geo)
			if err != nil {
				t.Fatal(err)
			}
			va := arch.VirtAddr(0x40001000)
			if _, _, f := pt.Lookup(va); f != arch.FaultTranslation {
				t.Fatalf("empty table lookup fault = %v, want translation", f)
			}
			if _, err := pt.EnsureLeaf(tc.geo.Slot(va), 1); err != nil {
				t.Fatal(err)
			}
			if _, _, f := pt.Lookup(va); f != arch.FaultTranslation {
				t.Fatalf("invalid PTE lookup fault = %v, want translation", f)
			}
			pt.Set(va, validPTE(7, arch.PTEWrite))
			pte, se, f := pt.Lookup(va)
			if f != arch.FaultNone {
				t.Fatalf("lookup fault = %v, want none", f)
			}
			if pte.Frame != 7 || !pte.Writable() {
				t.Errorf("pte = %+v, want frame 7 writable", pte)
			}
			if se.Domain != 1 {
				t.Errorf("domain = %d, want 1", se.Domain)
			}
			old := pt.Clear(va)
			if old.Frame != 7 {
				t.Errorf("Clear returned %+v, want frame 7", old)
			}
			if _, _, f := pt.Lookup(va); f != arch.FaultTranslation {
				t.Errorf("post-clear fault = %v, want translation", f)
			}
		})
	}
}

func TestWalkPathDepth(t *testing.T) {
	for _, tc := range []struct {
		name                string
		geo                 arch.Geometry
		missDepth, hitDepth int
	}{
		// ARMv7: root entry always read; leaf PTE only when the slot is
		// live. Sv39: mid tables exist from birth, so a miss still
		// touches root and mid.
		{"armv7", geoARM, 1, 2},
		{"sv39", geoSv39, 2, 3},
	} {
		t.Run(tc.name, func(t *testing.T) {
			phys := mem.New(64)
			pt, err := New(phys, tc.geo)
			if err != nil {
				t.Fatal(err)
			}
			va := arch.VirtAddr(0x40001000)
			_, _, f, path := pt.Walk(va)
			if f != arch.FaultTranslation || path.N != tc.missDepth {
				t.Errorf("empty walk = fault %v depth %d, want translation depth %d",
					f, path.N, tc.missDepth)
			}
			if _, err := pt.EnsureLeaf(tc.geo.Slot(va), 0); err != nil {
				t.Fatal(err)
			}
			pt.Set(va, validPTE(7, 0))
			pte, _, f, path := pt.Walk(va)
			if f != arch.FaultNone || path.N != tc.hitDepth || pte.Frame != 7 {
				t.Errorf("live walk = %+v fault %v depth %d, want frame 7 depth %d",
					pte, f, path.N, tc.hitDepth)
			}
			// The leaf address is the PTE word inside the PTP frame.
			leaf := path.Addrs[path.N-1]
			want := pt.Slot(tc.geo.Slot(va)).Table.PTEPhysAddr(tc.geo.LeafIndex(va))
			if leaf != want {
				t.Errorf("leaf walk address = %#x, want %#x", leaf, want)
			}
			// All path addresses are distinct.
			seen := map[arch.PhysAddr]bool{}
			for i := 0; i < path.N; i++ {
				if seen[path.Addrs[i]] {
					t.Errorf("duplicate walk address %#x", path.Addrs[i])
				}
				seen[path.Addrs[i]] = true
			}
		})
	}
}

func TestEnsureLeafIdempotent(t *testing.T) {
	phys := mem.New(64)
	pt := newPT(t, phys)
	a, _ := pt.EnsureLeaf(5, armv7.DomainUser)
	b, _ := pt.EnsureLeaf(5, armv7.DomainUser)
	if a != b {
		t.Error("EnsureLeaf must return the same table for the same slot")
	}
	if pt.Stats().PTPsAllocated != 1 {
		t.Errorf("PTPsAllocated = %d, want 1", pt.Stats().PTPsAllocated)
	}
}

func TestPopulatedCount(t *testing.T) {
	phys := mem.New(64)
	pt := newPT(t, phys)
	tab, _ := pt.EnsureLeaf(0, armv7.DomainUser)
	pt.Set(0x0000, validPTE(1, 0))
	pt.Set(0x1000, validPTE(2, 0))
	pt.Set(0x1000, validPTE(3, 0)) // overwrite: count unchanged
	if tab.Populated() != 2 {
		t.Errorf("Populated = %d, want 2", tab.Populated())
	}
	pt.Clear(0x0000)
	if tab.Populated() != 1 {
		t.Errorf("Populated = %d, want 1", tab.Populated())
	}
	if pt.PopulatedPTEs() != 1 {
		t.Errorf("PopulatedPTEs = %d, want 1", pt.PopulatedPTEs())
	}
}

func TestAttachSharedAndSharerCount(t *testing.T) {
	phys := mem.New(64)
	parent := newPT(t, phys)
	child := newPT(t, phys)
	tab, _ := parent.EnsureLeaf(3, armv7.DomainUser)
	parent.Set(0x00300000, validPTE(9, 0))

	child.AttachShared(3, tab, armv7.DomainUser)
	if got := parent.SharerCount(3); got != 2 {
		t.Errorf("parent SharerCount = %d, want 2", got)
	}
	if got := child.SharerCount(3); got != 2 {
		t.Errorf("child SharerCount = %d, want 2", got)
	}
	if !child.Slot(3).NeedCopy {
		t.Error("attached entry must carry NEED_COPY")
	}
	// PTE populated by the parent is visible through the child.
	pte, _, f := child.Lookup(0x00300000)
	if f != arch.FaultNone || pte.Frame != 9 {
		t.Errorf("child lookup = %+v fault %v, want frame 9", pte, f)
	}
}

func TestSharedPTEVisibleToAllSharers(t *testing.T) {
	phys := mem.New(64)
	parent := newPT(t, phys)
	child := newPT(t, phys)
	tab, _ := parent.EnsureLeaf(3, armv7.DomainUser)
	child.AttachShared(3, tab, armv7.DomainUser)

	// Child populates an entry on a read fault; parent sees it at once.
	child.SetShared(0x00342000, validPTE(11, 0))
	pte, _, f := parent.Lookup(0x00342000)
	if f != arch.FaultNone || pte.Frame != 11 {
		t.Errorf("parent lookup after child SetShared = %+v fault %v", pte, f)
	}
}

func TestSetSharedRejectsWritable(t *testing.T) {
	phys := mem.New(64)
	parent := newPT(t, phys)
	child := newPT(t, phys)
	tab, _ := parent.EnsureLeaf(3, armv7.DomainUser)
	child.AttachShared(3, tab, armv7.DomainUser)
	defer func() {
		if recover() == nil {
			t.Error("SetShared with a writable PTE should panic")
		}
	}()
	child.SetShared(0x00342000, validPTE(11, arch.PTEWrite))
}

func TestSetThroughNeedCopyPanics(t *testing.T) {
	phys := mem.New(64)
	parent := newPT(t, phys)
	child := newPT(t, phys)
	tab, _ := parent.EnsureLeaf(3, armv7.DomainUser)
	child.AttachShared(3, tab, armv7.DomainUser)
	defer func() {
		if recover() == nil {
			t.Error("Set through a NEED_COPY entry should panic")
		}
	}()
	child.Set(0x00300000, validPTE(1, 0))
}

func TestWriteProtectTable(t *testing.T) {
	phys := mem.New(64)
	pt := newPT(t, phys)
	_, _ = pt.EnsureLeaf(0, armv7.DomainUser)
	pt.Set(0x0000, validPTE(1, arch.PTEWrite))
	pt.Set(0x1000, validPTE(2, 0))
	pt.Set(0x2000, validPTE(3, arch.PTEWrite))
	if got := pt.WriteProtectTable(0); got != 2 {
		t.Errorf("WriteProtectTable = %d, want 2", got)
	}
	pte, _, _ := pt.Lookup(0x0000)
	if pte.Writable() {
		t.Error("entry should have been write-protected")
	}
	if pte.Soft&arch.SoftCOW == 0 {
		t.Error("write-protected entry should be marked SoftCOW")
	}
	// Idempotent: nothing left to protect.
	if got := pt.WriteProtectTable(0); got != 0 {
		t.Errorf("second WriteProtectTable = %d, want 0", got)
	}
}

func TestUnshareLastSharerJustClearsNeedCopy(t *testing.T) {
	phys := mem.New(64)
	parent := newPT(t, phys)
	child := newPT(t, phys)
	tab, _ := parent.EnsureLeaf(3, armv7.DomainUser)
	parent.Set(0x00300000, validPTE(9, 0))
	child.AttachShared(3, tab, armv7.DomainUser)

	// Parent exits: child becomes the sole sharer.
	parent.DetachLeaf(3)
	copied, err := child.UnsharePTP(3)
	if err != nil {
		t.Fatal(err)
	}
	if copied != 0 {
		t.Errorf("sole sharer unshare copied %d PTEs, want 0", copied)
	}
	if child.Slot(3).NeedCopy {
		t.Error("NEED_COPY should be cleared")
	}
	if child.Slot(3).Table != tab {
		t.Error("sole sharer keeps the original PTP")
	}
}

func TestUnshareCopies(t *testing.T) {
	phys := mem.New(64)
	parent := newPT(t, phys)
	child := newPT(t, phys)
	tab, _ := parent.EnsureLeaf(3, armv7.DomainUser)
	parent.Set(0x00300000, validPTE(9, 0))
	parent.Set(0x00310000, validPTE(10, 0))
	child.AttachShared(3, tab, armv7.DomainUser)

	copied, err := child.UnsharePTP(3)
	if err != nil {
		t.Fatal(err)
	}
	if copied != 2 {
		t.Errorf("copied = %d, want 2", copied)
	}
	if child.Slot(3).Table == tab {
		t.Error("child must have a fresh private PTP")
	}
	if child.Slot(3).NeedCopy {
		t.Error("fresh PTP must not be NEED_COPY")
	}
	if got := parent.SharerCount(3); got != 1 {
		t.Errorf("parent sharer count = %d, want 1", got)
	}
	// The copies are real: child sees both translations privately.
	pte, _, f := child.Lookup(0x00310000)
	if f != arch.FaultNone || pte.Frame != 10 {
		t.Errorf("child post-unshare lookup = %+v fault %v", pte, f)
	}
	// Mutating child no longer affects parent.
	child.Clear(0x00300000)
	if pte, _, f := parent.Lookup(0x00300000); f != arch.FaultNone || pte.Frame != 9 {
		t.Errorf("parent entry disturbed by child clear: %+v fault %v", pte, f)
	}
}

func TestUnshareNotSharedIsNoop(t *testing.T) {
	phys := mem.New(64)
	pt := newPT(t, phys)
	_, _ = pt.EnsureLeaf(3, armv7.DomainUser)
	copied, err := pt.UnsharePTP(3)
	if err != nil || copied != 0 {
		t.Errorf("unshare of private PTP = (%d, %v), want (0, nil)", copied, err)
	}
	if copied, err := pt.UnsharePTP(4); err != nil || copied != 0 {
		t.Errorf("unshare of invalid slot = (%d, %v), want (0, nil)", copied, err)
	}
}

func TestDetachFreesWhenLast(t *testing.T) {
	phys := mem.New(64)
	parent := newPT(t, phys)
	child := newPT(t, phys)
	tab, _ := parent.EnsureLeaf(3, armv7.DomainUser)
	child.AttachShared(3, tab, armv7.DomainUser)

	before := phys.Stats().InUse
	if remaining := child.DetachLeaf(3); remaining != 1 {
		t.Errorf("remaining = %d, want 1", remaining)
	}
	if phys.Stats().InUse != before {
		t.Error("detach with remaining sharers must not free the frame")
	}
	if remaining := parent.DetachLeaf(3); remaining != 0 {
		t.Errorf("remaining = %d, want 0", remaining)
	}
	if phys.Stats().InUse != before-1 {
		t.Error("last detach must free the PTP frame")
	}
}

func TestReleaseAll(t *testing.T) {
	for _, tc := range []struct {
		name string
		geo  arch.Geometry
	}{{"armv7", geoARM}, {"sv39", geoSv39}} {
		t.Run(tc.name, func(t *testing.T) {
			phys := mem.New(64)
			pt, err := New(phys, tc.geo)
			if err != nil {
				t.Fatal(err)
			}
			_, _ = pt.EnsureLeaf(1, 0)
			_, _ = pt.EnsureLeaf(2, 0)
			pt.ReleaseAll()
			if got := phys.Stats().InUse; got != 0 {
				t.Errorf("ReleaseAll left %d frames in use", got)
			}
		})
	}
}

func TestLiveAndSharedCounts(t *testing.T) {
	phys := mem.New(64)
	parent := newPT(t, phys)
	child := newPT(t, phys)
	taba, _ := parent.EnsureLeaf(1, armv7.DomainUser)
	_, _ = parent.EnsureLeaf(2, armv7.DomainUser)
	child.AttachShared(1, taba, armv7.DomainUser)
	_, _ = child.EnsureLeaf(9, armv7.DomainUser)

	if got := parent.LivePTPs(); got != 2 {
		t.Errorf("parent LivePTPs = %d, want 2", got)
	}
	if got := child.LivePTPs(); got != 2 {
		t.Errorf("child LivePTPs = %d, want 2", got)
	}
	if got := child.SharedPTPs(); got != 1 {
		t.Errorf("child SharedPTPs = %d, want 1", got)
	}
	if got := parent.SharedPTPs(); got != 0 {
		t.Errorf("parent SharedPTPs = %d, want 0 (owner's entry is not NEED_COPY here)", got)
	}
}

func TestPTEPhysAddrStableAcrossSharers(t *testing.T) {
	phys := mem.New(64)
	parent := newPT(t, phys)
	child := newPT(t, phys)
	tab, _ := parent.EnsureLeaf(3, armv7.DomainUser)
	child.AttachShared(3, tab, armv7.DomainUser)
	// Both address spaces walk to the same physical PTE word: this is the
	// cache-deduplication property the paper measures.
	pa1 := parent.Slot(3).Table.PTEPhysAddr(0x42)
	pa2 := child.Slot(3).Table.PTEPhysAddr(0x42)
	if pa1 != pa2 {
		t.Errorf("shared PTP PTE addresses differ: %#x vs %#x", pa1, pa2)
	}
}

func TestRootEntryPhysAddrsDistinct(t *testing.T) {
	phys := mem.New(64)
	pt := newPT(t, phys)
	seen := make(map[arch.PhysAddr]bool)
	for _, idx := range []int{0, 1, 1023, 1024, 2048, 4095} {
		pa := pt.RootEntryPhysAddr(idx)
		if seen[pa] {
			t.Errorf("duplicate root entry physical address %#x for index %d", pa, idx)
		}
		seen[pa] = true
	}
}

// TestRootEntryPhysAddrMatchesFrameDivision pins the shift-and-mask
// addresses of the root entry and, where the format has mid tables, the
// mid entry above every slot of both formats against the frame-and-index
// division they replace.
func TestRootEntryPhysAddrMatchesFrameDivision(t *testing.T) {
	for _, geo := range []arch.Geometry{geoARM, geoSv39} {
		pt, err := New(mem.New(64), geo)
		if err != nil {
			t.Fatal(err)
		}
		epf := arch.PageSize / geo.EntryBytes
		for idx := 0; idx < pt.NumSlots(); idx++ {
			ridx := idx
			if geo.MidEntries != 0 {
				ridx = idx / geo.MidEntries
				mid := pt.midFrames[ridx]
				want := arch.FrameAddr(mid) + arch.PhysAddr(idx%geo.MidEntries*geo.EntryBytes)
				if got := pt.midEntryPhysAddr(idx); got != want {
					t.Fatalf("%d-level slot %d: mid entry at %#x, want %#x", geo.Levels, idx, got, want)
				}
			}
			want := arch.FrameAddr(pt.rootFrames[ridx/epf]) + arch.PhysAddr((ridx%epf)*geo.EntryBytes)
			if got := pt.RootEntryPhysAddr(idx); got != want {
				t.Fatalf("%d-level slot %d: root entry at %#x, want %#x", geo.Levels, idx, got, want)
			}
		}
	}
}

func TestSv39SlotsShareRootEntry(t *testing.T) {
	// Two slots under the same mid table share their root entry address
	// but have distinct mid-level entry addresses.
	phys := mem.New(64)
	pt, err := New(phys, geoSv39)
	if err != nil {
		t.Fatal(err)
	}
	if a, b := pt.RootEntryPhysAddr(0), pt.RootEntryPhysAddr(1); a != b {
		t.Errorf("slots 0 and 1 should share a root entry: %#x vs %#x", a, b)
	}
	if a, b := pt.RootEntryPhysAddr(0), pt.RootEntryPhysAddr(512); a == b {
		t.Errorf("slots 0 and 512 are under different root entries: both %#x", a)
	}
	if a, b := pt.midEntryPhysAddr(0), pt.midEntryPhysAddr(1); a == b {
		t.Errorf("slots 0 and 1 must have distinct mid entries: both %#x", a)
	}
}

func TestPTEAt(t *testing.T) {
	phys := mem.New(64)
	pt := newPT(t, phys)
	if pt.PTEAt(0x00300000) != nil {
		t.Error("PTEAt on empty slot should be nil")
	}
	_, _ = pt.EnsureLeaf(3, armv7.DomainUser)
	pt.Set(0x00300000, validPTE(9, 0))
	p := pt.PTEAt(0x00300000)
	if p == nil || p.Frame != 9 {
		t.Errorf("PTEAt = %+v, want frame 9", p)
	}
}

// TestSetClearInvariant property: after any sequence of Set/Clear on
// random pages within one slot, Populated equals the number of distinct
// live pages.
func TestSetClearInvariant(t *testing.T) {
	prop := func(ops []uint8) bool {
		phys := mem.New(256)
		pt, err := New(phys, geoARM)
		if err != nil {
			return false
		}
		if _, err := pt.EnsureLeaf(0, armv7.DomainUser); err != nil {
			return false
		}
		live := make(map[int]bool)
		for i, op := range ops {
			idx := int(op)
			va := arch.VirtAddr(idx) << arch.PageShift
			if i%2 == 0 {
				pt.Set(va, validPTE(arch.FrameNum(idx+1), 0))
				live[idx] = true
			} else {
				pt.Clear(va)
				delete(live, idx)
			}
		}
		return pt.PopulatedPTEs() == len(live)
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 100}); err != nil {
		t.Error(err)
	}
}

// TestShareUnshareInvariant property: for any set of populated entries,
// share + unshare gives the child an identical view while leaving the
// parent untouched, and copies exactly the populated count.
func TestShareUnshareInvariant(t *testing.T) {
	prop := func(pages []uint8) bool {
		phys := mem.New(256)
		parent, _ := New(phys, geoARM)
		child, _ := New(phys, geoARM)
		tab, _ := parent.EnsureLeaf(0, armv7.DomainUser)
		uniq := make(map[uint8]bool)
		for _, p := range pages {
			uniq[p] = true
			parent.Set(arch.VirtAddr(p)<<arch.PageShift, validPTE(arch.FrameNum(p)+1, 0))
		}
		child.AttachShared(0, tab, armv7.DomainUser)
		copied, err := child.UnsharePTP(0)
		if err != nil || copied != len(uniq) {
			return false
		}
		for p := range uniq {
			va := arch.VirtAddr(p) << arch.PageShift
			cp, _, cf := child.Lookup(va)
			pp, _, pf := parent.Lookup(va)
			if cf != arch.FaultNone || pf != arch.FaultNone || cp != pp {
				return false
			}
		}
		return parent.SharerCount(0) == 1 && child.SharerCount(0) == 1
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 100}); err != nil {
		t.Error(err)
	}
}

// TestUnshareFilterProperty: for any population and any filter, the
// filtered unshare copies exactly the kept entries, and dropped entries
// read as invalid in the fresh table while the shared original is intact.
func TestUnshareFilterProperty(t *testing.T) {
	prop := func(pages []uint8, keepMask uint8) bool {
		phys := mem.New(256)
		parent, _ := New(phys, geoARM)
		child, _ := New(phys, geoARM)
		tab, _ := parent.EnsureLeaf(0, armv7.DomainUser)
		uniq := map[uint8]bool{}
		for _, p := range pages {
			uniq[p] = true
			pte := validPTE(arch.FrameNum(p)+1, 0)
			if p&keepMask == 0 {
				pte.Soft |= arch.SoftFile
			}
			parent.Set(arch.VirtAddr(p)<<arch.PageShift, pte)
		}
		child.AttachShared(0, tab, armv7.DomainUser)
		keep := func(pte PTE) bool { return pte.Soft&arch.SoftFile == 0 }
		copied, err := child.UnsharePTPFunc(0, keep)
		if err != nil {
			return false
		}
		wantCopied := 0
		for p := range uniq {
			va := arch.VirtAddr(p) << arch.PageShift
			cp := child.PTEAt(va)
			pp, _, _ := parent.Lookup(va)
			if p&keepMask != 0 { // kept: anon-like
				if !cp.Valid() || cp.Frame != pp.Frame {
					return false
				}
				wantCopied++
			} else if cp.Valid() { // dropped: must be absent in the copy
				return false
			}
			if !pp.Valid() { // the shared original is never disturbed
				return false
			}
		}
		return copied == wantCopied
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 100}); err != nil {
		t.Error(err)
	}
}

// TestLargeMappingProperty: SetLarge populates exactly PagesPerLarge
// replicas, all carrying the base frame and the PTELarge attribute —
// sixteen 64KB replicas on ARMv7, a full 512-entry leaf table on Sv39.
func TestLargeMappingProperty(t *testing.T) {
	for _, tc := range []struct {
		name string
		geo  arch.Geometry
	}{{"armv7", geoARM}, {"sv39", geoSv39}} {
		ppl := tc.geo.PagesPerLarge()
		chunks := int(tc.geo.SlotSpan() / tc.geo.LargePageSize())
		prop := func(slot uint8, chunk uint8) bool {
			phys := mem.New(1024)
			pt, _ := New(phys, tc.geo)
			idx := int(slot) % tc.geo.NumSlots()
			c := int(chunk) % chunks
			va := tc.geo.SlotBase(idx) + arch.VirtAddr(c)*tc.geo.LargePageSize()
			if _, err := pt.EnsureLeaf(idx, 0); err != nil {
				return false
			}
			base, err := phys.AllocRange(ppl, ppl, mem.FramePageCache)
			if err != nil {
				return false
			}
			pt.SetLarge(va, base, arch.PTEValid|arch.PTEUser|arch.PTEExec, arch.SoftFile)
			if pt.PopulatedPTEs() != ppl {
				return false
			}
			for i := 0; i < ppl; i++ {
				pte, _, f := pt.Lookup(va + arch.VirtAddr(i*arch.PageSize))
				if f != arch.FaultNone || pte.Frame != base || pte.Flags&arch.PTELarge == 0 {
					return false
				}
			}
			return true
		}
		t.Run(tc.name, func(t *testing.T) {
			if err := quick.Check(prop, &quick.Config{MaxCount: 50}); err != nil {
				t.Error(err)
			}
		})
	}
}

func TestSetLargeValidation(t *testing.T) {
	phys := mem.New(256)
	pt, _ := New(phys, geoARM)
	_, _ = pt.EnsureLeaf(0, armv7.DomainUser)
	base, _ := phys.AllocRange(16, 16, mem.FramePageCache)
	for _, c := range []struct {
		name string
		fn   func()
	}{
		{"unaligned va", func() { pt.SetLarge(0x1000, base, arch.PTEValid, 0) }},
		{"unaligned frame", func() { pt.SetLarge(0x10000, base+1, arch.PTEValid, 0) }},
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("%s should panic", c.name)
				}
			}()
			c.fn()
		}()
	}
}
