package tlb

import (
	"testing"
	"testing/quick"

	"repro/internal/arch"
	"repro/internal/arch/armv7"
)

const (
	asid1 = arch.ASID(1)
	asid2 = arch.ASID(2)
)

func userFlags(extra arch.PTEFlags) arch.PTEFlags {
	return arch.PTEValid | arch.PTEUser | arch.PTEExec | extra
}

func TestMissThenHit(t *testing.T) {
	tb := New("main", 8, armv7.PagesPerLargePage)
	dacr := armv7.StockDACR()
	if _, _, r := tb.Lookup(0x1000, asid1, dacr, arch.AccessFetch); r != Miss {
		t.Fatalf("lookup = %v, want miss", r)
	}
	tb.Insert(0x1000, asid1, 42, userFlags(0), armv7.DomainUser)
	e, _, r := tb.Lookup(0x1000, asid1, dacr, arch.AccessFetch)
	if r != Hit {
		t.Fatalf("lookup = %v, want hit", r)
	}
	if e.Frame() != 42 {
		t.Errorf("frame = %d, want 42", e.Frame())
	}
	s := tb.Stats()
	if s.Hits != 1 || s.Misses != 1 || s.Insertions != 1 {
		t.Errorf("stats = %+v", s)
	}
}

func TestASIDIsolation(t *testing.T) {
	tb := New("main", 8, armv7.PagesPerLargePage)
	dacr := armv7.StockDACR()
	tb.Insert(0x1000, asid1, 42, userFlags(0), armv7.DomainUser)
	if _, _, r := tb.Lookup(0x1000, asid2, dacr, arch.AccessFetch); r != Miss {
		t.Errorf("non-global entry must not match another ASID: got %v", r)
	}
}

func TestGlobalMatchesAnyASID(t *testing.T) {
	tb := New("main", 8, armv7.PagesPerLargePage)
	dacr := armv7.ZygoteDACR()
	tb.Insert(0x1000, asid1, 42, userFlags(arch.PTEGlobal), armv7.DomainZygote)
	e, _, r := tb.Lookup(0x1000, asid2, dacr, arch.AccessFetch)
	if r != Hit {
		t.Fatalf("global entry should hit under any ASID: got %v", r)
	}
	if !e.Global() || e.Domain() != armv7.DomainZygote {
		t.Errorf("entry = %+v", e)
	}
}

func TestDomainFault(t *testing.T) {
	tb := New("main", 8, armv7.PagesPerLargePage)
	// Entry loaded by a zygote-like process in the zygote domain...
	tb.Insert(0x1000, asid1, 42, userFlags(arch.PTEGlobal), armv7.DomainZygote)
	// ...is globally matched by a non-zygote process, whose DACR denies
	// the zygote domain: domain fault, not a hit and not a miss.
	_, _, r := tb.Lookup(0x1000, asid2, armv7.StockDACR(), arch.AccessFetch)
	if r != DomainFault {
		t.Fatalf("lookup = %v, want domain fault", r)
	}
	if tb.Stats().DomainFaults != 1 {
		t.Errorf("DomainFaults = %d, want 1", tb.Stats().DomainFaults)
	}
}

func TestPermissionChecks(t *testing.T) {
	tb := New("main", 8, armv7.PagesPerLargePage)
	dacr := armv7.StockDACR()
	// Read-only, non-executable data page.
	tb.Insert(0x1000, asid1, 1, arch.PTEValid|arch.PTEUser, armv7.DomainUser)
	if _, _, r := tb.Lookup(0x1000, asid1, dacr, arch.AccessRead); r != Hit {
		t.Errorf("read = %v, want hit", r)
	}
	if _, _, r := tb.Lookup(0x1000, asid1, dacr, arch.AccessWrite); r != PermFault {
		t.Errorf("write = %v, want permission fault", r)
	}
	if _, _, r := tb.Lookup(0x1000, asid1, dacr, arch.AccessFetch); r != PermFault {
		t.Errorf("fetch = %v, want permission fault", r)
	}
	// Kernel-only page: no user bit.
	tb.Insert(0x2000, asid1, 2, arch.PTEValid|arch.PTEWrite, armv7.DomainUser)
	if _, _, r := tb.Lookup(0x2000, asid1, dacr, arch.AccessRead); r != PermFault {
		t.Errorf("user access to kernel page = %v, want permission fault", r)
	}
}

func TestManagerOverridesPermissions(t *testing.T) {
	tb := New("main", 8, armv7.PagesPerLargePage)
	dacr := armv7.StockDACR().WithAccess(armv7.DomainUser, arch.DomainManager)
	tb.Insert(0x1000, asid1, 1, arch.PTEValid|arch.PTEUser, armv7.DomainUser)
	if _, _, r := tb.Lookup(0x1000, asid1, dacr, arch.AccessWrite); r != Hit {
		t.Errorf("manager-domain write = %v, want hit", r)
	}
}

func TestLRUEviction(t *testing.T) {
	tb := New("main", 2, armv7.PagesPerLargePage)
	dacr := armv7.StockDACR()
	tb.Insert(0x1000, asid1, 1, userFlags(0), armv7.DomainUser)
	tb.Insert(0x2000, asid1, 2, userFlags(0), armv7.DomainUser)
	// Touch 0x1000 so 0x2000 becomes LRU.
	if _, _, r := tb.Lookup(0x1000, asid1, dacr, arch.AccessFetch); r != Hit {
		t.Fatal("expected hit")
	}
	tb.Insert(0x3000, asid1, 3, userFlags(0), armv7.DomainUser)
	if _, _, r := tb.Lookup(0x1000, asid1, dacr, arch.AccessFetch); r != Hit {
		t.Errorf("recently used entry was evicted")
	}
	if _, _, r := tb.Lookup(0x2000, asid1, dacr, arch.AccessFetch); r != Miss {
		t.Errorf("LRU entry should have been evicted")
	}
	if tb.Stats().Evictions != 1 {
		t.Errorf("Evictions = %d, want 1", tb.Stats().Evictions)
	}
}

func TestInsertOverwritesMatching(t *testing.T) {
	tb := New("main", 4, armv7.PagesPerLargePage)
	dacr := armv7.StockDACR()
	tb.Insert(0x1000, asid1, 1, userFlags(0), armv7.DomainUser)
	tb.Insert(0x1000, asid1, 9, userFlags(0), armv7.DomainUser)
	e, _, r := tb.Lookup(0x1000, asid1, dacr, arch.AccessFetch)
	if r != Hit || e.Frame() != 9 {
		t.Errorf("lookup = (%v, frame %d), want hit frame 9", r, e.Frame())
	}
	if v, _ := tb.Occupancy(); v != 1 {
		t.Errorf("occupancy = %d, want 1 (in-place overwrite)", v)
	}
	if tb.Stats().Evictions != 0 {
		t.Errorf("in-place overwrite must not count as eviction")
	}
}

func TestFlushAll(t *testing.T) {
	tb := New("main", 4, armv7.PagesPerLargePage)
	tb.Insert(0x1000, asid1, 1, userFlags(0), armv7.DomainUser)
	tb.Insert(0x2000, asid1, 2, userFlags(arch.PTEGlobal), armv7.DomainZygote)
	tb.FlushAll()
	if v, _ := tb.Occupancy(); v != 0 {
		t.Errorf("occupancy after FlushAll = %d", v)
	}
	if tb.Stats().FlushedEntries != 2 {
		t.Errorf("FlushedEntries = %d, want 2", tb.Stats().FlushedEntries)
	}
}

func TestFlushASIDSparesGlobal(t *testing.T) {
	tb := New("main", 4, armv7.PagesPerLargePage)
	dacr := armv7.ZygoteDACR()
	tb.Insert(0x1000, asid1, 1, userFlags(0), armv7.DomainUser)
	tb.Insert(0x2000, asid1, 2, userFlags(arch.PTEGlobal), armv7.DomainZygote)
	tb.Insert(0x3000, asid2, 3, userFlags(0), armv7.DomainUser)
	tb.FlushASID(asid1)
	if _, _, r := tb.Lookup(0x1000, asid1, dacr, arch.AccessFetch); r != Miss {
		t.Errorf("asid1 private entry should be flushed")
	}
	if _, _, r := tb.Lookup(0x2000, asid2, dacr, arch.AccessFetch); r != Hit {
		t.Errorf("global entry must survive FlushASID")
	}
	if _, _, r := tb.Lookup(0x3000, asid2, dacr, arch.AccessFetch); r != Hit {
		t.Errorf("other ASID's entry must survive")
	}
}

func TestFlushNonGlobal(t *testing.T) {
	tb := New("main", 4, armv7.PagesPerLargePage)
	dacr := armv7.ZygoteDACR()
	tb.Insert(0x1000, asid1, 1, userFlags(0), armv7.DomainUser)
	tb.Insert(0x2000, asid1, 2, userFlags(arch.PTEGlobal), armv7.DomainZygote)
	tb.Insert(0x3000, asid2, 3, userFlags(0), armv7.DomainUser)
	if n := tb.FlushNonGlobal(); n != 2 {
		t.Errorf("FlushNonGlobal flushed %d, want 2", n)
	}
	if _, _, r := tb.Lookup(0x2000, asid1, dacr, arch.AccessFetch); r != Hit {
		t.Error("global entry must survive FlushNonGlobal")
	}
	if _, _, r := tb.Lookup(0x1000, asid1, dacr, arch.AccessFetch); r != Miss {
		t.Error("private entries must be flushed")
	}
}

func TestFlushVA(t *testing.T) {
	tb := New("main", 4, armv7.PagesPerLargePage)
	dacr := armv7.ZygoteDACR()
	tb.Insert(0x1000, asid1, 1, userFlags(0), armv7.DomainUser)
	tb.Insert(0x1000, asid2, 2, userFlags(0), armv7.DomainUser)
	tb.Insert(0x2000, asid1, 3, userFlags(0), armv7.DomainUser)
	if n := tb.FlushVA(0x1234); n != 2 {
		t.Errorf("FlushVA flushed %d entries, want 2 (both ASIDs' mappings of the page)", n)
	}
	if _, _, r := tb.Lookup(0x2000, asid1, dacr, arch.AccessFetch); r != Hit {
		t.Errorf("unrelated entry must survive FlushVA")
	}
}

func TestFlushRange(t *testing.T) {
	tb := New("main", 8, armv7.PagesPerLargePage)
	dacr := armv7.StockDACR()
	tb.Insert(0x1000, asid1, 1, userFlags(0), armv7.DomainUser)
	tb.Insert(0x2000, asid1, 2, userFlags(0), armv7.DomainUser)
	tb.Insert(0x5000, asid1, 3, userFlags(0), armv7.DomainUser)
	tb.Insert(0x2000, asid2, 4, userFlags(0), armv7.DomainUser)
	if n := tb.FlushRange(0x1000, 0x3000, asid1); n != 2 {
		t.Errorf("FlushRange flushed %d, want 2", n)
	}
	if _, _, r := tb.Lookup(0x5000, asid1, dacr, arch.AccessFetch); r != Hit {
		t.Errorf("entry past range should survive")
	}
	if _, _, r := tb.Lookup(0x2000, asid2, dacr, arch.AccessFetch); r != Hit {
		t.Errorf("other ASID should survive a non-global range flush")
	}
}

func TestDomainFaultThenFlushVAThenWalk(t *testing.T) {
	// The full hardware/software dance of Section 3.2.3: a non-zygote
	// process trips a domain fault on a global entry; the handler flushes
	// entries matching the faulting address; the retry misses and the
	// process loads its own private translation.
	tb := New("main", 8, armv7.PagesPerLargePage)
	tb.Insert(0x1000, asid1, 42, userFlags(arch.PTEGlobal), armv7.DomainZygote)
	nonZygote := armv7.StockDACR()
	if _, _, r := tb.Lookup(0x1000, asid2, nonZygote, arch.AccessFetch); r != DomainFault {
		t.Fatalf("want domain fault, got %v", r)
	}
	tb.FlushVA(0x1000)
	if _, _, r := tb.Lookup(0x1000, asid2, nonZygote, arch.AccessFetch); r != Miss {
		t.Fatalf("after flush want miss, got %v", r)
	}
	tb.Insert(0x1000, asid2, 77, userFlags(0), armv7.DomainUser)
	e, _, r := tb.Lookup(0x1000, asid2, nonZygote, arch.AccessFetch)
	if r != Hit || e.Frame() != 77 {
		t.Fatalf("retry = (%v, frame %d), want hit frame 77", r, e.Frame())
	}
}

func TestOccupancy(t *testing.T) {
	tb := New("main", 8, armv7.PagesPerLargePage)
	tb.Insert(0x1000, asid1, 1, userFlags(0), armv7.DomainUser)
	tb.Insert(0x2000, asid1, 2, userFlags(arch.PTEGlobal), armv7.DomainZygote)
	v, g := tb.Occupancy()
	if v != 2 || g != 1 {
		t.Errorf("occupancy = (%d, %d), want (2, 1)", v, g)
	}
}

func TestResetStats(t *testing.T) {
	tb := New("main", 8, armv7.PagesPerLargePage)
	tb.Insert(0x1000, asid1, 1, userFlags(0), armv7.DomainUser)
	tb.Lookup(0x1000, asid1, armv7.StockDACR(), arch.AccessFetch)
	tb.Reset()
	if s := tb.Stats(); s.Hits != 0 || s.Insertions != 0 {
		t.Errorf("stats not reset: %+v", s)
	}
	// Entries survive a stats reset.
	if _, _, r := tb.Lookup(0x1000, asid1, armv7.StockDACR(), arch.AccessFetch); r != Hit {
		t.Errorf("entries should survive Reset")
	}
}

// TestInsertLookupProperty: anything inserted is immediately visible under
// its own ASID with client access, for any page-aligned address.
func TestInsertLookupProperty(t *testing.T) {
	prop := func(raw uint32, asidRaw uint8, frame uint32) bool {
		tb := New("main", 16, armv7.PagesPerLargePage)
		va := arch.VirtAddr(raw)
		asid := arch.ASID(asidRaw)
		tb.Insert(va, asid, arch.FrameNum(frame), userFlags(0), armv7.DomainUser)
		e, _, r := tb.Lookup(va, asid, armv7.StockDACR(), arch.AccessFetch)
		if r != Hit || e.Frame() != arch.FrameNum(frame) {
			return false
		}
		// Any other address in the same page also hits.
		e2, _, r2 := tb.Lookup(arch.PageBase(va)+123, asid, armv7.StockDACR(), arch.AccessRead)
		return r2 == Hit && e2.Frame() == e.Frame()
	}
	if err := quick.Check(prop, nil); err != nil {
		t.Error(err)
	}
}

// TestCapacityProperty: with N entries, inserting N distinct pages under
// one ASID keeps them all resident.
func TestCapacityProperty(t *testing.T) {
	tb := New("main", 32, armv7.PagesPerLargePage)
	for i := 0; i < 32; i++ {
		tb.Insert(arch.VirtAddr(i)<<arch.PageShift, asid1, arch.FrameNum(i), userFlags(0), armv7.DomainUser)
	}
	for i := 0; i < 32; i++ {
		if _, _, r := tb.Lookup(arch.VirtAddr(i)<<arch.PageShift, asid1, armv7.StockDACR(), arch.AccessFetch); r != Hit {
			t.Fatalf("entry %d not resident", i)
		}
	}
	if tb.Stats().Evictions != 0 {
		t.Errorf("filling to capacity must not evict, got %d", tb.Stats().Evictions)
	}
}

func TestResultString(t *testing.T) {
	for r := Miss; r <= PermFault+1; r++ {
		if r.String() == "" {
			t.Errorf("empty string for result %d", r)
		}
	}
}
