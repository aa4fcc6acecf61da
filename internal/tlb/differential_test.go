package tlb

import (
	"fmt"
	"math/rand"
	"slices"
	"testing"

	"repro/internal/arch"
	"repro/internal/arch/armv7"
	"repro/internal/arch/sv39"
)

// The differential property test: the indexed TLB and the reference
// linear implementation are driven through identical randomized
// Lookup/CommitHit/Insert/Flush sequences and must agree on every
// operation's result, every counter, and the entire entry array after
// every step.
// This is the proof obligation for the hot-path index (see the package
// comment): the paper's results are event counts, so the optimization
// must be count-preserving, and entry-state equality is stronger still.

// diffDACRs is the register mix the ops draw from: stock, zygote,
// manager-override, deny-user (domain faults on user entries), and
// all-manager.
func diffDACRs() []arch.DACR {
	deny := arch.DACR(0).WithAccess(armv7.DomainKernel, arch.DomainClient)
	var manager arch.DACR
	for d := uint8(0); d < 4; d++ {
		manager = manager.WithAccess(d, arch.DomainManager)
	}
	return []arch.DACR{
		armv7.StockDACR(),
		armv7.ZygoteDACR(),
		armv7.StockDACR().WithAccess(armv7.DomainUser, arch.DomainManager),
		deny,
		manager,
	}
}

// entryVal is the value an entry result stands for: the entry a
// Lookup pointer points at, and Entry{} for nil, the
// reference's Miss value. Comparing by value keeps the tests checking
// entry contents rather than pointer identity.
func entryVal(e *Entry) Entry {
	if e == nil {
		return Entry{}
	}
	return *e
}

// diffLookup applies one Lookup to both implementations and fails the
// test unless entry, slot and result agree. It returns the slot and the
// result.
func diffLookup(t *testing.T, indexed *TLB, ref *linearTLB, va arch.VirtAddr, asid arch.ASID, dacr arch.DACR, kind arch.AccessKind) (int32, Result) {
	t.Helper()
	gp, gs, gr := indexed.Lookup(va, asid, dacr, kind)
	ge := entryVal(gp)
	we, ws, wr := ref.Lookup(va, asid, dacr, kind)
	if ge != we || gs != ws || gr != wr {
		t.Fatalf("Lookup(%#x, asid %d, dacr %#x, %v) diverged:\n  indexed (%+v, %d, %v)\n  reference (%+v, %d, %v)",
			va, asid, dacr, kind, ge, gs, gr, we, ws, wr)
	}
	return gs, gr
}

// diffLookupCommit applies one Lookup to both implementations and, on a
// Hit, commits the same translation's next hit on the indexed TLB with
// CommitHit, which the reference's second Lookup must confirm: a hit at
// the same slot.
func diffLookupCommit(t *testing.T, indexed *TLB, ref *linearTLB, va arch.VirtAddr, asid arch.ASID, dacr arch.DACR, kind arch.AccessKind) {
	t.Helper()
	if slot, r := diffLookup(t, indexed, ref, va, asid, dacr, kind); r == Hit {
		indexed.CommitHit(slot)
		if _, ws, wr := ref.Lookup(va, asid, dacr, kind); ws != slot || wr != Hit {
			t.Fatalf("CommitHit(%d) after Lookup(%#x): reference second Lookup (%d, %v)", slot, va, ws, wr)
		}
	}
}

// diffInsert applies one Insert to both implementations and fails the
// test unless they report the same slot.
func diffInsert(t *testing.T, indexed *TLB, ref *linearTLB, va arch.VirtAddr, asid arch.ASID, frame arch.FrameNum, flags arch.PTEFlags, domain uint8) {
	t.Helper()
	if gs, ws := indexed.Insert(va, asid, frame, flags, domain), ref.Insert(va, asid, frame, flags, domain); gs != ws {
		t.Fatalf("Insert(%#x, asid %d, flags %#x) diverged: indexed slot %d, reference slot %d", va, asid, flags, gs, ws)
	}
}

// diffOp applies one random operation to both implementations and fails
// the test on any divergence in the operation's outcome.
func diffOp(t *testing.T, rng *rand.Rand, indexed *TLB, ref *linearTLB, dacrs []arch.DACR) {
	t.Helper()
	// Address pool: 48 small pages, aliasing the first three 64KB blocks,
	// plus offsets within pages so VPN extraction is exercised.
	va := arch.VirtAddr(rng.Intn(48))<<arch.PageShift | arch.VirtAddr(rng.Intn(arch.PageSize))
	asid := arch.ASID(1 + rng.Intn(3))
	kind := arch.AccessKind(rng.Intn(3))
	dacr := dacrs[rng.Intn(len(dacrs))]

	switch r := rng.Intn(100); {
	case r < 45: // Lookup
		diffLookup(t, indexed, ref, va, asid, dacr, kind)
	case r < 57: // Lookup, then a second hit committed without a probe
		diffLookupCommit(t, indexed, ref, va, asid, dacr, kind)
	case r < 82: // Insert
		flags := arch.PTEValid
		if rng.Intn(100) < 80 {
			flags |= arch.PTEUser
		}
		if rng.Intn(2) == 0 {
			flags |= arch.PTEExec
		}
		if rng.Intn(2) == 0 {
			flags |= arch.PTEWrite
		}
		if rng.Intn(100) < 25 {
			flags |= arch.PTEGlobal
		}
		if rng.Intn(100) < 20 {
			flags |= arch.PTELarge
		}
		diffInsert(t, indexed, ref, va, asid, arch.FrameNum(rng.Intn(1<<16)), flags, uint8(rng.Intn(4)))
	case r < 85: // one page under every ASID plus a global copy: a long chain
		flags := arch.PTEValid | arch.PTEUser | arch.PTEExec
		domain := uint8(rng.Intn(4))
		for a := arch.ASID(1); a <= 3; a++ {
			diffInsert(t, indexed, ref, va, a, arch.FrameNum(a), flags, domain)
		}
		diffInsert(t, indexed, ref, va, asid, 4, flags|arch.PTEGlobal, domain)
	case r < 90: // FlushVA (the domain-fault handler / shootdown path)
		if gn, wn := indexed.FlushVA(va), ref.FlushVA(va); gn != wn {
			t.Fatalf("FlushVA(%#x) diverged: indexed %d, reference %d", va, gn, wn)
		}
	case r < 93: // FlushASID
		indexed.FlushASID(asid)
		ref.FlushASID(asid)
	case r < 96: // FlushRange
		end := va + arch.VirtAddr(rng.Intn(8))<<arch.PageShift + 1
		if gn, wn := indexed.FlushRange(va, end, asid), ref.FlushRange(va, end, asid); gn != wn {
			t.Fatalf("FlushRange(%#x, %#x, asid %d) diverged: indexed %d, reference %d", va, end, asid, gn, wn)
		}
	case r < 97: // FlushNonGlobal (no-ASID context switch)
		if gn, wn := indexed.FlushNonGlobal(), ref.FlushNonGlobal(); gn != wn {
			t.Fatalf("FlushNonGlobal diverged: indexed %d, reference %d", gn, wn)
		}
	case r < 99: // FlushGlobal (no-domain shared-mapping shootdown)
		if gn, wn := indexed.FlushGlobal(), ref.FlushGlobal(); gn != wn {
			t.Fatalf("FlushGlobal diverged: indexed %d, reference %d", gn, wn)
		}
	default: // FlushAll
		indexed.FlushAll()
		ref.FlushAll()
	}
}

// chainReach records what the index chains of a run have held.
type chainReach struct {
	longest int  // the most slots on one chain
	mixed   bool // a chain held two distinct keys
	both    bool // a chain held a 4KB entry and a large entry covering its page
}

// diffCheckIndex fails the test unless the indexed TLB's auxiliary
// structures describe its entry array: every chain is strictly ascending
// and holds only valid slots whose key hashes to its bucket, every valid
// slot is on exactly one chain, the LRU list threads exactly the valid
// slots, and numValid and numLarge match a recount. It adds what the
// chains hold to reach.
func diffCheckIndex(t *testing.T, step int, tb *TLB, reach *chainReach) {
	t.Helper()
	seen := make([]int, len(tb.entries))
	for b, head := range tb.heads {
		n, prev := 0, int32(-1)
		for s := head; s >= 0; s = tb.same[s] {
			if s <= prev {
				t.Fatalf("step %d: chain of bucket %d not ascending at slot %d after %d", step, b, s, prev)
			}
			if e := &tb.entries[s]; !e.valid || tb.bucket(entryKey(e.vpn, e.large)) != uint32(b) {
				t.Fatalf("step %d: chain of bucket %d holds slot %d = %+v", step, b, s, *e)
			}
			seen[s]++
			n++
			prev = s
		}
		reach.longest = max(reach.longest, n)
		for s := head; s >= 0; s = tb.same[s] {
			for u := tb.same[s]; u >= 0; u = tb.same[u] {
				x, y := &tb.entries[s], &tb.entries[u]
				if entryKey(x.vpn, x.large) != entryKey(y.vpn, y.large) {
					reach.mixed = true
				}
				if x.large != y.large && (x.large && x.vpn == y.vpn&^tb.largeMask || y.large && y.vpn == x.vpn&^tb.largeMask) {
					reach.both = true
				}
			}
		}
	}
	valid, large := 0, 0
	for s, e := range tb.entries {
		want := 0
		if e.valid {
			want = 1
			valid++
			if e.large {
				large++
			}
		}
		if seen[s] != want {
			t.Fatalf("step %d: slot %d (valid %v) is on %d chains", step, s, e.valid, seen[s])
		}
	}
	if tb.numValid != valid || tb.numLarge != large {
		t.Fatalf("step %d: numValid %d numLarge %d, recount %d and %d", step, tb.numValid, tb.numLarge, valid, large)
	}
	n := 0
	for s := tb.lruHead; s >= 0; s = tb.lruNext[s] {
		if !tb.entries[s].valid || n == valid {
			t.Fatalf("step %d: LRU list reaches slot %d (valid %v) after %d of %d", step, s, tb.entries[s].valid, n, valid)
		}
		n++
	}
	if n != valid {
		t.Fatalf("step %d: LRU list threads %d slots, %d valid", step, n, valid)
	}
}

// diffCompareState fails the test unless both implementations hold
// identical entries, counters, and occupancy.
func diffCompareState(t *testing.T, step int, indexed *TLB, ref *linearTLB) {
	t.Helper()
	if !slices.Equal(indexed.entries, ref.entries) {
		for i := range indexed.entries {
			if indexed.entries[i] != ref.entries[i] {
				t.Fatalf("step %d: entry %d diverged:\n  indexed %+v\n  reference %+v",
					step, i, indexed.entries[i], ref.entries[i])
			}
		}
	}
	if indexed.stats != ref.stats {
		t.Fatalf("step %d: stats diverged:\n  indexed %+v\n  reference %+v", step, indexed.stats, ref.stats)
	}
	if wv, _ := occupancy(ref.entries); indexed.numValid != wv {
		t.Fatalf("step %d: numValid %d inconsistent with occupancy %d", step, indexed.numValid, wv)
	}
}

func TestDifferentialIndexedVsLinear(t *testing.T) {
	dacrs := diffDACRs()
	const opsPerConfig = 12000
	for _, size := range []int{1, 2, 3, 8, 32, 128} {
		for _, hw := range []bool{false, true} {
			// Both large-page granularities: ARMv7's 16-page 64KB pages
			// and Sv39's 512-page 2MB megapages.
			for _, ppl := range []int{armv7.PagesPerLargePage, sv39.PagesPerMegaPage} {
				size, hw, ppl := size, hw, ppl
				name := fmt.Sprintf("size=%d/hw=%v/ppl=%d", size, hw, ppl)
				t.Run(name, func(t *testing.T) {
					rng := rand.New(rand.NewSource(int64(size)*2 + int64(boolToInt(hw)) + int64(ppl)))
					indexed := New("diff", size, ppl)
					ref := newLinear(size, ppl)
					indexed.DomainMatchInHW = hw
					ref.DomainMatchInHW = hw
					var reach chainReach
					for step := 0; step < opsPerConfig; step++ {
						diffOp(t, rng, indexed, ref, dacrs)
						diffCompareState(t, step, indexed, ref)
						diffCheckIndex(t, step, indexed, &reach)
					}
					if size >= 8 && reach.longest < 3 {
						t.Errorf("longest index chain %d, want the chain-building ops to reach 3", reach.longest)
					}
					// The randomized run must reach shared chains. A
					// one-entry TLB holds one key, and from 32 entries
					// (128 buckets) on, Fibonacci hashing spreads the
					// 48-page pool's keys apart.
					if size >= 2 && size <= 8 && !reach.mixed {
						t.Error("no chain held two distinct keys")
					}
					if size >= 2 && size <= 8 && !reach.both {
						t.Error("no chain held a 4KB entry and a large entry covering its page")
					}
				})
			}
		}
	}
}

// TestDifferentialHWToggle flips DomainMatchInHW mid-sequence (as the
// DomainMatchStudy boots different configs, a single TLB never toggles —
// but no index state may carry stale assumptions across a toggle).
func TestDifferentialHWToggle(t *testing.T) {
	dacrs := diffDACRs()
	rng := rand.New(rand.NewSource(99))
	indexed := New("diff", 16, armv7.PagesPerLargePage)
	ref := newLinear(16, armv7.PagesPerLargePage)
	for step := 0; step < 20000; step++ {
		if rng.Intn(200) == 0 {
			hw := rng.Intn(2) == 0
			indexed.DomainMatchInHW = hw
			ref.DomainMatchInHW = hw
		}
		diffOp(t, rng, indexed, ref, dacrs)
		diffCompareState(t, step, indexed, ref)
		diffCheckIndex(t, step, indexed, &chainReach{})
	}
}

// TestDifferentialLargePageHeavy skews toward large pages and aliased
// small pages so the masked-VPN key and the merged walk of the 4KB and
// large-page chains are exercised hard.
func TestDifferentialLargePageHeavy(t *testing.T) {
	dacrs := diffDACRs()
	rng := rand.New(rand.NewSource(7))
	indexed := New("diff", 8, armv7.PagesPerLargePage)
	ref := newLinear(8, armv7.PagesPerLargePage)
	for step := 0; step < 15000; step++ {
		// Only two 64KB blocks: constant aliasing between the one large
		// mapping and its sixteen small pages, across three ASIDs and
		// mixed global bits — the worst case for the index.
		va := arch.VirtAddr(rng.Intn(32)) << arch.PageShift
		asid := arch.ASID(1 + rng.Intn(3))
		dacr := dacrs[rng.Intn(len(dacrs))]
		switch r := rng.Intn(10); {
		case r < 4:
			diffLookup(t, indexed, ref, va, asid, dacr, arch.AccessFetch)
		case r < 5:
			diffLookupCommit(t, indexed, ref, va, asid, dacr, arch.AccessFetch)
		case r < 9:
			flags := arch.PTEValid | arch.PTEUser | arch.PTEExec
			if rng.Intn(2) == 0 {
				flags |= arch.PTELarge
			}
			if rng.Intn(2) == 0 {
				flags |= arch.PTEGlobal
			}
			diffInsert(t, indexed, ref, va, asid, arch.FrameNum(step), flags, armv7.DomainUser)
		default:
			if gn, wn := indexed.FlushVA(va), ref.FlushVA(va); gn != wn {
				t.Fatalf("FlushVA(%#x) diverged: indexed %d, reference %d", va, gn, wn)
			}
		}
		diffCompareState(t, step, indexed, ref)
		diffCheckIndex(t, step, indexed, &chainReach{})
	}
}

func boolToInt(b bool) int {
	if b {
		return 1
	}
	return 0
}
