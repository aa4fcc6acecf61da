// Run-oriented lookup primitives for the batched execution engine
// (cpu.AccessBatch): resolve a reference once, then commit whole spans of
// consecutive TLB-hit iterations with one bookkeeping update.
//
// The contract with the scalar path is exact equivalence of all observable
// state. k consecutive scalar Lookups that hit the same entry perform:
// clock += k, entry.lastUse = final clock, Hits += k, k moves of the
// entry to the LRU tail (all but the first no-ops), and leave the MRU
// register describing the last query. CommitRunHits produces exactly
// that end state in O(1).
// Peek (tlb.go) is Lookup without its bookkeeping, so a run that peeks
// Miss/DomainFault/PermFault can fall back to the scalar path, which
// then counts the miss or fault exactly once.

package tlb

import "repro/internal/arch"

// CommitRunHits applies the bookkeeping of n consecutive scalar Lookup
// hits on the entry at slot, the last of which queried va under
// (asid, dacr). The caller must have established — via Peek, and
// resolvesVPN for every page crossed — that each of the n lookups would
// have hit this entry, and must not have mutated the TLB in between.
func (t *TLB) CommitRunHits(slot int32, n uint64, va arch.VirtAddr, asid arch.ASID, dacr arch.DACR) {
	t.clock += n
	t.hitAt(slot, n, arch.VPN(va), asid, dacr)
}

// resolvesVPN reports whether a Lookup of vpn would hit the entry at
// slot with the same outcome the entry already produced for an earlier
// page, letting a run advance across page boundaries inside a
// large-page entry without re-probing. For a 4KB entry this is simply
// "same page". For a large entry a 4KB entry for the new page may
// precede it in probe order, so the advance is only safe while no 4KB
// entry exists for the new page — when one does, the caller must
// re-Peek, which decides the new page exactly. Domain and permission
// outcomes carry over because they depend only on the entry, the DACR,
// and the access kind, all fixed across a run.
func (t *TLB) resolvesVPN(slot int32, vpn uint32, asid arch.ASID) bool {
	e := &t.entries[slot]
	if !e.match(vpn, asid, t.largeMask) {
		return false
	}
	if !e.large {
		return true
	}
	for s := t.heads[t.bucket(entryKey(vpn, false))]; s >= 0; s = t.same[s] {
		if e := &t.entries[s]; e.vpn == vpn && !e.large {
			return false
		}
	}
	return true
}

// LookupRun resolves up to max references at va, va+stride, ... and
// reports how many stayed resolved by the single entry the first
// reference hit: n consecutive hit iterations are committed with one
// CommitRunHits (large pages amortize thousands of iterations per
// probe), and the entry is returned for address computation, a pointer
// into the TLB's own array valid until its next mutation. n = 0 (with a
// nil entry) means the first reference does not hit — nothing was
// committed, and the scalar path must take over at va to count the miss
// or deliver the fault exactly as before.
func (t *TLB) LookupRun(va, stride arch.VirtAddr, max int, asid arch.ASID, dacr arch.DACR, kind arch.AccessKind) (int, *Entry) {
	if max <= 0 {
		return 0, nil
	}
	e, slot, r := t.Peek(va, asid, dacr, kind)
	if r != Hit {
		return 0, nil
	}
	n := 1
	vpn := arch.VPN(va)
	last := va
	for n < max {
		nva := last + stride
		if nvpn := arch.VPN(nva); nvpn != vpn {
			if !t.resolvesVPN(slot, nvpn, asid) {
				break
			}
			vpn = nvpn
		}
		last = nva
		n++
	}
	t.CommitRunHits(slot, uint64(n), last, asid, dacr)
	return n, e
}
