package tlb

import "repro/internal/arch"

// linearTLB is the reference implementation: the original fully linear
// scan code, kept verbatim (minus the event bus, plus the slot Lookup and
// Insert report) as the behavioural ground truth for the indexed fast
// paths in TLB. The differential
// property test (differential_test.go) drives both implementations
// through identical operation sequences and requires identical results,
// entry states, and counters.
//
// Do not optimize this type: its entire value is that it is the obvious,
// slow, order-defining implementation.
type linearTLB struct {
	DomainMatchInHW bool

	largeMask uint32
	entries   []Entry
	clock     uint64
	stats     Stats
}

func newLinear(entries, pagesPerLarge int) *linearTLB {
	return &linearTLB{largeMask: uint32(pagesPerLarge - 1), entries: make([]Entry, entries)}
}

// refMatch is the original Entry.match: it recomputes the large-page mask
// on both sides of the comparison. Entries store a pre-masked VPN, so
// masking the entry side again is redundant — which is exactly what the
// optimized Entry.match exploits; this copy proves the equivalence.
func refMatch(e *Entry, vpn uint32, asid arch.ASID, largeMask uint32) bool {
	if !e.valid {
		return false
	}
	evpn, qvpn := e.vpn, vpn
	if e.large {
		evpn &^= largeMask
		qvpn &^= largeMask
	}
	return evpn == qvpn && (e.global || e.asid == asid)
}

func (t *linearTLB) Lookup(va arch.VirtAddr, asid arch.ASID, dacr arch.DACR, kind arch.AccessKind) (Entry, int32, Result) {
	t.clock++
	vpn := arch.VPN(va)
	for i := range t.entries {
		e := &t.entries[i]
		if !refMatch(e, vpn, asid, t.largeMask) {
			continue
		}
		switch dacr.Access(e.domain) {
		case arch.DomainNoAccess:
			if t.DomainMatchInHW {
				continue // hardware requires a domain match for a hit
			}
			t.stats.DomainFaults++
			return *e, int32(i), DomainFault
		case arch.DomainManager:
			e.lastUse = t.clock
			t.stats.Hits++
			return *e, int32(i), Hit
		default: // client: check PTE permission bits
			if !e.permit(kind) {
				t.stats.PermFaults++
				return *e, int32(i), PermFault
			}
			e.lastUse = t.clock
			t.stats.Hits++
			return *e, int32(i), Hit
		}
	}
	t.stats.Misses++
	return Entry{}, -1, Miss
}

func (t *linearTLB) Insert(va arch.VirtAddr, asid arch.ASID, frame arch.FrameNum, flags arch.PTEFlags, domain uint8) int32 {
	t.clock++
	vpn := arch.VPN(va)
	newGlobal := flags&arch.PTEGlobal != 0
	victim := 0
	var oldest uint64 = ^uint64(0)
	for i := range t.entries {
		e := &t.entries[i]
		if refMatch(e, vpn, asid, t.largeMask) {
			// With hardware domain matching, a global and a non-global
			// entry for the same page coexist (the domain check picks
			// the right one); only a same-kind entry is overwritten.
			if t.DomainMatchInHW && e.global != newGlobal {
				continue
			}
			victim = i
			oldest = 0
			break
		}
		if !e.valid {
			victim = i
			oldest = 0
			// Keep scanning: a matching entry must win over a free slot.
			continue
		}
		if oldest != 0 && e.lastUse < oldest {
			victim = i
			oldest = e.lastUse
		}
	}
	if t.entries[victim].valid && !refMatch(&t.entries[victim], vpn, asid, t.largeMask) {
		t.stats.Evictions++
	}
	large := flags&arch.PTELarge != 0
	if large {
		vpn &^= t.largeMask
	}
	t.entries[victim] = Entry{
		valid:   true,
		vpn:     vpn,
		asid:    asid,
		global:  flags&arch.PTEGlobal != 0,
		large:   large,
		domain:  domain,
		frame:   frame,
		flags:   flags,
		lastUse: t.clock,
	}
	t.stats.Insertions++
	return int32(victim)
}

func (t *linearTLB) flushed(n int) {
	t.stats.Flushes++
	t.stats.FlushedEntries += uint64(n)
}

func (t *linearTLB) FlushAll() {
	n := 0
	for i := range t.entries {
		if t.entries[i].valid {
			n++
		}
		t.entries[i] = Entry{}
	}
	t.flushed(n)
}

func (t *linearTLB) FlushASID(asid arch.ASID) {
	n := 0
	for i := range t.entries {
		e := &t.entries[i]
		if e.valid && !e.global && e.asid == asid {
			*e = Entry{}
			n++
		}
	}
	t.flushed(n)
}

func (t *linearTLB) FlushNonGlobal() int {
	n := 0
	for i := range t.entries {
		e := &t.entries[i]
		if e.valid && !e.global {
			*e = Entry{}
			n++
		}
	}
	t.flushed(n)
	return n
}

func (t *linearTLB) FlushGlobal() int {
	n := 0
	for i := range t.entries {
		e := &t.entries[i]
		if e.valid && e.global {
			*e = Entry{}
			n++
		}
	}
	t.flushed(n)
	return n
}

func (t *linearTLB) FlushVA(va arch.VirtAddr) int {
	vpn := arch.VPN(va)
	n := 0
	for i := range t.entries {
		e := &t.entries[i]
		if e.valid && e.vpn == vpn {
			*e = Entry{}
			n++
		}
	}
	t.flushed(n)
	return n
}

func (t *linearTLB) FlushRange(start, end arch.VirtAddr, asid arch.ASID) int {
	lo, hi := arch.VPN(start), arch.VPN(end-1)
	n := 0
	for i := range t.entries {
		e := &t.entries[i]
		if e.valid && e.vpn >= lo && e.vpn <= hi && (e.global || e.asid == asid) {
			*e = Entry{}
			n++
		}
	}
	t.flushed(n)
	return n
}
