// Package tlb models the translation lookaside buffers of a Cortex-A9
// class ARMv7 core: small micro-TLBs that are flushed on every context
// switch, backed by a unified main TLB whose entries carry an address
// space identifier (ASID), a global bit, and a domain field.
//
// The global bit asserts that a mapping is identical in all virtual
// address spaces: a global entry matches regardless of the current ASID.
// On every access the MMU checks the matching entry's domain field against
// the domain access control register (DACR); with no access the MMU raises
// a domain fault, with client access the entry's permission bits are
// checked, and with manager access permissions are overridden. The
// shared-TLB design of the paper places zygote-preloaded shared code in a
// dedicated zygote domain so that global entries loaded by zygote-like
// processes cannot be used by non-zygote processes.
//
// # Hot path
//
// Lookup and Insert are the innermost loop of the whole simulator: every
// simulated instruction probes a micro-TLB and, on a miss, the main TLB.
// Instead of scanning all entries per probe (the fully associative
// hardware does that in parallel; software cannot), the TLB keeps an
// index from the virtual page number to the few slots that can match:
//
//   - heads maps each bucket, a hash of key(vpn, large), to the lowest
//     slot whose key hashes there, and the per-slot same links chain the
//     bucket's other slots in ascending slot order. The holders of one
//     key (one VPN under several ASIDs, or a global and a private copy)
//     share a chain, and so may unrelated keys: match filters out the
//     slots that cannot apply. A probe walks the 4KB and the large-page
//     key's chains merged by slot, or their one chain once when both
//     keys share a bucket: the reference linear scan restricted to a
//     superset of the entries that can match, so aliasing cases stay
//     exact.
//   - a free-slot bitmap and a doubly-linked LRU list (exact, since
//     lastUse values are unique) make Insert's victim choice O(1), and
//     let flushes visit only the valid entries.
//
// The indexed paths are behaviourally identical to the reference linear
// implementation (reference_test.go) — same results, same entry states,
// same counters — which the differential property test in
// differential_test.go enforces over randomized operation sequences.
package tlb

import (
	"fmt"
	"math/bits"

	"repro/internal/arch"
	"repro/internal/obs"
)

// Entry is one TLB entry. For a large-page entry, vpn holds the
// effective (large-page-masked) page number, precomputed at insert time
// so match never recomputes the mask on the entry side.
type Entry struct {
	valid   bool
	vpn     uint32
	asid    arch.ASID
	global  bool
	large   bool
	domain  uint8
	frame   arch.FrameNum
	flags   arch.PTEFlags
	lastUse uint64
}

// Frame returns the physical frame the entry translates to.
func (e Entry) Frame() arch.FrameNum { return e.frame }

// Global reports whether the entry's global bit is set.
func (e Entry) Global() bool { return e.global }

// Domain returns the entry's domain field.
func (e Entry) Domain() uint8 { return e.domain }

// Flags returns the entry's permission and attribute bits.
func (e Entry) Flags() arch.PTEFlags { return e.flags }

// Large reports whether the entry maps a large page.
func (e Entry) Large() bool { return e.large }

// Result is the outcome of a TLB lookup.
type Result uint8

const (
	// Miss: no entry matches; a page table walk is required.
	Miss Result = iota
	// Hit: a matching entry passed the domain and permission checks.
	Hit
	// DomainFault: a matching entry's domain is denied by the DACR.
	// The faulting address is reported via FSR/FAR to the exception
	// handler (a prefetch abort for fetches, a data abort otherwise).
	DomainFault
	// PermFault: a matching entry in a client-access domain failed the
	// PTE permission check.
	PermFault
)

// String names the lookup result.
func (r Result) String() string {
	switch r {
	case Miss:
		return "miss"
	case Hit:
		return "hit"
	case DomainFault:
		return "domain fault"
	case PermFault:
		return "permission fault"
	default:
		return "unknown"
	}
}

// Stats counts TLB events.
type Stats struct {
	Hits           uint64
	Misses         uint64
	DomainFaults   uint64
	PermFaults     uint64
	Insertions     uint64
	Evictions      uint64
	Flushes        uint64
	FlushedEntries uint64
}

// TLB is one translation buffer, fully associative with LRU replacement.
type TLB struct {
	// DomainMatchInHW models the hardware support the paper asks future
	// processors for (Sections 3.2.3 and 6): when set, an entry whose
	// domain the current DACR denies simply does not match — the lookup
	// misses and the walker loads the process's own translation —
	// instead of raising a domain-fault exception that software must
	// handle by flushing the matching entries.
	DomainMatchInHW bool

	name    string
	entries []Entry
	clock   uint64
	stats   Stats
	bus     *obs.Bus

	// largeMask masks a VPN down to its large-page base: pagesPerLarge-1
	// for the owning architecture (15 on ARMv7's 64KB pages, 511 on
	// Sv39's 2MB megapages).
	largeMask uint32

	// Indexed fast path; see the package comment. heads[b] is the lowest
	// slot of bucket b's chain, or -1, and headShift is 32 minus log2 of
	// len(heads) (see bucket). same[s] is the next higher slot of slot
	// s's chain, or -1. validBits marks valid slots (phantom bits past
	// len(entries) are permanently set so the first-free scan never
	// reports them). lruPrev/lruNext thread the valid slots in recency
	// order: lruHead is the least and lruTail the most recently used.
	// same, lruPrev and lruNext are meaningful only for valid slots;
	// every insert rewrites them.
	heads     []int32
	headShift uint8
	same      []int32
	validBits []uint64
	numValid  int
	// numLarge counts the valid large-page entries. Most workload phases
	// hold none, so probes skip the large-page key's chain entirely when
	// it is zero.
	numLarge int
	lruPrev  []int32
	lruNext  []int32
	lruHead  int32
	lruTail  int32
}

// Compile-time check: every TLB is an obs.Source.
var _ obs.Source = (*TLB)(nil)

// New creates a TLB with the given number of entries. pagesPerLarge is
// the number of 4KB pages per large-page mapping on the owning
// architecture (arch.Geometry.PagesPerLarge), which determines how
// large-page entries mask the VPN on match.
func New(name string, entries, pagesPerLarge int) *TLB {
	if entries <= 0 {
		panic(fmt.Sprintf("tlb: non-positive size %d", entries))
	}
	if pagesPerLarge <= 0 {
		panic(fmt.Sprintf("tlb: non-positive pagesPerLarge %d", pagesPerLarge))
	}
	// Four buckets per entry, rounded up to a power of two, keep nearly
	// every chain down to the holders of one key.
	buckets, shift := 1, uint8(32)
	for buckets < 4*entries {
		buckets, shift = buckets<<1, shift-1
	}
	t := &TLB{
		name:      name,
		largeMask: uint32(pagesPerLarge - 1),
		entries:   make([]Entry, entries),
		heads:     make([]int32, buckets),
		headShift: shift,
		same:      make([]int32, entries),
		validBits: make([]uint64, (entries+63)/64),
		lruPrev:   make([]int32, entries),
		lruNext:   make([]int32, entries),
		lruHead:   -1,
		lruTail:   -1,
	}
	for i := range t.heads {
		t.heads[i] = -1
	}
	for i := entries; i < len(t.validBits)*64; i++ {
		t.validBits[i>>6] |= 1 << (i & 63)
	}
	return t
}

// Name returns the TLB's name (for diagnostics).
func (t *TLB) Name() string { return t.name }

// Size returns the number of entries.
func (t *TLB) Size() int { return len(t.entries) }

// Stats returns a snapshot of the counters.
func (t *TLB) Stats() Stats { return t.stats }

// AttachBus makes the TLB publish insert/evict/flush events to b. A nil
// bus detaches.
func (t *TLB) AttachBus(b *obs.Bus) { t.bus = b }

// Snapshot implements obs.Source.
func (t *TLB) Snapshot() map[string]uint64 {
	return map[string]uint64{
		"hits":            t.stats.Hits,
		"misses":          t.stats.Misses,
		"domain_faults":   t.stats.DomainFaults,
		"perm_faults":     t.stats.PermFaults,
		"insertions":      t.stats.Insertions,
		"evictions":       t.stats.Evictions,
		"flushes":         t.stats.Flushes,
		"flushed_entries": t.stats.FlushedEntries,
	}
}

// Reset implements obs.Source: it zeroes the counters without touching
// the entries.
func (t *TLB) Reset() { t.stats = Stats{} }

// flushed records one flush operation that invalidated n entries.
func (t *TLB) flushed(n int) {
	t.stats.Flushes++
	t.stats.FlushedEntries += uint64(n)
	if t.bus.Wants(obs.EvTLBFlush) {
		t.bus.Publish(obs.Event{Kind: obs.EvTLBFlush, Source: t.name, Value: uint64(n)})
	}
}

// entryKey packs an entry's index key: the stored (pre-masked) VPN and
// the large-page bit, so 4KB and 64KB entries never collide on a key.
func entryKey(vpn uint32, large bool) uint32 {
	k := vpn << 1
	if large {
		k |= 1
	}
	return k
}

// match reports whether entry e translates va under asid. A global entry
// ignores the ASID, per the architectural meaning of the global bit; a
// large-page entry matches on the large-page-aligned page number. Only
// the query VPN needs masking: e.vpn is pre-masked at insert time.
// largeMask is the owning TLB's large-page VPN mask.
func (e *Entry) match(vpn uint32, asid arch.ASID, largeMask uint32) bool {
	if !e.valid {
		return false
	}
	if e.large {
		vpn &^= largeMask
	}
	return e.vpn == vpn && (e.global || e.asid == asid)
}

// permit checks the entry's permission bits against the access kind.
func (e *Entry) permit(kind arch.AccessKind) bool {
	if e.flags&arch.PTEUser == 0 {
		return false
	}
	switch kind {
	case arch.AccessFetch:
		return e.flags&arch.PTEExec != 0
	case arch.AccessWrite:
		return e.flags&arch.PTEWrite != 0
	default:
		return true
	}
}

// --- index, bitmap, and LRU-list maintenance --------------------------------

// bucket returns the heads index of key k by Fibonacci hashing: the top
// bits of k times 2^32/φ.
func (t *TLB) bucket(k uint32) uint32 {
	return k * 2654435769 >> t.headShift
}

// idxAdd links the (valid) entry at slot into its bucket's chain,
// keeping the chain in ascending slot order.
func (t *TLB) idxAdd(slot int32) {
	e := &t.entries[slot]
	if e.large {
		t.numLarge++
	}
	h := &t.heads[t.bucket(entryKey(e.vpn, e.large))]
	p := *h
	if p < 0 || slot < p {
		t.same[slot], *h = p, slot
		return
	}
	for t.same[p] >= 0 && t.same[p] < slot {
		p = t.same[p]
	}
	t.same[slot], t.same[p] = t.same[p], slot
}

// idxRemove unlinks the (still valid) entry at slot from its bucket's
// chain.
func (t *TLB) idxRemove(slot int32) {
	e := &t.entries[slot]
	if e.large {
		t.numLarge--
	}
	h := &t.heads[t.bucket(entryKey(e.vpn, e.large))]
	if *h == slot {
		*h = t.same[slot]
		return
	}
	p := *h
	for t.same[p] != slot {
		p = t.same[p]
	}
	t.same[p] = t.same[slot]
}

// chains returns the heads of the chains a probe of vpn walks: the 4KB
// key's bucket and, while large entries are resident, the large-page
// key's. When both keys share a bucket, b is -1 so the walk visits that
// chain once.
func (t *TLB) chains(vpn uint32) (a, b int32) {
	// The keys spelled out (see entryKey) keep chains inlinable.
	ba := t.bucket(vpn << 1)
	a, b = t.heads[ba], -1
	if t.numLarge != 0 {
		if bb := t.bucket((vpn&^t.largeMask)<<1 | 1); bb != ba {
			b = t.heads[bb]
		}
	}
	return a, b
}

// pop returns the lower of the two chain cursors' slots and advances that
// cursor. Popping until both are -1 visits the slots of both chains in
// ascending order, the order of the reference scan.
func (t *TLB) pop(a, b *int32) int32 {
	s := *a
	if s < 0 || (*b >= 0 && *b < s) {
		s = *b
		*b = t.same[s]
	} else {
		*a = t.same[s]
	}
	return s
}

func (t *TLB) setValid(slot int32) {
	t.validBits[slot>>6] |= 1 << (slot & 63)
	t.numValid++
}

func (t *TLB) clearValid(slot int32) {
	t.validBits[slot>>6] &^= 1 << (slot & 63)
	t.numValid--
}

// lastFree returns the highest invalid slot — the reference scan lets
// every free slot it passes overwrite its victim choice, so the last one
// wins. The caller guarantees one exists (numValid < len(entries)); the
// phantom bits past len(entries) are permanently set and never reported.
func (t *TLB) lastFree() int32 {
	for w := len(t.validBits) - 1; w >= 0; w-- {
		if word := t.validBits[w]; word != ^uint64(0) {
			return int32(w<<6 + 63 - bits.LeadingZeros64(^word))
		}
	}
	panic("tlb: lastFree on full TLB")
}

func (t *TLB) lruPushBack(s int32) {
	t.lruPrev[s], t.lruNext[s] = t.lruTail, -1
	if t.lruTail >= 0 {
		t.lruNext[t.lruTail] = s
	} else {
		t.lruHead = s
	}
	t.lruTail = s
}

func (t *TLB) lruRemove(s int32) {
	p, n := t.lruPrev[s], t.lruNext[s]
	if p >= 0 {
		t.lruNext[p] = n
	} else {
		t.lruHead = n
	}
	if n >= 0 {
		t.lruPrev[n] = p
	} else {
		t.lruTail = p
	}
}

// removeEntry invalidates the entry at slot, maintaining every auxiliary
// structure.
func (t *TLB) removeEntry(slot int32) {
	t.idxRemove(slot)
	t.lruRemove(slot)
	t.clearValid(slot)
	t.entries[slot] = Entry{}
}

// hitAt applies the bookkeeping of a Hit on the entry at slot at the
// current clock: it becomes the most recently used entry.
func (t *TLB) hitAt(slot int32) {
	t.entries[slot].lastUse = t.clock
	if t.lruTail != slot {
		t.lruRemove(slot)
		t.lruPushBack(slot)
	}
	t.stats.Hits++
}

// probe applies the lookup logic of one scan step to the entry at slot,
// mutating nothing. done=false means the scan continues (no match, or
// domain-denied under hardware domain matching).
func (t *TLB) probe(slot int32, vpn uint32, asid arch.ASID, dacr arch.DACR, kind arch.AccessKind) (r Result, done bool) {
	ent := &t.entries[slot]
	if !ent.match(vpn, asid, t.largeMask) {
		return Miss, false
	}
	switch dacr.Access(ent.domain) {
	case arch.DomainNoAccess:
		if t.DomainMatchInHW {
			return Miss, false // hardware requires a domain match for a hit
		}
		return DomainFault, true
	case arch.DomainManager:
		return Hit, true
	default: // client: check PTE permission bits
		if !ent.permit(kind) {
			return PermFault, true
		}
		return Hit, true
	}
}

// Lookup searches for a translation of va under the current ASID and
// DACR, walking the probe chains in slot order. It ticks the clock; on a
// Hit it refreshes the matching entry's LRU state, and every result is
// counted. On a Hit or a fault it returns the matching entry and its
// slot, the handle CommitHit takes; on a Miss nil and -1. The entry is a
// pointer into the TLB's own array, valid until the TLB's next mutation;
// callers read it at once and never keep it.
func (t *TLB) Lookup(va arch.VirtAddr, asid arch.ASID, dacr arch.DACR, kind arch.AccessKind) (*Entry, int32, Result) {
	t.clock++
	vpn := arch.VPN(va)
	a, b := t.chains(vpn)
	for a >= 0 || b >= 0 {
		slot := t.pop(&a, &b)
		r, done := t.probe(slot, vpn, asid, dacr, kind)
		if !done {
			continue
		}
		switch r {
		case Hit:
			t.hitAt(slot)
		case DomainFault:
			t.stats.DomainFaults++
		case PermFault:
			t.stats.PermFaults++
		}
		return &t.entries[slot], slot, r
	}
	t.stats.Misses++
	return nil, -1, Miss
}

// CommitHit applies the bookkeeping of one more Lookup that hits the
// entry at slot, without the probe. The caller must know that such a
// Lookup would hit there: the slot is the one its own last Lookup hit
// or Insert filled, with no mutation of the TLB in between.
func (t *TLB) CommitHit(slot int32) {
	t.clock++
	t.hitAt(slot)
}

// findMatch returns the first slot (in slot order) whose entry matches
// (vpn, asid) and — under hardware domain matching — has the same global
// kind, or -1. This is Insert's overwrite target.
func (t *TLB) findMatch(vpn uint32, asid arch.ASID, newGlobal bool) int32 {
	a, b := t.chains(vpn)
	for a >= 0 || b >= 0 {
		slot := t.pop(&a, &b)
		if e := &t.entries[slot]; e.match(vpn, asid, t.largeMask) && !(t.DomainMatchInHW && e.global != newGlobal) {
			return slot
		}
	}
	return -1
}

// Insert loads a translation, evicting the LRU entry when full. If an
// entry already translates (vpn, asid/global) it is overwritten in place.
// It returns the slot the translation now occupies.
func (t *TLB) Insert(va arch.VirtAddr, asid arch.ASID, frame arch.FrameNum, flags arch.PTEFlags, domain uint8) int32 {
	t.clock++
	vpn := arch.VPN(va)
	newGlobal := flags&arch.PTEGlobal != 0

	// Victim precedence, as in the reference scan: a matching entry,
	// else the highest free slot, else the LRU entry — skipping, under
	// hardware domain matching, matching entries of the other global
	// kind (they coexist rather than being replaced). When every entry
	// is skipped the reference scan leaves its initial victim, slot 0.
	victim := t.findMatch(vpn, asid, newGlobal)
	if victim < 0 {
		if t.numValid < len(t.entries) {
			victim = t.lastFree()
		} else {
			victim = t.lruHead
			if t.DomainMatchInHW {
				for victim >= 0 && t.entries[victim].match(vpn, asid, t.largeMask) && t.entries[victim].global != newGlobal {
					victim = t.lruNext[victim]
				}
				if victim < 0 {
					victim = 0
				}
			}
		}
	}

	if t.entries[victim].valid && !t.entries[victim].match(vpn, asid, t.largeMask) {
		t.stats.Evictions++
		if t.bus.Wants(obs.EvTLBEvict) {
			v := &t.entries[victim]
			t.bus.Publish(obs.Event{
				Kind:   obs.EvTLBEvict,
				Source: t.name,
				Addr:   uint64(v.vpn) << arch.PageShift,
				Value:  uint64(v.asid),
			})
		}
	}
	if t.entries[victim].valid {
		t.removeEntry(victim)
	}
	large := flags&arch.PTELarge != 0
	if large {
		vpn &^= t.largeMask
	}
	// Field stores into the slot, rather than one composite-literal
	// store, keep the entry out of a stack temporary.
	e := &t.entries[victim]
	e.valid, e.vpn, e.asid = true, vpn, asid
	e.global, e.large, e.domain = newGlobal, large, domain
	e.frame, e.flags, e.lastUse = frame, flags, t.clock
	t.idxAdd(victim)
	t.setValid(victim)
	t.lruPushBack(victim)
	t.stats.Insertions++
	if t.bus.Wants(obs.EvTLBInsert) {
		t.bus.Publish(obs.Event{
			Kind:   obs.EvTLBInsert,
			Source: t.name,
			Addr:   uint64(va),
			Value:  uint64(asid),
		})
	}
	return victim
}

// FlushAll invalidates every entry. Only the valid entries are visited.
func (t *TLB) FlushAll() {
	n := t.numValid
	for s := t.lruHead; s >= 0; s = t.lruNext[s] {
		e := &t.entries[s]
		t.heads[t.bucket(entryKey(e.vpn, e.large))] = -1
		t.validBits[s>>6] &^= 1 << (s & 63)
		*e = Entry{}
	}
	t.numValid, t.numLarge = 0, 0
	t.lruHead, t.lruTail = -1, -1
	t.flushed(n)
}

// removeIf invalidates the valid entries cond selects and records the
// flush. It visits only the valid slots, in LRU order; the order of
// removal affects no observable state.
func (t *TLB) removeIf(cond func(e *Entry) bool) int {
	n := 0
	for s := t.lruHead; s >= 0; {
		next := t.lruNext[s]
		if cond(&t.entries[s]) {
			t.removeEntry(s)
			n++
		}
		s = next
	}
	t.flushed(n)
	return n
}

// FlushASID invalidates the non-global entries of one address space.
// Global entries survive: that is precisely what lets zygote-like
// processes retain each other's shared-code translations.
func (t *TLB) FlushASID(asid arch.ASID) {
	t.removeIf(func(e *Entry) bool { return !e.global && e.asid == asid })
}

// FlushNonGlobal invalidates every non-global entry, regardless of ASID.
// The shared-TLB kernel uses this on context switches between zygote-like
// processes when ASIDs are disabled: the global entries for
// zygote-preloaded shared code are identical in every zygote-like address
// space (and domain protection locks other processes out), so only the
// private translations must go.
func (t *TLB) FlushNonGlobal() int {
	return t.removeIf(func(e *Entry) bool { return !e.global })
}

// FlushGlobal invalidates every global entry, regardless of ASID — the
// inverse of FlushNonGlobal. On architectures without domain protection
// (Sv39), the shared-TLB kernel has no DACR to lock non-sharing
// processes out of the sharing set's global entries, so a switch to such
// a process must evict them; this models the software cost that replaces
// the ARM domain trick.
func (t *TLB) FlushGlobal() int {
	return t.removeIf(func(e *Entry) bool { return e.global })
}

// FlushVA invalidates every entry matching the given virtual address,
// regardless of ASID or global bit. The domain-fault handler uses this to
// evict the global entries a non-zygote process tripped over. An entry is
// affected exactly when its stored VPN equals VPN(va), so the affected
// entries are the holders of that VPN's two keys, found on their
// buckets' chains.
func (t *TLB) FlushVA(va arch.VirtAddr) int {
	vpn := arch.VPN(va)
	n := 0
	for _, k := range [2]uint32{entryKey(vpn, false), entryKey(vpn, true)} {
		for s := t.heads[t.bucket(k)]; s >= 0; {
			next := t.same[s]
			if e := &t.entries[s]; entryKey(e.vpn, e.large) == k {
				t.removeEntry(s)
				n++
			}
			s = next
		}
	}
	t.flushed(n)
	return n
}

// FlushRange invalidates entries translating any page in [start, end).
func (t *TLB) FlushRange(start, end arch.VirtAddr, asid arch.ASID) int {
	lo, hi := arch.VPN(start), arch.VPN(end-1)
	return t.removeIf(func(e *Entry) bool {
		return e.vpn >= lo && e.vpn <= hi && (e.global || e.asid == asid)
	})
}
