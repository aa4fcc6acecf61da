// Package cache models the processor cache hierarchy of the evaluation
// platform: per-core 32KB L1 instruction and data caches backed by a
// shared 1MB L2, all physically tagged.
//
// The hierarchy matters to shared address translation because hardware
// page-table walks triggered by TLB misses load page-table entries through
// the caches (into the L2, and on ARMv7 also the L1 data cache). With a
// private page table per process, multiple copies of a PTE mapping the
// same physical page occupy distinct cache lines, displacing other data;
// with shared page-table pages all processes walk the same physical PTE
// words and the duplicates disappear. The simulator exposes physical
// addresses for PTE words precisely so this effect is reproduced.
//
// Each level keeps one 64-byte record per set. An access is one
// fingerprint probe of its set's record, and a miss replaces the set's
// LRU way, read from the record's age matrix. AccessRun issues runs of
// consecutive lines, and memoizes repeats of a run that wraps the set
// index space.
package cache

import (
	"fmt"
	"math/bits"

	"repro/internal/alloc"
	"repro/internal/arch"
	"repro/internal/obs"
)

// Config describes one cache level.
type Config struct {
	// Name identifies the cache in diagnostics ("L1I", "L1D", "L2").
	Name string
	// Size is the capacity in bytes.
	Size int
	// LineSize is the line size in bytes (a power of two).
	LineSize int
	// Assoc is the set associativity.
	Assoc int
	// HitLatency is the access latency in cycles when the line is
	// present at this level.
	HitLatency int
}

// Stats counts cache events at one level.
type Stats struct {
	Accesses  uint64
	Hits      uint64
	Misses    uint64
	Evictions uint64
}

// tagInvalid marks an empty way. Real tags are physical addresses
// shifted right by at least the line-size bits, so they never reach it.
const tagInvalid = ^uint32(0)

// colOnes has bit 0 of every byte set: shifted left by w it selects
// column w of an age matrix, and it is the per-byte borrow seed for the
// zero-byte search in the victim pick.
const colOnes = uint64(0x0101010101010101)

// cset is one set's complete state, laid out to fill one 64-byte host
// cache line so a probe and a fill each touch exactly one line of host
// memory.
type cset struct {
	// tags holds the resident tags, tagInvalid for empty ways. Ways at
	// and beyond assoc stay tagInvalid.
	tags [8]uint32
	// age is the set's LRU age matrix: bit j of byte i set means way i
	// was used more recently than way j. Rows and columns beyond assoc
	// stay zero.
	age uint64
	// fp packs one 8-bit fingerprint per way (byte w for way w), derived
	// from the tag bits above the set index (see fingerprint). A probe
	// compares all of them at once and confirms only the candidates
	// against their full tags. Bytes of empty ways are zero; their
	// tagInvalid tags reject any candidate there.
	fp uint64
	// used counts the valid ways, which always form the prefix
	// [0, used): a fill takes the first empty way, and the only
	// invalidation (FlushAll) empties every way at once. A fill into a
	// set that is not full therefore needs no search.
	used uint8
	// The padding makes the record exactly one 64-byte host line.
	_ [15]byte
}

// emptySet is the state of a set with no valid line.
var emptySet = cset{
	tags: [8]uint32{tagInvalid, tagInvalid, tagInvalid, tagInvalid, tagInvalid, tagInvalid, tagInvalid, tagInvalid},
}

// Cache is one level of a physically indexed, physically tagged cache
// with LRU replacement within each set.
//
// Each set is one 64-byte record (cset) holding its tags, its age
// matrix, its tag fingerprints and its valid-way count, so every path
// through one set touches one host cache line. A probe compares the
// query's 8-bit fingerprint against all ways' fingerprints in one word
// operation and confirms only the candidate ways against their full
// tags, so a miss usually reads no tag at all. Victim selection (the
// first empty way, which is way used, else the LRU way) is deferred to
// a miss. The probe (find), the fill (victim, install) and the
// next-level access (below) are small enough to inline, so Access and
// the run loop share one copy of each and neither pays a call per line.
//
// Within-set recency is the hardware age-matrix LRU scheme: one 64-bit
// word per set holds an 8x8 bit matrix where bit j of byte i means "way
// i used more recently than way j". Recording a use is two masked
// bit-ops on one word — set row w, clear column w — with no search, no
// clock, and no stamp array; the LRU victim is the unique valid way
// whose row is all zero, found branch-free with the zero-byte trick.
// The matrix induces exactly the order unique last-use timestamps
// would (bit[i][j] records every pairwise "later than"), so victim
// choice is identical to the stamped reference implementation — the
// differential test pins this — at one word per set instead of a word
// per way.
type Cache struct {
	cfg Config
	// sets holds one record per set. Flat indexing saves the dependent
	// slice-header load a [][]way layout pays on every access, and
	// cloning is one flat copy.
	sets  []cset
	assoc int
	// dirty is the fused-run memo bitmap: while runN != 0, a clear bit si
	// asserts that set si is at the fixed point of the run described by
	// (runTag0, runN) — re-running its lines would mutate nothing (see
	// accessRunFused). Every access to a set sets its bit (markDirty);
	// the fused engine re-verifies dirty sets and clears the bits that
	// check out. It stays outside the set records so the fused engine
	// skips 64 clean sets per bitmap word. It is not serialized: a
	// restored level starts with no memo, and re-verifying a set already
	// at a run's fixed point mutates nothing.
	dirty   []uint64
	runTag0 uint32
	runN    uint32
	// colsAll masks the valid columns (low assoc bits) of every byte of
	// an age word, so the victim search compares ways only against the
	// ways that exist.
	colsAll uint64
	// waysHigh has the high bit of each byte below assoc set: it keeps
	// the fingerprint match to the ways that exist.
	waysHigh uint64
	// fpShift is the number of set-index bits: tag>>fpShift are the tag
	// bits the set index does not already fix, the fingerprint's source.
	fpShift uint
	// hitLat duplicates cfg.HitLatency as a flat field so the hit paths
	// never load through the wide Config struct.
	hitLat     int
	setShift   uint
	setMask    uint32
	next       *Cache
	memLatency int
	stats      Stats
	bus        *obs.Bus
}

// Compile-time check: every Cache is an obs.Source.
var _ obs.Source = (*Cache)(nil)

// New creates a cache level. next is the lower level; when next is nil a
// miss at this level costs memLatency additional cycles (main memory).
func New(cfg Config, next *Cache, memLatency int) *Cache {
	if cfg.Size <= 0 || cfg.LineSize <= 0 || cfg.Assoc <= 0 {
		panic(fmt.Sprintf("cache %s: invalid config %+v", cfg.Name, cfg))
	}
	if cfg.LineSize&(cfg.LineSize-1) != 0 {
		panic(fmt.Sprintf("cache %s: line size %d not a power of two", cfg.Name, cfg.LineSize))
	}
	nSets := cfg.Size / (cfg.LineSize * cfg.Assoc)
	if nSets <= 0 || nSets&(nSets-1) != 0 {
		panic(fmt.Sprintf("cache %s: set count %d not a positive power of two", cfg.Name, nSets))
	}
	if cfg.Assoc > 8 {
		panic(fmt.Sprintf("cache %s: associativity %d exceeds the 8 ways one set record holds", cfg.Name, cfg.Assoc))
	}
	ways := uint64(1)<<(8*uint(cfg.Assoc)) - 1 // low assoc bytes; 0 - 1 for 8 ways
	c := &Cache{
		cfg:        cfg,
		sets:       make([]cset, nSets),
		assoc:      cfg.Assoc,
		dirty:      make([]uint64, (nSets+63)/64),
		colsAll:    (uint64(1)<<uint(cfg.Assoc) - 1) * colOnes,
		waysHigh:   ways & 0x8080808080808080,
		fpShift:    uint(bits.TrailingZeros(uint(nSets))),
		hitLat:     cfg.HitLatency,
		setShift:   uint(bits.TrailingZeros(uint(cfg.LineSize))),
		setMask:    uint32(nSets - 1),
		next:       next,
		memLatency: memLatency,
	}
	for i := range c.sets {
		c.sets[i] = emptySet
	}
	return c
}

// fingerprint returns tag's 8-bit fingerprint, replicated into every
// byte of the result: the 16 tag bits above the set index, folded.
func (c *Cache) fingerprint(tag uint32) uint64 {
	t := tag >> c.fpShift
	return uint64(uint8(t)^uint8(t>>8)) * colOnes
}

// candidates returns the high bit of every byte of set s's fingerprint
// word that may hold the tag whose replicated fingerprint is f: every
// way whose fingerprint equals f is reported, and a few others may be
// (the zero-byte trick's borrow can flag a byte above a true match), so
// each candidate must be confirmed against its full tag.
func (c *Cache) candidates(s *cset, f uint64) uint64 {
	x := s.fp ^ f
	return (x - colOnes) &^ x & c.waysHigh
}

// Name returns the configured name.
func (c *Cache) Name() string { return c.cfg.Name }

// Stats returns a snapshot of this level's counters.
func (c *Cache) Stats() Stats { return c.stats }

// AttachBus makes the cache publish fill/evict events to b. A nil bus
// detaches. The bus applies to this level only; attach each level of a
// hierarchy separately (or use Hierarchy.AttachBus).
func (c *Cache) AttachBus(b *obs.Bus) { c.bus = b }

// Snapshot implements obs.Source.
func (c *Cache) Snapshot() map[string]uint64 {
	return map[string]uint64{
		"accesses":  c.stats.Accesses,
		"hits":      c.stats.Hits,
		"misses":    c.stats.Misses,
		"evictions": c.stats.Evictions,
	}
}

// Reset implements obs.Source: it zeroes the counters without
// invalidating any lines.
func (c *Cache) Reset() { c.stats = Stats{} }

// Access references the line containing pa, filling it on a miss, and
// returns the total latency in cycles including any lower-level accesses.
func (c *Cache) Access(pa arch.PhysAddr) int {
	c.stats.Accesses++
	tag := uint32(pa) >> c.setShift
	si := tag & c.setMask
	c.markDirty(si)
	s := &c.sets[si]
	f := c.fingerprint(tag)
	if w, ok := c.find(s, tag, f); ok {
		s.age = touched(s.age, w)
		c.stats.Hits++
		return c.hitLat
	}
	c.stats.Misses++
	lat := c.hitLat + c.below(pa)
	w, evicted := c.victim(s)
	install(s, w, tag, f)
	if evicted {
		c.stats.Evictions++
	}
	if c.observed() {
		c.announce(pa, evicted)
	}
	return lat
}

// markDirty records that set si may have left the fixed point of the
// memoized run. While runN == 0 no memo exists to protect — the first
// AccessRun rebuilds the bitmap all-dirty — so pure-scalar paths skip
// the bookkeeping.
func (c *Cache) markDirty(si uint32) {
	if c.runN != 0 {
		c.dirty[si>>6] |= 1 << (si & 63)
	}
}

// find returns the way of set s that holds tag, whose replicated
// fingerprint is f: the fingerprint match names the candidate ways and
// each is confirmed against its full tag.
func (c *Cache) find(s *cset, tag uint32, f uint64) (uint, bool) {
	for cand := c.candidates(s, f); cand != 0; cand &= cand - 1 {
		w := uint(bits.TrailingZeros64(cand)) >> 3 & 7
		if s.tags[w] == tag {
			return w, true
		}
	}
	return 0, false
}

// touched returns age with a use of way w recorded: way w becomes more
// recent than every other way (set row w), and no way remains more
// recent than w (clear column w). Setting the row also sets bit [w][w];
// clearing the column clears it again, keeping the diagonal zero.
func touched(age uint64, w uint) uint64 {
	w &= 7 // proves both shifts < 64, so no oversized-shift guards
	return (age | 0xFF<<(8*w)) &^ (colOnes << w)
}

// victim returns the way a miss on set s fills, and whether the fill
// evicts the line there. The first empty way wins — the valid ways are
// the prefix [0, used) — otherwise the set is full and the victim is
// the LRU way: the unique valid way whose age-matrix row is all zero.
// The zero-byte trick marks the high bit of the lowest zero byte; any
// parked all-zero rows above assoc sit in higher bytes, so
// TrailingZeros lands on the real victim.
func (c *Cache) victim(s *cset) (uint, bool) {
	if w := uint(s.used); w < uint(c.assoc) {
		return w, false
	}
	y := s.age & c.colsAll
	return uint(bits.TrailingZeros64((y-colOnes)&^y&0x8080808080808080)) >> 3, true
}

// install puts tag, with replicated fingerprint f, in way w of set s —
// the way victim named — and records its use.
func install(s *cset, w uint, tag uint32, f uint64) {
	w &= 7
	if s.tags[w] == tagInvalid { // the first empty way joins the valid prefix
		s.used++
	}
	s.tags[w] = tag
	m := uint64(0xFF) << (8 * w)
	s.fp = s.fp&^m | f&m
	s.age = touched(s.age, w)
}

// below returns the latency of fetching pa's line into this level after
// a miss: an access to the next level, or main memory's latency.
func (c *Cache) below(pa arch.PhysAddr) int {
	if c.next != nil {
		return c.next.Access(pa)
	}
	return c.memLatency
}

// observed reports whether the attached bus wants a miss's events, so
// an unobserved miss makes no call to announce them.
func (c *Cache) observed() bool {
	return c.bus.Wants(obs.EvCacheFill) || c.bus.Wants(obs.EvCacheEvict)
}

// announce publishes the events of a miss at pa to the attached bus:
// the eviction, when the fill evicted a line, then the fill.
func (c *Cache) announce(pa arch.PhysAddr, evicted bool) {
	if evicted && c.bus.Wants(obs.EvCacheEvict) {
		c.bus.Publish(obs.Event{Kind: obs.EvCacheEvict, Source: c.cfg.Name, Addr: uint64(pa)})
	}
	if c.bus.Wants(obs.EvCacheFill) {
		c.bus.Publish(obs.Event{Kind: obs.EvCacheFill, Source: c.cfg.Name, Addr: uint64(pa)})
	}
}

// AccessRun references n consecutive lines starting with the one holding
// pa — exactly equivalent to n Access calls at pa, pa+LineSize,
// pa+2*LineSize, ... — and returns the accumulated stall cycles beyond
// one pipelined cycle per access, Σ max(latency-1, 0). It exists for the
// simulator's sequential-fetch loops (straight-line blocks, kernel fault
// paths), where it keeps the per-line work inside one frame instead of
// re-entering Access per line.
//
// Runs that wrap the set index space go through accessRunFused, which
// proves whole sets are already in their post-run state and skips them
// without a single store, issuing the remaining lines in stream order
// (see its comment); short runs take the plain in-order loop. Both
// are exact with or without event subscribers at either level.
func (c *Cache) AccessRun(pa arch.PhysAddr, n int) int {
	if n <= 0 {
		return 0
	}
	// The fused engine's per-set fast path needs sets to see two lines of
	// the run — it only pays off when the run wraps the set index space.
	// Short runs — the overwhelmingly common straight-line block of a few
	// lines — run the plain loop.
	if n > int(c.setMask)+1 {
		return c.accessRunFused(pa, n)
	}
	return c.accessRunScalar(pa, n)
}

// accessRunScalar is the in-order loop: Access's probe, fill and
// next-level access inlined per line, events in stream order, and the
// counters kept in locals and stored once at the end of the run.
func (c *Cache) accessRunScalar(pa arch.PhysAddr, n int) int {
	tag := uint32(pa) >> c.setShift
	lineSize := arch.PhysAddr(1) << c.setShift
	hitStall := max(c.hitLat-1, 0)
	stall, misses, evictions := 0, 0, 0
	for i := 0; i < n; i++ {
		si := tag & c.setMask
		c.markDirty(si)
		s := &c.sets[si]
		f := c.fingerprint(tag)
		if w, ok := c.find(s, tag, f); ok {
			s.age = touched(s.age, w)
			stall += hitStall
		} else {
			misses++
			if lat := c.hitLat + c.below(pa); lat > 1 {
				stall += lat - 1
			}
			w, evicted := c.victim(s)
			install(s, w, tag, f)
			if evicted {
				evictions++
			}
			if c.observed() {
				c.announce(pa, evicted)
			}
		}
		tag++
		pa += lineSize
	}
	c.stats.Accesses += uint64(n)
	c.stats.Hits += uint64(n - misses)
	c.stats.Misses += uint64(misses)
	c.stats.Evictions += uint64(evictions)
	return stall
}

// accessRunFused executes a wrapping run in stream order with a
// zero-store fast path for sets that are already in their post-run
// state.
//
// The engine exploits a fixed-point property of the run's effect on one
// set. A set receiving lines A then B (k = 2) that are both resident
// ends with its age word equal to touched(touched(age, wayA), wayB). The
// touch sequence is idempotent — a second application passes the
// untouched rows through unchanged and rewrites rows/columns A and B to
// the same values — so if the set is ALREADY in exactly that end state,
// re-running its lines changes nothing: both hit, and the age word maps
// to itself. The set's whole contribution reduces to counters: k
// accesses, k hits, k*(hitLat-1) stall cycles. A set receiving one line
// (k = 1) is likewise at its fixed point when the line is resident and
// already its most recent.
//
// The fixed-point check is cheap — the expected tags are derived from
// (pa, n), and the age fixed point is recomputed in a handful of ALU
// ops — but the dominant caller replays one identical run hundreds of
// thousands of times, and even the check is too much work to repeat per
// set per run. The dirty bitmap amortizes it: after a full pass has
// verified (or repaired, via the scalar per-line path) every set, a
// clear bit si vouches that set si is still at the run's fixed point,
// because every access to a set — from scalar accesses or other runs —
// sets the bit. A repeat of the memoized run therefore issues only the
// lines of the sets dirtied since the last one, skipping clean sets 64
// at a time at the bitmap word level, and re-verifies each dirty set
// right after its last line, clearing bits that check out. When no bit
// is set at all the run costs one scan of the bitmap. Changing the run
// shape (a different tag0 or n) discards the memo and forces a full
// verification pass, since a fixed point of one run says nothing about
// another.
//
// The dirty lines are issued in stream order. Line j of the run lands
// in set (tag0+j)&mask, so the run is a sequence of passes, each one
// rotated sweep over the sets starting at the run's first set; the
// engine walks pass by pass and, within a pass, the dirty sets of the
// sweep in rotated order. Skipping the clean sets commutes with
// everything else: a clean set mutates nothing across the run, never
// reaches the next level and publishes no event, and nothing else
// touches its state while the run executes. The remaining lines — with
// their next-level accesses and their fill/evict events — therefore
// occur in exactly the order of the in-order loop, whatever subscribes
// to either level and however the run maps onto the next level's sets.
//
// A set receiving three or more lines is never memoized: its bit stays
// set and its lines run on every repeat.
func (c *Cache) accessRunFused(pa arch.PhysAddr, n int) int {
	tag0 := uint32(pa) >> c.setShift
	un := uint32(n)
	nSets := uint32(c.setMask) + 1
	if c.runTag0 != tag0 || c.runN != un {
		// New run shape: every set must be verified once before the
		// bitmap can vouch for it. Mark only real sets — for a cache
		// smaller than one bitmap word, stray high bits would alias
		// valid sets through the index mask.
		c.runTag0, c.runN = tag0, un
		for i := range c.dirty {
			c.dirty[i] = ^uint64(0)
		}
		if nSets < 64 {
			c.dirty[0] = 1<<nSets - 1
		}
	}
	stall := 0
	var dirtyLines uint32
	var anyDirty uint64
	for _, w := range c.dirty {
		anyDirty |= w
	}
	if anyDirty != 0 {
		// Pass p issues lines [p*nSets, min(n, (p+1)*nSets)): the sets from
		// the run's first set s0 up to the top of the index space, then —
		// for a pass that wraps — the sets from 0 up. j is the line the
		// pass issues to set s0.
		s0 := tag0 & c.setMask
		lastTag := tag0 + un - nSets // lines from here on end their set
		for j, k := uint32(0), uint32(1); j < un; j, k = j+nSets, k+1 {
			span := min(un-j, nSets)
			lpa := pa + arch.PhysAddr(j)<<c.setShift
			hi := min(s0+span, nSets)
			st, lines := c.sweepDirty(lpa, tag0+j, s0, hi, k, lastTag)
			stall, dirtyLines = stall+st, dirtyLines+lines
			if wrap := hi - s0; wrap < span {
				lpa += arch.PhysAddr(wrap) << c.setShift
				st, lines = c.sweepDirty(lpa, tag0+j+wrap, 0, span-wrap, k, lastTag)
				stall, dirtyLines = stall+st, dirtyLines+lines
			}
		}
	}
	// Clean sets contribute only counters: every line hits.
	cleanLines := uint64(un - dirtyLines)
	c.stats.Accesses += cleanLines
	c.stats.Hits += cleanLines
	if c.hitLat > 1 {
		stall += int(cleanLines) * (c.hitLat - 1)
	}
	return stall
}

// sweepDirty issues, in ascending set order, one line to each dirty set
// of [lo, hi): the line with tag tag+(si-lo) at pa+(si-lo)*LineSize, the
// k-th line of its set. It returns the stall cycles and the number of
// lines issued. Clean sets are skipped a bitmap word at a time.
//
// A line among the nSets from lastTag on (compared wrap-safely, like
// every tag offset here) is its set's last line of the run, so the
// set's state is final: a set of k <= 2 lines is re-verified against
// the run's fixed point on the spot (see atFixedPoint), and its bit
// cleared when it checks out (the line just issued re-marked it dirty)
// so the next identical run skips it.
func (c *Cache) sweepDirty(pa arch.PhysAddr, tag, lo, hi, k, lastTag uint32) (stall int, lines uint32) {
	for w := lo >> 6; w<<6 < hi; w++ {
		word := c.dirty[w]
		if w<<6 < lo {
			word &= ^uint64(0) << (lo & 63)
		}
		if (w+1)<<6 > hi {
			word &= 1<<(hi&63) - 1
		}
		for word != 0 {
			b := uint32(bits.TrailingZeros64(word))
			word &= word - 1
			si := w<<6 + b
			d := si - lo
			t := tag + d
			if lat := c.Access(pa + arch.PhysAddr(d)<<c.setShift); lat > 1 {
				stall += lat - 1
			}
			lines++
			if t-lastTag <= c.setMask && k <= 2 && c.atFixedPoint(&c.sets[si], t, k) {
				c.dirty[w] &^= 1 << b
			}
		}
	}
	return stall, lines
}

// atFixedPoint reports whether set s, which has just received line t,
// the last of the k lines a run gives it, is at that run's fixed point
// (see accessRunFused): each of the set's lines t-(k-1)*nSets, ..., t
// is resident, and touching their ways in run order leaves the age word
// unchanged.
func (c *Cache) atFixedPoint(s *cset, t, k uint32) bool {
	age := s.age
	for j := k; j > 0; j-- {
		tag := t - (j-1)*(c.setMask+1)
		w, ok := c.find(s, tag, c.fingerprint(tag))
		if !ok {
			return false
		}
		age = touched(age, w)
	}
	return age == s.age
}

// FlushAll invalidates every line at this level only.
func (c *Cache) FlushAll() {
	for i := range c.sets {
		c.sets[i] = emptySet
	}
	c.runN = 0 // every fused-run fixed point is gone with the lines
}

// Clone returns a deep copy of this level for a checkpoint fork, wired
// to the given lower level and event bus. The set records are one flat
// copy and the memo bitmap another; nothing is allocated per line or
// per set. The
// header struct comes from a when one is supplied (the per-machine
// clone arena); nil allocates it directly.
func (c *Cache) Clone(next *Cache, bus *obs.Bus, a *alloc.Arena[Cache]) *Cache {
	var d *Cache
	if a != nil {
		d = a.New()
	} else {
		d = new(Cache)
	}
	*d = *c
	d.sets = append([]cset(nil), c.sets...)
	d.dirty = append([]uint64(nil), c.dirty...)
	d.next = next
	d.bus = bus
	return d
}

// Hierarchy bundles the three-level cache system of one simulated core
// complex: private L1I/L1D in front of a shared L2.
type Hierarchy struct {
	L1I *Cache
	L1D *Cache
	L2  *Cache
}

// DefaultHierarchy builds the Nexus 7 (Tegra 3 / Cortex-A9) cache system:
// 32KB 4-way L1I and L1D with 32-byte lines, and a 1MB 8-way shared L2.
func DefaultHierarchy() *Hierarchy {
	return HierarchyWithL2(DefaultL2())
}

// DefaultL2 builds the shared 1MB 8-way L2.
func DefaultL2() *Cache {
	return New(Config{Name: "L2", Size: 1 << 20, LineSize: 32, Assoc: 8, HitLatency: 10}, nil, 50)
}

// HierarchyWithL2 builds one core's private L1I/L1D in front of an
// existing L2 — the Tegra 3 arrangement, where all four cores share the
// 1MB L2. Several hierarchies built over the same L2 model an SMP.
func HierarchyWithL2(l2 *Cache) *Hierarchy {
	l1i := New(Config{Name: "L1I", Size: 32 << 10, LineSize: 32, Assoc: 4, HitLatency: 1}, l2, 0)
	l1d := New(Config{Name: "L1D", Size: 32 << 10, LineSize: 32, Assoc: 4, HitLatency: 1}, l2, 0)
	return &Hierarchy{L1I: l1i, L1D: l1d, L2: l2}
}

// CloneWithL2 clones one core's private L1 levels over an already-cloned
// shared L2, for checkpoint forks of SMP machines: clone the L2 once,
// then each core's hierarchy over it.
func (h *Hierarchy) CloneWithL2(l2 *Cache, bus *obs.Bus, a *alloc.Arena[Cache]) *Hierarchy {
	return &Hierarchy{L1I: h.L1I.Clone(l2, bus, a), L1D: h.L1D.Clone(l2, bus, a), L2: l2}
}

// Fetch accesses pa through the instruction side and returns the latency.
func (h *Hierarchy) Fetch(pa arch.PhysAddr) int { return h.L1I.Access(pa) }

// FetchRun accesses n consecutive lines through the instruction side —
// equivalent to n Fetch calls one line apart — and returns the
// accumulated stall cycles beyond one pipelined cycle per line.
func (h *Hierarchy) FetchRun(pa arch.PhysAddr, n int) int { return h.L1I.AccessRun(pa, n) }

// Data accesses pa through the data side and returns the latency.
func (h *Hierarchy) Data(pa arch.PhysAddr) int { return h.L1D.Access(pa) }

// Walk models one page-table-walk memory reference: the hardware walker
// loads the PTE word through the L2 cache and, as on ARMv7 Cortex-A9,
// allocates it into the L1 data cache as well.
func (h *Hierarchy) Walk(pa arch.PhysAddr) int { return h.L1D.Access(pa) }

// FlushAll empties all three levels.
func (h *Hierarchy) FlushAll() {
	h.L1I.FlushAll()
	h.L1D.FlushAll()
	h.L2.FlushAll()
}

// AttachBus attaches all three levels to b.
func (h *Hierarchy) AttachBus(b *obs.Bus) {
	h.L1I.AttachBus(b)
	h.L1D.AttachBus(b)
	h.L2.AttachBus(b)
}
