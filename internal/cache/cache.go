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

// mruReg is one set's two-entry MRU register: the last two tags that hit
// or filled, with the ways they reside in.
type mruReg struct {
	tag  uint32
	tag2 uint32
	way  uint8
	way2 uint8
}

// cset is one set's complete state, laid out to fill one 64-byte host
// cache line so a probe, a fill and a register hit each touch exactly
// one line of host memory.
type cset struct {
	// tags holds the resident tags, tagInvalid for empty ways. Ways at
	// and beyond assoc stay tagInvalid.
	tags [8]uint32
	// age is the set's LRU age matrix: bit j of byte i set means way i
	// was used more recently than way j. Rows and columns beyond assoc
	// stay zero. First-slot MRU hits deliberately skip the update — the
	// MRU way's row is already full — so the word is only touched when
	// recency actually changes.
	age uint64
	// fp packs one 8-bit fingerprint per way (byte w for way w), derived
	// from the tag bits above the set index (see fingerprint). A probe
	// compares all of them at once and confirms only the candidates
	// against their full tags. Bytes of empty ways are zero; their
	// tagInvalid tags reject any candidate there.
	fp uint64
	// mru holds the set's two most-recent tags and the ways they live in.
	// Sequential kernel-text fetch alternates exactly two tags per set
	// (text twice the L1I's per-way capacity), so a single MRU register
	// misses every time; the two-entry register catches that pattern
	// without probing the set. Unlike a first-slot hit, a second-slot hit
	// must refresh its way's age row — hence the way indices. Invariant:
	// a valid tag in either slot is resident in its set at the recorded
	// way, so a match is a hit with no probe; the first slot's way is
	// additionally the set's most recent, which is what lets a
	// first-slot hit skip the age update entirely.
	mru mruReg
	// skip counts the set's consecutive MRU-register misses, saturating
	// at mruSkipThreshold, where the register goes dead (see the const).
	// Not serialized: like the register contents it is transparent
	// acceleration state, and a restored machine starting from a zero
	// streak is behaviour-identical to the captured one.
	skip uint8
	// used counts the valid ways, which always form the prefix
	// [0, used): a fill takes the first empty way, and the only
	// invalidation (FlushAll) empties every way at once. A fill into a
	// set that is not full therefore needs no search.
	used uint8
}

// emptySet is the state of a set with no valid line.
var emptySet = cset{
	tags: [8]uint32{tagInvalid, tagInvalid, tagInvalid, tagInvalid, tagInvalid, tagInvalid, tagInvalid, tagInvalid},
	mru:  mruReg{tag: tagInvalid, tag2: tagInvalid},
}

// Adaptive MRU promotion. A cycle over three or more tags in one set
// defeats both register slots, and every access then pays a pointless
// rotate on top of the probe; after mruSkipThreshold consecutive
// register misses the register is invalidated and probe hits stop
// rotating into it. Deadness must not be permanent, though: a set whose
// reference pattern turns register-friendly again (the two-tag
// alternation of resident kernel text, most importantly) would otherwise
// probe forever, since only a fill — which resident lines never cause —
// also revives the register. So a dead register retries promotion every
// mruRetryPeriod probe hits; one retried rotate re-enters the steady
// register-hit path within a couple of visits when the pattern fits,
// and costs one rotate per period when it does not. Register hits and
// fills reset the streak. The register and the streak counter are pure
// acceleration state — recency, victims, and counters never depend on
// them — so none of this changes any observable behaviour.
const (
	mruSkipThreshold = 8
	mruRetryPeriod   = 8
)

// Cache is one level of a physically indexed, physically tagged cache
// with LRU replacement within each set.
//
// Each set is one 64-byte record (cset) holding its tags, its age
// matrix, its tag fingerprints, its two-entry MRU register, its
// register-miss streak and its valid-way count, so every path through
// one set touches one host cache line. Three hot-path refinements over
// the obvious probe (behaviour-identical, since a tag is resident in at
// most one way of its set): the last two tags that hit in the set (mru)
// are compared first, catching both consecutive same-line references
// and the two-tags-per-set alternation of sequential kernel-text fetch;
// a first-slot MRU hit skips the recency update, because that way
// already is its set's most recent and re-recording it cannot change
// any within-set order; and the probe compares the query's 8-bit
// fingerprint against all ways' fingerprints in one word operation,
// confirming only the candidate ways against their full tags, so a miss
// usually reads no tag at all. Victim selection (the first empty way,
// which is way used, else the LRU way) is deferred to a miss.
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
	// accessRunFused). Every mutation of per-set state funnels through
	// probe or hit2 (a first-slot register hit touches nothing), each of
	// which sets the bit; the fused engine re-verifies dirty sets and
	// clears the bits that check out. It stays outside the set records
	// so the fused engine skips 64 clean sets per bitmap word. Like the
	// register's skip streak, this is transparent acceleration state and
	// is not serialized.
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
//
// Both register-hit paths live in this frame, so the hits that dominate
// real streams cost exactly one call from the fetch loops; the
// fingerprint match and the miss path live in probe and fill.
func (c *Cache) Access(pa arch.PhysAddr) int {
	c.stats.Accesses++
	tag := uint32(pa) >> c.setShift
	si := tag & c.setMask
	s := &c.sets[si]
	if s.mru.tag == tag {
		c.stats.Hits++
		return c.hitLat
	}
	if s.mru.tag2 == tag {
		return c.hit2(tag, si, s)
	}
	return c.probe(pa, tag, si, s)
}

// probe resolves a reference to set si after both register slots have
// missed: the fingerprint match names the candidate ways and each is
// confirmed against its full tag. A hit touches the way's age row and —
// while the set's register-miss streak is below mruSkipThreshold —
// rotates the register, a miss falls through to fill. Callers have
// already counted the access.
func (c *Cache) probe(pa arch.PhysAddr, tag, si uint32, s *cset) int {
	// Invalidate the fused-run memo for this set. While runN == 0 no memo
	// exists to protect — the first AccessRun rebuilds the bitmap all-dirty
	// — so pure-scalar paths skip the bookkeeping entirely.
	if c.runN != 0 {
		c.dirty[si>>6] |= 1 << (si & 63)
	}
	f := c.fingerprint(tag)
	for cand := c.candidates(s, f); cand != 0; cand &= cand - 1 {
		w := uint(bits.TrailingZeros64(cand)) >> 3
		if s.tags[w&7] == tag {
			c.touch(s, w)
			c.stats.Hits++
			c.promote(s, tag, uint8(w))
			return c.hitLat
		}
	}
	return c.fill(pa, tag, f, s)
}

// promote applies the adaptive MRU-promotion policy to a probe hit:
// rotate the hit into the register while the set's consecutive
// register-miss streak is short, invalidate the register when the streak
// reaches mruSkipThreshold (an access cycle wider than two tags is
// defeating both slots), skip the rotate while dead, and retry promotion
// every mruRetryPeriod hits so a pattern that turns register-friendly
// again recovers the fast paths.
func (c *Cache) promote(s *cset, tag uint32, way uint8) {
	switch {
	case s.skip < mruSkipThreshold-1: // live: rotate, lengthen the streak
		s.skip++
		s.mru.rotate(tag, way)
	case s.skip == mruSkipThreshold-1: // streak reached the threshold: go dead
		s.skip++
		s.mru.tag, s.mru.tag2 = tagInvalid, tagInvalid
	case s.skip < mruSkipThreshold+mruRetryPeriod-1: // dead: skip the rotate
		s.skip++
	default: // retry promotion with this hit
		s.skip = 0
		s.mru.rotate(tag, way)
	}
}

// rotate makes (tag, way) the register's first slot and demotes the
// previous first slot to the second.
func (m *mruReg) rotate(tag uint32, way uint8) {
	m.tag2, m.way2 = m.tag, m.way
	m.tag, m.way = tag, way
}

// touch records a use of way w in set s's age matrix: way w becomes
// more recent than every other way (set row w), and no way remains more
// recent than w (clear column w). Setting the row also sets bit [w][w];
// clearing the column clears it again, keeping the diagonal zero.
func (c *Cache) touch(s *cset, w uint) {
	w &= 7 // proves both shifts < 64, so no oversized-shift guards
	s.age = (s.age | 0xFF<<(8*w)) &^ (colOnes << w)
}

// hit2 completes a second-slot MRU hit: the resident way is known, so
// this is a probe hit minus the match. It is small enough to inline into
// AccessRun's per-line loop, which matters because two-tag alternation
// is the dominant pattern of sequential fetch over loops of code.
func (c *Cache) hit2(tag, si uint32, s *cset) int {
	if c.runN != 0 { // see probe: no memo to protect before the first run
		c.dirty[si>>6] |= 1 << (si & 63)
	}
	m := &s.mru
	c.touch(s, uint(m.way2))
	c.stats.Hits++
	// tag is the second slot's: the rotate is a swap of the slots.
	m.tag, m.tag2 = tag, m.tag
	m.way, m.way2 = m.way2, m.way
	s.skip = 0 // same host line as the register: no store to avoid
	return c.hitLat
}

// fill handles a miss on set s: pick the victim, fetch the line from the
// next level, and install tag with its replicated fingerprint f.
func (c *Cache) fill(pa arch.PhysAddr, tag uint32, f uint64, s *cset) int {
	// The first empty way wins — the valid ways are the prefix [0, used)
	// — otherwise the set is full and the victim is the way at the back
	// of the recency order.
	victim := uint(s.used)
	full := victim >= uint(c.assoc)
	if full {
		// Full set: the LRU way is the unique valid way whose age-matrix
		// row is all zero. The zero-byte trick marks the high bit of the
		// lowest zero byte of y; any parked all-zero rows above assoc sit
		// in higher bytes, so TrailingZeros lands on the real victim.
		y := s.age & c.colsAll
		victim = uint(bits.TrailingZeros64((y-colOnes)&^y&0x8080808080808080)) >> 3
	}
	victim &= 7
	c.stats.Misses++
	latency := c.hitLat
	if c.next != nil {
		latency += c.next.Access(pa)
	} else {
		latency += c.memLatency
	}
	evicted := s.tags[victim]
	if full {
		c.stats.Evictions++
		if c.bus.Wants(obs.EvCacheEvict) {
			c.bus.Publish(obs.Event{Kind: obs.EvCacheEvict, Source: c.cfg.Name, Addr: uint64(pa)})
		}
	} else {
		s.used++
	}
	s.tags[victim] = tag
	s.fp = s.fp&^(0xFF<<(8*victim)) | f&(0xFF<<(8*victim))
	c.touch(s, victim)
	// A fill always revives the register — the just-installed line is the
	// best possible first slot — and resets the adaptive miss streak.
	s.skip = 0
	s.mru.rotate(tag, uint8(victim))
	// The eviction may have displaced the tag now sitting in the second
	// MRU slot (the old MRU itself when assoc is 1); drop it so the
	// register never claims residency for an evicted line.
	if full && s.mru.tag2 == evicted {
		s.mru.tag2 = tagInvalid
	}
	if c.bus.Wants(obs.EvCacheFill) {
		c.bus.Publish(obs.Event{Kind: obs.EvCacheFill, Source: c.cfg.Name, Addr: uint64(pa)})
	}
	return latency
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
// (see its comment); short runs take the plain in-order row loop. Both
// are exact with or without event subscribers at either level.
func (c *Cache) AccessRun(pa arch.PhysAddr, n int) int {
	if n <= 0 {
		return 0
	}
	// The fused engine's per-set fast path needs sets to see two lines of
	// the run — it only pays off when the run wraps the set index space.
	// Short runs — the overwhelmingly common straight-line block of a few
	// lines — run the plain row loop.
	if n > int(c.setMask)+1 {
		return c.accessRunFused(pa, n)
	}
	return c.accessRunScalar(pa, n)
}

// accessRunScalar is the in-order reference loop: one register probe per
// line, counters on the shared struct, events in stream order.
func (c *Cache) accessRunScalar(pa arch.PhysAddr, n int) int {
	tag := uint32(pa) >> c.setShift
	lineSize := arch.PhysAddr(1) << c.setShift
	stall := 0
	for i := 0; i < n; i++ {
		si := tag & c.setMask
		var lat int
		if s := &c.sets[si]; s.mru.tag == tag {
			c.stats.Accesses++
			c.stats.Hits++
			lat = c.hitLat
		} else if s.mru.tag2 == tag {
			c.stats.Accesses++
			lat = c.hit2(tag, si, s)
		} else {
			c.stats.Accesses++
			lat = c.probe(pa, tag, si, s)
		}
		if lat > 1 {
			stall += lat - 1
		}
		tag++
		pa += lineSize
	}
	return stall
}

// accessRunFused executes a wrapping run in stream order with a
// zero-store fast path for sets that are already in their post-run
// state.
//
// The engine exploits a fixed-point property of the run's effect on one
// set. A set receiving lines A then B (k = 2) that both hit through the
// MRU register ends with register {B, A}, its adaptive streak at zero,
// and its age word equal to touch(touch(age, wayA), wayB). The touch
// sequence is idempotent — a second application passes the untouched
// rows through unchanged and rewrites rows/columns A and B to the same
// values — so if the set is ALREADY in exactly that end state, re-running
// its lines changes nothing: A hits the second register slot, B hits the
// second slot again, both reset an already-zero streak, the age word
// maps to itself, and the register returns to {B, A}. The register
// residency invariant (a valid register tag is resident at its recorded
// way) guarantees both lines still hit, so the set's whole contribution
// reduces to counters: k accesses, k hits, k*(hitLat-1) stall cycles.
//
// The fixed-point check is cheap — the expected register tags are
// derived from (pa, n), the streak must read zero, and the age fixed
// point is recomputed in a handful of ALU ops — but the dominant caller
// replays one identical run hundreds of thousands of times, and even
// the check is too much work to repeat per set per run. The dirty
// bitmap amortizes it: after a full pass has verified (or repaired,
// via the scalar per-line path) every set, a clear bit si vouches that
// set si is still at the run's fixed point, because every mutation of
// per-set state — probe hits, second-slot hits, fills, whether from
// scalar accesses or other runs — sets the bit. A repeat of the
// memoized run therefore issues only the lines of the sets dirtied since
// the last one, skipping clean sets 64 at a time at the bitmap word
// level, and re-verifies each dirty set right after its last line,
// clearing bits that check out. When no bit is set at all the run costs
// one scan of the bitmap. Changing the run shape (a different tag0 or n)
// discards the memo and forces a full verification pass, since a fixed
// point of one run says nothing about another.
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
// A set receiving one line (k = 1) is at its fixed point when the line
// holds the first register slot — a first-slot hit mutates nothing. A
// set receiving three or more lines is never at a fixed point: its
// first line cannot sit in the two-slot register at the end of a run,
// so its bit stays set and its lines run on every repeat.
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
// set's state is final: the set is re-verified against the run's fixed
// point on the spot — for k = 1 the line must hold the first register
// slot, for k = 2 see atFixedPoint2, and k >= 3 never qualifies — and
// its bit cleared when it checks out (the line just issued re-marked it
// dirty) so the next identical run skips it.
func (c *Cache) sweepDirty(pa arch.PhysAddr, tag, lo, hi, k, lastTag uint32) (stall int, lines uint32) {
	hitLat := c.hitLat
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
			s := &c.sets[si]
			var lat int
			if s.mru.tag == t {
				c.stats.Accesses++
				c.stats.Hits++
				lat = hitLat
			} else if s.mru.tag2 == t {
				c.stats.Accesses++
				lat = c.hit2(t, si, s)
			} else {
				c.stats.Accesses++
				lat = c.probe(pa+arch.PhysAddr(d)<<c.setShift, t, si, s)
			}
			if lat > 1 {
				stall += lat - 1
			}
			lines++
			if t-lastTag <= c.setMask && (k == 1 && s.mru.tag == t || k == 2 && c.atFixedPoint2(t, s)) {
				c.dirty[w] &^= 1 << b
			}
		}
	}
	return stall, lines
}

// atFixedPoint2 reports whether set s, which has just received the
// second and last line t of a run that gives it two lines, is at that
// run's fixed point (see accessRunFused): register {t, t-nSets}, streak
// zero, and an age word idempotent under the two lines' touches. Small
// enough to inline into sweepDirty.
func (c *Cache) atFixedPoint2(t uint32, s *cset) bool {
	if s.mru.tag != t || s.mru.tag2 != t-(c.setMask+1) || s.skip != 0 {
		return false
	}
	wA, wB := uint(s.mru.way2)&7, uint(s.mru.way)&7
	la := s.age
	a := (la | 0xFF<<(8*wA)) &^ (colOnes << wA)
	return (a|0xFF<<(8*wB))&^(colOnes<<wB) == la
}

// Contains reports whether the line holding pa is resident at this level,
// without touching LRU state or counters.
func (c *Cache) Contains(pa arch.PhysAddr) bool {
	tag := uint32(pa) >> c.setShift
	s := &c.sets[tag&c.setMask]
	for cand := c.candidates(s, c.fingerprint(tag)); cand != 0; cand &= cand - 1 {
		if s.tags[(bits.TrailingZeros64(cand)>>3)&7] == tag {
			return true
		}
	}
	return false
}

// FlushAll invalidates every line at this level only.
func (c *Cache) FlushAll() {
	for i := range c.sets {
		c.sets[i] = emptySet
	}
	c.runN = 0 // every fused-run fixed point is gone with the lines
}

// Occupancy returns the number of valid lines.
func (c *Cache) Occupancy() int {
	n := 0
	for i := range c.sets {
		n += int(c.sets[i].used)
	}
	return n
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
