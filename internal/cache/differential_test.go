package cache

import (
	"math/rand"
	"reflect"
	"testing"

	"repro/internal/arch"
	"repro/internal/obs"
)

// refCache is the obvious implementation the packed-recency Cache must
// match: per-set linear scan with one last-use timestamp per way, LRU
// victim by smallest stamp, first invalid way preferred. It exists only
// for the differential test below and for the BenchmarkReference*
// benchmarks, which give a same-machine "before" column for the hot-path
// figures recorded in CHANGES.md.
type refCache struct {
	cfg        Config
	tags       [][]uint32
	stamps     [][]uint64
	clock      uint64
	setShift   uint
	setMask    uint32
	next       *refCache
	memLatency int
	stats      Stats
}

func newRef(cfg Config, next *refCache, memLatency int) *refCache {
	nSets := cfg.Size / (cfg.LineSize * cfg.Assoc)
	r := &refCache{
		cfg:        cfg,
		tags:       make([][]uint32, nSets),
		stamps:     make([][]uint64, nSets),
		setShift:   uint(log2(cfg.LineSize)),
		setMask:    uint32(nSets - 1),
		next:       next,
		memLatency: memLatency,
	}
	for i := range r.tags {
		r.tags[i] = make([]uint32, cfg.Assoc)
		r.stamps[i] = make([]uint64, cfg.Assoc)
		for w := range r.tags[i] {
			r.tags[i][w] = tagInvalid
		}
	}
	return r
}

func log2(n int) int {
	k := 0
	for 1<<k < n {
		k++
	}
	return k
}

func (r *refCache) Access(pa arch.PhysAddr) int {
	r.stats.Accesses++
	r.clock++
	tag := uint32(pa) >> r.setShift
	si := tag & r.setMask
	set := r.tags[si]
	for w, tg := range set {
		if tg == tag {
			r.stats.Hits++
			r.stamps[si][w] = r.clock
			return r.cfg.HitLatency
		}
	}
	// Miss: first invalid way, else smallest stamp.
	victim := -1
	for w, tg := range set {
		if tg == tagInvalid {
			victim = w
			break
		}
	}
	if victim < 0 {
		victim = 0
		for w := 1; w < len(set); w++ {
			if r.stamps[si][w] < r.stamps[si][victim] {
				victim = w
			}
		}
	}
	r.stats.Misses++
	latency := r.cfg.HitLatency
	if r.next != nil {
		latency += r.next.Access(pa)
	} else {
		latency += r.memLatency
	}
	if set[victim] != tagInvalid {
		r.stats.Evictions++
	}
	set[victim] = tag
	r.stamps[si][victim] = r.clock
	return latency
}

func (r *refCache) Contains(pa arch.PhysAddr) bool {
	tag := uint32(pa) >> r.setShift
	for _, tg := range r.tags[tag&r.setMask] {
		if tg == tag {
			return true
		}
	}
	return false
}

// TestCacheMatchesReference drives the packed-recency Cache and the
// stamped reference through identical randomized access streams and
// demands agreement on every access's latency, every counter, and final
// residency. Victim choice is where the implementations could silently
// diverge (move-to-front order vs explicit stamps), and a wrong victim
// shows up here as a latency or residency mismatch a few accesses later.
func TestCacheMatchesReference(t *testing.T) {
	geometries := []struct {
		name string
		cfg  Config
	}{
		{"L1", Config{Name: "L1D", Size: 4 << 10, LineSize: 32, Assoc: 4, HitLatency: 1}},
		{"L2geom", Config{Name: "L2", Size: 8 << 10, LineSize: 32, Assoc: 8, HitLatency: 10}},
		{"direct", Config{Name: "DM", Size: 1 << 10, LineSize: 32, Assoc: 1, HitLatency: 1}},
	}
	for _, g := range geometries {
		t.Run(g.name, func(t *testing.T) {
			rng := rand.New(rand.NewSource(7))
			got := New(g.cfg, nil, 50)
			want := newRef(g.cfg, nil, 50)
			// Address pool a few times the cache capacity so sets see
			// hits, misses, evictions, and re-references of evicted lines.
			pool := 4 * g.cfg.Size
			for i := 0; i < 200000; i++ {
				var pa arch.PhysAddr
				if rng.Intn(4) == 0 {
					// Burst: revisit a recent line to exercise MRU paths.
					pa = arch.PhysAddr(rng.Intn(pool/16)) * 32
				} else {
					pa = arch.PhysAddr(rng.Intn(pool))
				}
				gl, wl := got.Access(pa), want.Access(pa)
				if gl != wl {
					t.Fatalf("access %d (pa=%#x): latency %d, reference %d", i, pa, gl, wl)
				}
				if got.stats != want.stats {
					t.Fatalf("access %d (pa=%#x): stats %+v, reference %+v", i, pa, got.stats, want.stats)
				}
			}
			for pa := arch.PhysAddr(0); pa < arch.PhysAddr(pool); pa += 32 {
				if g, w := got.Contains(pa), want.Contains(pa); g != w {
					t.Fatalf("Contains(%#x) = %v, reference %v", pa, g, w)
				}
			}
		})
	}
}

// TestHierarchyMatchesReference runs the same property through a
// two-level hierarchy so recursive fills and L2 evictions are covered.
func TestHierarchyMatchesReference(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	l2cfg := Config{Name: "L2", Size: 16 << 10, LineSize: 32, Assoc: 8, HitLatency: 10}
	l1cfg := Config{Name: "L1D", Size: 2 << 10, LineSize: 32, Assoc: 4, HitLatency: 1}
	got := New(l1cfg, New(l2cfg, nil, 50), 0)
	want := newRef(l1cfg, newRef(l2cfg, nil, 50), 0)
	for i := 0; i < 200000; i++ {
		pa := arch.PhysAddr(rng.Intn(64 << 10))
		if gl, wl := got.Access(pa), want.Access(pa); gl != wl {
			t.Fatalf("access %d (pa=%#x): latency %d, reference %d", i, pa, gl, wl)
		}
	}
	if got.stats != want.stats {
		t.Fatalf("L1 stats %+v, reference %+v", got.stats, want.stats)
	}
	if got.next.stats != want.next.stats {
		t.Fatalf("L2 stats %+v, reference %+v", got.next.stats, want.next.stats)
	}
}

// TestAccessRunMatchesAccess drives one hierarchy with AccessRun and a
// twin with the equivalent individual Access calls, over randomized runs
// long enough to wrap the L1 set-index space (exercising the fused
// stream-order engine and its fixed-point memo, including repeats of the
// previous run), and demands identical stall totals and identical
// complete state — tags, age matrices, MRU registers, adaptive skip
// streaks, and counters at both levels. This is the pin for the claim
// that the fused path is bit-exact against the scalar path, including
// the transparent acceleration state. The observed variants also record
// the fill/evict events of both levels and demand identical streams; the
// tiny-L2 geometries issue runs longer than the L2 has sets, so lines of
// one run meet in L2 sets and their order there matters.
func TestAccessRunMatchesAccess(t *testing.T) {
	l2 := Config{Name: "L2", Size: 64 << 10, LineSize: 32, Assoc: 8, HitLatency: 10}
	l1 := Config{Name: "L1I", Size: 4 << 10, LineSize: 32, Assoc: 4, HitLatency: 1}
	tinyL2 := Config{Name: "L2", Size: 2 << 10, LineSize: 32, Assoc: 8, HitLatency: 10}
	tinyL1 := Config{Name: "L1I", Size: 1 << 10, LineSize: 32, Assoc: 4, HitLatency: 1}
	cases := []struct {
		name     string
		l1, l2   Config
		observed bool
	}{
		{"base", l1, l2, false},
		{"observed", l1, l2, true},
		{"tinyL2", l1, tinyL2, false},
		{"tinyL2/observed", tinyL1, tinyL2, true},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			testAccessRunMatchesAccess(t, tc.l1, tc.l2, tc.observed)
		})
	}
}

// hierarchyEvents attaches a fresh bus to both levels of the two-level
// hierarchy c and returns the fill/evict stream it records.
func hierarchyEvents(c *Cache) *[]obs.Event {
	var evs []obs.Event
	bus := obs.NewBus()
	bus.Subscribe(obs.ObserverFunc(func(ev obs.Event) { evs = append(evs, ev) }),
		obs.EvCacheFill, obs.EvCacheEvict)
	c.AttachBus(bus)
	c.next.AttachBus(bus)
	return &evs
}

func testAccessRunMatchesAccess(t *testing.T, l1cfg, l2cfg Config, observed bool) {
	got := New(l1cfg, New(l2cfg, nil, 50), 0)
	want := New(l1cfg, New(l2cfg, nil, 50), 0)
	var gotEvs, wantEvs *[]obs.Event
	if observed {
		gotEvs, wantEvs = hierarchyEvents(got), hierarchyEvents(want)
	}
	nSets := int(got.setMask) + 1
	compared := 0 // events already checked equal
	rng := rand.New(rand.NewSource(23))
	check := func(i int) {
		t.Helper()
		if got.stats != want.stats {
			t.Fatalf("op %d: L1 stats %+v, scalar %+v", i, got.stats, want.stats)
		}
		if got.next.stats != want.next.stats {
			t.Fatalf("op %d: L2 stats %+v, scalar %+v", i, got.next.stats, want.next.stats)
		}
		for _, pair := range [][2]*Cache{{got, want}, {got.next, want.next}} {
			g, w := pair[0], pair[1]
			for si := range g.age {
				if g.age[si] != w.age[si] || g.mru[si] != w.mru[si] || g.skip[si] != w.skip[si] {
					t.Fatalf("op %d: %s set %d diverged: age %x/%x mru %+v/%+v skip %d/%d",
						i, g.cfg.Name, si, g.age[si], w.age[si], g.mru[si], w.mru[si], g.skip[si], w.skip[si])
				}
			}
			for j := range g.tags {
				if g.tags[j] != w.tags[j] {
					t.Fatalf("op %d: %s tags[%d] = %#x, scalar %#x", i, g.cfg.Name, j, g.tags[j], w.tags[j])
				}
			}
		}
		if observed {
			g, w := *gotEvs, *wantEvs
			if len(g) != len(w) || !reflect.DeepEqual(g[compared:], w[compared:]) {
				t.Fatalf("op %d: event streams diverge: %d events, scalar %d", i, len(g), len(w))
			}
			compared = len(g)
		}
	}
	var lastPA arch.PhysAddr
	lastN := 0
	for i := 0; i < 4000; i++ {
		pa := arch.PhysAddr(rng.Intn(48<<10)) &^ 31
		n := 1 + rng.Intn(3*nSets)
		switch op := rng.Intn(6); {
		case op < 2: // single accesses, including re-references
			gl, wl := got.Access(pa), want.Access(pa)
			if gl != wl {
				t.Fatalf("op %d: Access(%#x) latency %d, scalar %d", i, pa, gl, wl)
			}
			check(i)
			continue
		case op < 4 && lastN > 0: // repeat the last run: the memo's case
			pa, n = lastPA, lastN
		}
		// runs: short, set-spanning, and multi-wrap lengths
		lastPA, lastN = pa, n
		stall := got.AccessRun(pa, n)
		ref := 0
		for k := 0; k < n; k++ {
			if lat := want.Access(pa + arch.PhysAddr(k*32)); lat > 1 {
				ref += lat - 1
			}
		}
		if stall != ref {
			t.Fatalf("op %d: AccessRun(%#x, %d) stall %d, scalar %d", i, pa, n, stall, ref)
		}
		check(i)
	}
	if got.AccessRun(0x1000, 0) != 0 || got.AccessRun(0x1000, -3) != 0 {
		t.Fatal("AccessRun with a zero or negative count must be a no-op")
	}
	check(-1)
	if observed && len(*gotEvs) == 0 {
		t.Fatal("observed variant recorded no events")
	}
}

// BenchmarkReferenceAccess mirrors BenchmarkCacheAccess over the stamped
// reference, so the recorded hot-path "before" figures (CHANGES.md) can
// be re-measured on the same machine as the "after" figures.
func BenchmarkReferenceAccess(b *testing.B) {
	cfg := Config{Name: "L1D", Size: 32 << 10, LineSize: 32, Assoc: 4, HitLatency: 1}
	b.Run("HitMRU", func(b *testing.B) {
		c := newRef(cfg, nil, 50)
		c.Access(0x1000)
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			c.Access(0x1000)
		}
	})
	b.Run("Hit", func(b *testing.B) {
		c := newRef(cfg, nil, 50)
		setStride := arch.PhysAddr(32 * (32 << 10) / (32 * 4))
		for w := 0; w < 4; w++ {
			c.Access(0x1000 + arch.PhysAddr(w)*setStride)
		}
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			c.Access(0x1000 + arch.PhysAddr(i&3)*setStride)
		}
	})
	b.Run("MissEvict", func(b *testing.B) {
		c := newRef(cfg, nil, 50)
		setStride := arch.PhysAddr(32 * (32 << 10) / (32 * 4))
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			c.Access(0x1000 + arch.PhysAddr(i&7)*setStride)
		}
	})
}
