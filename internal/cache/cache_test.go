package cache

import (
	"testing"
	"testing/quick"

	"repro/internal/arch"
)

func small(next *Cache, memLat int) *Cache {
	// 4 sets x 2 ways x 32B lines = 256B.
	return New(Config{Name: "t", Size: 256, LineSize: 32, Assoc: 2, HitLatency: 1}, next, memLat)
}

func TestMissThenHit(t *testing.T) {
	c := small(nil, 50)
	if lat := c.Access(0x1000); lat != 51 {
		t.Errorf("cold access latency = %d, want 51", lat)
	}
	if lat := c.Access(0x1000); lat != 1 {
		t.Errorf("warm access latency = %d, want 1", lat)
	}
	s := c.Stats()
	if s.Hits != 1 || s.Misses != 1 {
		t.Errorf("stats = %+v", s)
	}
}

func TestSameLineDifferentWordsHit(t *testing.T) {
	c := small(nil, 50)
	c.Access(0x1000)
	if lat := c.Access(0x101F); lat != 1 {
		t.Errorf("same-line access latency = %d, want 1", lat)
	}
	if lat := c.Access(0x1020); lat == 1 {
		t.Errorf("next line should miss")
	}
}

func TestLRUWithinSet(t *testing.T) {
	c := small(nil, 50)
	// Three lines mapping to the same set (set stride = 4 sets * 32B = 128B).
	a, b, x := arch.PhysAddr(0x0000), arch.PhysAddr(0x0080), arch.PhysAddr(0x0100)
	c.Access(a)
	c.Access(b)
	c.Access(a) // a most recent
	c.Access(x) // evicts b
	if !c.Contains(a) {
		t.Error("a should be resident")
	}
	if c.Contains(b) {
		t.Error("b should have been evicted (LRU)")
	}
	if !c.Contains(x) {
		t.Error("x should be resident")
	}
	if c.Stats().Evictions != 1 {
		t.Errorf("evictions = %d, want 1", c.Stats().Evictions)
	}
}

func TestTwoLevel(t *testing.T) {
	l2 := small(nil, 50)
	l1 := New(Config{Name: "l1", Size: 64, LineSize: 32, Assoc: 1, HitLatency: 1}, l2, 0)
	// Cold: L1 miss + L2 miss + memory.
	if lat := l1.Access(0x1000); lat != 1+1+50 {
		t.Errorf("cold two-level latency = %d, want 52", lat)
	}
	// Evict from tiny L1 but keep in L2: conflicting address for 2-set L1.
	l1.Access(0x1040) // same L1 set (2 sets * 32B = 64B stride), different L2 set
	if c := l1.Contains(0x1000); c {
		t.Fatal("0x1000 should have been evicted from direct-mapped L1")
	}
	if !l2.Contains(0x1000) {
		t.Fatal("0x1000 should still be in L2")
	}
	if lat := l1.Access(0x1000); lat != 1+1 {
		t.Errorf("L2-hit latency = %d, want 2", lat)
	}
}

func TestFlushAllAndOccupancy(t *testing.T) {
	c := small(nil, 50)
	c.Access(0x0)
	c.Access(0x20)
	if got := c.Occupancy(); got != 2 {
		t.Errorf("occupancy = %d, want 2", got)
	}
	c.FlushAll()
	if got := c.Occupancy(); got != 0 {
		t.Errorf("occupancy after flush = %d, want 0", got)
	}
}

func TestResetStats(t *testing.T) {
	c := small(nil, 50)
	c.Access(0x0)
	c.Reset()
	if s := c.Stats(); s.Accesses != 0 {
		t.Errorf("stats not reset: %+v", s)
	}
	if !c.Contains(0x0) {
		t.Error("lines must survive Reset")
	}
}

func TestDefaultHierarchy(t *testing.T) {
	h := DefaultHierarchy()
	if h.L1I.cfg.Size != 32<<10 || h.L1D.cfg.Size != 32<<10 || h.L2.cfg.Size != 1<<20 {
		t.Errorf("unexpected hierarchy geometry")
	}
	// A fetch miss fills L1I and L2 but not L1D.
	h.Fetch(0x4000)
	if !h.L1I.Contains(0x4000) || !h.L2.Contains(0x4000) {
		t.Error("fetch should fill L1I and L2")
	}
	if h.L1D.Contains(0x4000) {
		t.Error("fetch must not fill L1D")
	}
	// A page walk fills L1D and L2 (ARMv7 walker allocates into L1D).
	h.Walk(0x8000)
	if !h.L1D.Contains(0x8000) || !h.L2.Contains(0x8000) {
		t.Error("walk should fill L1D and L2")
	}
}

func TestSharedPTEDedup(t *testing.T) {
	// Two processes walking the same physical PTE word (shared PTP) touch
	// one L2 line; private page tables touch two. This is the pollution
	// reduction the paper reports.
	h := DefaultHierarchy()
	sharedPTE := arch.PhysAddr(0x100000)
	h.Walk(sharedPTE)
	h.Walk(sharedPTE) // second process, same word
	if h.L2.Stats().Misses != 1 {
		t.Errorf("shared PTP walks should miss L2 once, got %d", h.L2.Stats().Misses)
	}
	h.L2.Reset()
	h.FlushAll()
	h.Walk(0x200000)
	h.Walk(0x300000) // second process, private copy
	if h.L2.Stats().Misses != 2 {
		t.Errorf("private PTP walks should miss L2 twice, got %d", h.L2.Stats().Misses)
	}
}

func TestHitAfterAccessProperty(t *testing.T) {
	// For any address, an access immediately followed by another access
	// to the same address hits at L1 latency.
	h := DefaultHierarchy()
	prop := func(raw uint32) bool {
		pa := arch.PhysAddr(raw)
		h.Fetch(pa)
		return h.Fetch(pa) == 1
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}

func TestConfigValidation(t *testing.T) {
	for _, cfg := range []Config{
		{Name: "bad", Size: 0, LineSize: 32, Assoc: 1},
		{Name: "bad", Size: 256, LineSize: 33, Assoc: 1},
		{Name: "bad", Size: 100, LineSize: 32, Assoc: 1}, // non-power-of-two sets
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("config %+v should panic", cfg)
				}
			}()
			New(cfg, nil, 50)
		}()
	}
}

// TestLRUProperty: after any access sequence confined to one set, the
// most recently accessed min(assoc, distinct) lines are resident.
func TestLRUProperty(t *testing.T) {
	prop := func(seq []uint8) bool {
		c := small(nil, 50) // 4 sets x 2 ways
		// Confine to set 0: stride = 128B.
		var order []arch.PhysAddr
		for _, s := range seq {
			pa := arch.PhysAddr(s%8) * 128
			c.Access(pa)
			// Track recency.
			for i, o := range order {
				if o == pa {
					order = append(order[:i], order[i+1:]...)
					break
				}
			}
			order = append(order, pa)
		}
		n := 2 // associativity
		if len(order) < n {
			n = len(order)
		}
		for _, pa := range order[len(order)-n:] {
			if !c.Contains(pa) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 300}); err != nil {
		t.Error(err)
	}
}

func TestSharedL2AcrossHierarchies(t *testing.T) {
	// Two cores' hierarchies over one L2: a line fetched by core 0 is an
	// L2 hit for core 1 (the cross-core PTE reuse the SMP study counts).
	l2 := DefaultL2()
	c0 := HierarchyWithL2(l2)
	c1 := HierarchyWithL2(l2)
	c0.Fetch(0x4000)
	misses := l2.Stats().Misses
	lat := c1.Fetch(0x4000)
	if l2.Stats().Misses != misses {
		t.Error("core 1 should hit the line core 0 loaded into the shared L2")
	}
	if lat != 1+10 {
		t.Errorf("cross-core latency = %d, want L1 miss + L2 hit = 11", lat)
	}
	if c1.L1I.Stats().Hits != 0 {
		t.Error("core 1's private L1 must not have the line yet")
	}
}
