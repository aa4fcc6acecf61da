package cache

import (
	"math/rand"
	"testing"

	"repro/internal/arch"
)

// BenchmarkCacheAccess measures Cache.Access on the L1 geometry across
// the probe outcomes that dominate simulation time.
func BenchmarkCacheAccess(b *testing.B) {
	b.Run("HitSameLine", func(b *testing.B) {
		c := New(Config{Name: "L1D", Size: 32 << 10, LineSize: 32, Assoc: 4, HitLatency: 1}, nil, 50)
		c.Access(0x1000)
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			c.Access(0x1000)
		}
	})
	b.Run("Hit", func(b *testing.B) {
		c := New(Config{Name: "L1D", Size: 32 << 10, LineSize: 32, Assoc: 4, HitLatency: 1}, nil, 50)
		// Four resident lines in one set, cycled so no access repeats
		// the previous line.
		setStride := arch.PhysAddr(32 * (32 << 10) / (32 * 4)) // one full set wrap
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
		c := New(Config{Name: "L1D", Size: 32 << 10, LineSize: 32, Assoc: 4, HitLatency: 1}, nil, 50)
		setStride := arch.PhysAddr(32 * (32 << 10) / (32 * 4))
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			// Eight tags cycling through a 4-way set: every access misses
			// and displaces the LRU way.
			c.Access(0x1000 + arch.PhysAddr(i&7)*setStride)
		}
	})
	b.Run("L2Sets", func(b *testing.B) {
		// Data references through DefaultHierarchy to 12 lines per L2
		// set, over all 4096 sets, in one fixed pseudo-random order: the
		// 1.5MB working set misses the L1D on nearly every reference and
		// spreads L2 probes, hits, fills and evictions over the whole
		// set array, so the layout of the per-set state shows here where
		// the single-set cases above fit in any host L1.
		const l2Sets, perSet = 4096, 12
		h := DefaultHierarchy()
		order := rand.New(rand.NewSource(1)).Perm(l2Sets * perSet)
		pas := make([]arch.PhysAddr, len(order))
		for i, line := range order {
			pas[i] = arch.PhysAddr(line) * 32
		}
		for _, pa := range pas { // warm: every set full
			h.Data(pa)
		}
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			h.Data(pas[i%len(pas)])
		}
	})
}

// BenchmarkHierarchyWalk measures the page-walk reference path (L1D with
// L2 backing) that every main-TLB miss pays twice.
func BenchmarkHierarchyWalk(b *testing.B) {
	h := DefaultHierarchy()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		h.Walk(arch.PhysAddr(0x100000 + (i&255)*32))
	}
}
