package cache

import (
	"testing"

	"repro/internal/obs"
)

// BenchmarkAccessRun measures the run engine on the shapes the simulator
// actually issues: the 512-line resident kernel-text run that dominates
// soft-fault handling, and the one-to-two-line tail runs of straight-line
// blocks.
func BenchmarkAccessRun(b *testing.B) {
	newL1 := func() *Cache {
		l2 := New(Config{Name: "L2", Size: 1 << 20, LineSize: 32, Assoc: 8, HitLatency: 10}, nil, 50)
		return New(Config{Name: "L1I", Size: 32 << 10, LineSize: 32, Assoc: 4, HitLatency: 1}, l2, 0)
	}
	b.Run("KernelText512", func(b *testing.B) {
		c := newL1()
		const lines = 512
		c.AccessRun(0x10000, lines) // warm: all resident afterwards
		c.AccessRun(0x10000, lines) // settle registers into steady state
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			c.AccessRun(0x10000, lines)
		}
		b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*lines), "ns/line")
	})
	b.Run("Tail2", func(b *testing.B) {
		c := newL1()
		c.AccessRun(0x10000, 2)
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			c.AccessRun(0x10000, 2)
		}
	})
}

// BenchmarkAccessRunEngines pits the two run engines against each other
// on the resident 512-line kernel-text shape.
func BenchmarkAccessRunEngines(b *testing.B) {
	newL1 := func() *Cache {
		l2 := New(Config{Name: "L2", Size: 1 << 20, LineSize: 32, Assoc: 8, HitLatency: 10}, nil, 50)
		return New(Config{Name: "L1I", Size: 32 << 10, LineSize: 32, Assoc: 4, HitLatency: 1}, l2, 0)
	}
	const lines = 512
	b.Run("Fused", func(b *testing.B) {
		c := newL1()
		c.accessRunFused(0x10000, lines)
		c.accessRunFused(0x10000, lines)
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			c.accessRunFused(0x10000, lines)
		}
		b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*lines), "ns/line")
	})
	b.Run("Scalar", func(b *testing.B) {
		c := newL1()
		c.accessRunScalar(0x10000, lines)
		c.accessRunScalar(0x10000, lines)
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			c.accessRunScalar(0x10000, lines)
		}
		b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*lines), "ns/line")
	})
}

// BenchmarkAccessRunObserved is the KernelText512 shape with an event
// ring subscribed to fill and evict events at both levels: observed runs
// take the same fused engine as unobserved ones, so the steady state
// should cost the same.
func BenchmarkAccessRunObserved(b *testing.B) {
	l2 := New(Config{Name: "L2", Size: 1 << 20, LineSize: 32, Assoc: 8, HitLatency: 10}, nil, 50)
	c := New(Config{Name: "L1I", Size: 32 << 10, LineSize: 32, Assoc: 4, HitLatency: 1}, l2, 0)
	bus := obs.NewBus()
	ring := obs.NewRing(1 << 10)
	bus.Subscribe(ring, obs.EvCacheFill, obs.EvCacheEvict)
	c.AttachBus(bus)
	l2.AttachBus(bus)
	const lines = 512
	c.AccessRun(0x10000, lines) // warm: all resident afterwards, fills observed
	c.AccessRun(0x10000, lines)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		c.AccessRun(0x10000, lines)
	}
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*lines), "ns/line")
	if ring.Seen() == 0 {
		b.Fatal("ring saw no fill events")
	}
}
