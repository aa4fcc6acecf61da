// Clone must copy the whole line state in a fixed handful of
// allocations — one flat set-record copy, never per set or per line.

package cache

import (
	"testing"

	"repro/internal/arch"
)

func TestCloneCopiesStateAndDetaches(t *testing.T) {
	a := New(Config{Name: "L1I", Size: 32 << 10, LineSize: 32, Assoc: 4, HitLatency: 1}, nil, 50)
	for i := 0; i < 200; i++ {
		a.Access(arch.PhysAddr(i * 64))
	}
	b := a.Clone(nil, nil, nil)
	if got, want := occupancy(b), occupancy(a); got != want {
		t.Fatalf("clone occupancy = %d, want %d", got, want)
	}
	b.FlushAll()
	if occupancy(a) == 0 {
		t.Error("flushing the clone emptied the original")
	}
	if occupancy(b) != 0 {
		t.Error("clone not flushed")
	}
}

func TestCloneAllocationBounded(t *testing.T) {
	a := DefaultL2() // 1MB, 32768 lines: a per-line or per-set copy would explode
	for i := 0; i < 4096; i++ {
		a.Access(arch.PhysAddr(i * 64))
	}
	var sink *Cache
	allocs := testing.AllocsPerRun(50, func() {
		sink = a.Clone(nil, nil, nil)
	})
	_ = sink
	// Header, set records, dirty bitmap: three flat allocations
	// regardless of line count.
	if max := 3.0; allocs > max {
		t.Errorf("Clone() = %.0f allocs for a 32768-line cache, want <= %.0f", allocs, max)
	}
}
