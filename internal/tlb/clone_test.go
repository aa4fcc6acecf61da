// Clone must copy every entry and stay allocation-bounded: a handful of
// slice copies sized by the TLB's capacity, never one allocation per
// entry.

package tlb

import (
	"testing"

	"repro/internal/arch"
	"repro/internal/arch/armv7"
)

func TestCloneCopiesStateAndDetaches(t *testing.T) {
	a := New("main", 64, armv7.PagesPerLargePage)
	for i := 0; i < 40; i++ {
		a.Insert(arch.VirtAddr(i*arch.PageSize), 1, arch.FrameNum(i), arch.PTEValid, 1)
	}
	b := a.Clone(nil, nil)
	av, ag := occupancy(a.entries)
	bv, bg := occupancy(b.entries)
	if av != bv || ag != bg {
		t.Fatalf("clone occupancy %d/%d, want %d/%d", bv, bg, av, ag)
	}
	// Mutating the clone must not touch the original.
	b.FlushAll()
	if v, _ := occupancy(a.entries); v != av {
		t.Errorf("flushing the clone changed the original: %d -> %d valid", av, v)
	}
	if v, _ := occupancy(b.entries); v != 0 {
		t.Errorf("clone not flushed: %d valid", v)
	}
	// The original still finds every entry through its own index.
	for i := 0; i < 40; i++ {
		if _, _, r := a.Lookup(arch.VirtAddr(i*arch.PageSize), 1, 0, arch.AccessRead); r == Miss {
			t.Fatalf("flushing the clone unlinked page %d from the original's index", i)
		}
	}
}

func TestCloneAllocationBounded(t *testing.T) {
	a := New("main", 64, armv7.PagesPerLargePage)
	for i := 0; i < 64; i++ {
		a.Insert(arch.VirtAddr(i*arch.PageSize), 1, arch.FrameNum(i), arch.PTEValid, 1)
	}
	var sink *TLB
	allocs := testing.AllocsPerRun(100, func() {
		sink = a.Clone(nil, nil)
	})
	_ = sink
	if max := 10.0; allocs > max {
		t.Errorf("Clone() = %.0f allocs for a full 64-entry TLB, want <= %.0f", allocs, max)
	}
}
