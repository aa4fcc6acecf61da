package arch_test

import (
	"testing"

	"repro/internal/arch"
	_ "repro/internal/arch/armv7" // the backends register themselves
	_ "repro/internal/arch/sv39"
)

// TestRegisteredGeometriesArePowersOfTwo pins what LeafIndex, RootIndex
// and MidIndex assume when they index with a shift and a mask: every
// registered geometry's leaf tables, and its mid tables where it has
// them, hold a power of two of entries.
func TestRegisteredGeometriesArePowersOfTwo(t *testing.T) {
	names := arch.Names()
	if len(names) < 2 {
		t.Fatalf("registered architectures %v, want armv7 and sv39 at least", names)
	}
	pow2 := func(n int) bool { return n > 0 && n&(n-1) == 0 }
	for _, name := range names {
		m, _ := arch.Lookup(name)
		g := m.Geometry()
		if !pow2(g.LeafEntries) {
			t.Errorf("%s: LeafEntries %d is not a power of two", name, g.LeafEntries)
		}
		if g.MidEntries != 0 && !pow2(g.MidEntries) {
			t.Errorf("%s: MidEntries %d is not a power of two", name, g.MidEntries)
		}
	}
}
