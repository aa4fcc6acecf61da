package pagetable

import (
	"repro/internal/obs"
)

// Compile-time check: every PageTable is an obs.Source.
var _ obs.Source = (*PageTable)(nil)

// Name implements obs.Source. Per-process tables are usually wrapped in
// obs.Prefix with a process identity when registered.
func (pt *PageTable) Name() string { return "pagetable" }

// Snapshot implements obs.Source.
func (pt *PageTable) Snapshot() map[string]uint64 {
	return map[string]uint64{
		"ptps_allocated": pt.stats.PTPsAllocated,
		"ptps_freed":     pt.stats.PTPsFreed,
		"ptes_set":       pt.stats.PTEsSet,
		"ptes_cleared":   pt.stats.PTEsCleared,
	}
}

// Reset implements obs.Source: it zeroes the counters without touching
// any mappings.
func (pt *PageTable) Reset() { pt.stats = Stats{} }
