package cpu

import (
	"repro/internal/obs"
)

// ContextSource adapts one Context's performance counters to the
// obs.Source interface. It is a wrapper rather than methods on Context
// because Context already has a Name field (the process name), which
// would collide with Source's Name method.
type ContextSource struct {
	Ctx *Context
}

// Compile-time check: the cpu package exposes an obs.Source.
var _ obs.Source = ContextSource{}

// Name implements obs.Source. Per-context sources are usually wrapped in
// obs.Prefix with a process identity when registered.
func (s ContextSource) Name() string { return "cpu" }

// Snapshot implements obs.Source.
func (s ContextSource) Snapshot() map[string]uint64 {
	st := s.Ctx.Stats
	return map[string]uint64{
		"cycles":              st.Cycles,
		"instructions":        st.Instructions,
		"kernel_instructions": st.KernelInstructions,
		"icache_stall_cycles": st.ICacheStallCycles,
		"dcache_stall_cycles": st.DCacheStallCycles,
		"itlb_stall_cycles":   st.ITLBStallCycles,
		"dtlb_stall_cycles":   st.DTLBStallCycles,
		"itlb_main_misses":    st.ITLBMainMisses,
		"dtlb_main_misses":    st.DTLBMainMisses,
		"soft_faults":         st.SoftFaults,
		"domain_faults":       st.DomainFaults,
		"context_switches_in": st.ContextSwitchesIn,
	}
}

// Reset implements obs.Source.
func (s ContextSource) Reset() { s.Ctx.Stats = Stats{} }

// AttachBus attaches the core's TLBs and cache hierarchy to b, so their
// insert/evict/flush and fill/evict events reach the bus's subscribers.
// The core itself publishes nothing and never consults the bus: batched
// and scalar execution publish the same events in the same order.
func (c *CPU) AttachBus(b *obs.Bus) {
	c.MicroI.AttachBus(b)
	c.MicroD.AttachBus(b)
	c.Main.AttachBus(b)
	c.Caches.AttachBus(b)
}

// Sources returns the core's metric sources — the three TLBs and the
// private L1 caches — in a stable order. The shared L2 is excluded
// because several cores may share it; register it once at the system
// level instead.
func (c *CPU) Sources() []obs.Source {
	return []obs.Source{c.MicroI, c.MicroD, c.Main, c.Caches.L1I, c.Caches.L1D}
}
