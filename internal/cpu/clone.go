package cpu

import (
	"repro/internal/alloc"
	"repro/internal/cache"
	"repro/internal/obs"
	"repro/internal/tlb"
)

// CloneArenas batches the small per-core clone objects of one machine
// clone — TLB and cache headers. One instance serves every core of the
// machine; everything minted from it belongs to the cloned machine (see
// the alloc package for the lifetime rules).
type CloneArenas struct {
	TLBs   alloc.Arena[tlb.TLB]
	Caches alloc.Arena[cache.Cache]
}

// Clone returns a deep copy of this core for a checkpoint fork: TLBs and
// private caches are cloned over the already-cloned shared L2, the fault
// handler is replaced with the fork's kernel, and the current context is
// remapped through ctxs (the fork's Context for each source Context,
// built while cloning processes). ar may be nil for a plainly allocated
// clone. The Sampler is carried over as-is; checkpoints are captured
// before any sampling subscriber attaches.
func (c *CPU) Clone(handler FaultHandler, l2 *cache.Cache, bus *obs.Bus, ctxs map[*Context]*Context, ar *CloneArenas) *CPU {
	var tlbs *alloc.Arena[tlb.TLB]
	var caches *alloc.Arena[cache.Cache]
	if ar != nil {
		tlbs, caches = &ar.TLBs, &ar.Caches
	}
	d := *c
	d.MicroI = c.MicroI.Clone(bus, tlbs)
	d.MicroD = c.MicroD.Clone(bus, tlbs)
	d.Main = c.Main.Clone(bus, tlbs)
	d.Caches = c.Caches.CloneWithL2(l2, bus, caches)
	d.Handler = handler
	if c.cur != nil {
		nc, ok := ctxs[c.cur]
		if !ok {
			panic("cpu: Clone: current context not in remap table")
		}
		d.cur = nc
	}
	return &d
}
