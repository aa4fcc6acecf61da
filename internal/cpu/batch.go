// Reference-stream execution: CPU.AccessBatch is the core's one entry
// point for memory references. A single reference is a one-element run.
// Inside the package three paths execute them:
//
//   - access, the scalar reference: one fetch, load or store, translated
//     through micro-TLB, main TLB and walker, faulting to the kernel,
//     then one cache access. It is the semantics the other two must
//     reproduce.
//   - fetchBlock, the page visit (a fetch run with Block > 1): one
//     translation, then the block's I-cache lines as one cache run, with
//     a fused micro-TLB-hit fast path (TestFetchBlockDifferential).
//   - refRunFused, a run of single references: spans of TLB-hit,
//     cache-hit iterations resolved inside one loop with their
//     instruction counts and stall cycles accumulated in locals and
//     flushed once per span, falling out to access for any reference the
//     fast path cannot prove equivalent: a TLB miss or a fault of any
//     kind (TestScalarBatchedDifferential).
//
// The equivalence argument, in full:
//
//   - TLB hits and cache hits publish no events and read no global state,
//     so their bookkeeping commutes: k hit iterations may be summed and
//     committed in one update (tlb.CommitRunHits, cache.AccessRun) with
//     bit-identical final state to k scalar iterations.
//   - Everything else — TLB misses and inserts, page walks, cache fills,
//     faults, permission checks — runs through access, one reference at
//     a time, with all accumulated fast-path state flushed first, so
//     counters, events, and handler interactions occur exactly as the
//     scalar loop would produce them.
//   - Per-instruction sampling (CPU.sampling) attributes samples to
//     individual references; the fused paths cannot replicate that
//     attribution, so a sampled stream runs through expandRun.
//
// Event subscribers need no special case. The only events a run can
// publish — TLB inserts and evictions, cache fills and evictions, page
// faults — come from the scalar calls above, issued in stream order, and
// cache.AccessRun issues its lines in stream order too, so an observed
// run takes the fused path and publishes exactly the scalar loop's
// event stream.
//
// The scalar loop survives unchanged (expandRun) as the reference for
// the randomized scalar-vs-batched differential test.

package cpu

import (
	"repro/internal/arch"
)

// AccessBatch executes a reference stream, run by run and in order.
// A run issues Count references of its Kind at VA, VA+Stride,
// VA+2*Stride, ...; each translates through the instruction side
// (fetches) or the data side (loads and stores) of the TLBs and the page
// walker, delivering translation, permission and domain faults to the
// kernel handler and retrying, then accesses the I-cache or D-cache, and
// charges its cycles and counters to the running context. In a fetch
// run with Block > 1 each reference is a page visit instead: Block
// sequential instructions from its address, clamped to the end of its
// page, translated once and fetched one 32-byte line at a time. Runs
// with a non-positive count are skipped. On error the stream stops at
// the failing reference, with every earlier reference fully applied.
func (c *CPU) AccessBatch(runs []arch.RefRun) error {
	// Sampling needs per-reference program-counter attribution.
	fast := !c.sampling()
	for i := range runs {
		r := &runs[i]
		if r.Count <= 0 {
			continue
		}
		var err error
		if fast && (r.Kind != arch.AccessFetch || r.Block <= 1) {
			err = c.refRunFused(r)
		} else {
			err = c.expandRun(r)
		}
		if err != nil {
			return err
		}
	}
	return nil
}

// expandRun is the scalar reference semantics of one run: one page visit
// or one scalar reference per iteration. It also executes every run of
// page visits: fetchBlock fuses each visit on its own, and the visits
// cannot fuse further because each one re-decides its page.
func (c *CPU) expandRun(r *arch.RefRun) error {
	va := r.VA
	for i := 0; i < r.Count; i++ {
		var err error
		if r.Kind == arch.AccessFetch && r.Block > 1 {
			err = c.fetchBlock(va, r.Block)
		} else {
			err = c.access(va, r.Kind)
		}
		if err != nil {
			return err
		}
		va += r.Stride
	}
	return nil
}

// refRunFused executes a run of single references. TLB-hit spans are
// resolved by one LookupRun probe each — a large-page entry carries a
// page-stride run across thousands of iterations — and their base
// instruction costs and cache stalls accumulate in locals, flushed once
// per run and before every scalar fallback so a faulting reference
// observes exactly the scalar-path state.
func (c *CPU) refRunFused(r *arch.RefRun) error {
	ctx := c.cur
	if ctx == nil {
		return c.access(r.VA, r.Kind) // scalar path reports the error
	}
	micro := c.MicroI
	fetch := r.Kind == arch.AccessFetch
	if !fetch {
		micro = c.MicroD
	}

	var instrs, stall uint64
	flush := func() {
		if instrs == 0 && stall == 0 {
			return
		}
		ctx.Stats.Instructions += instrs
		if fetch {
			ctx.Stats.ICacheStallCycles += stall
		} else {
			ctx.Stats.DCacheStallCycles += stall
		}
		c.charge(int(instrs)*c.Costs.BaseInstr + int(stall))
		instrs, stall = 0, 0
	}

	va := r.VA
	remaining := r.Count
	for remaining > 0 {
		n, e := micro.LookupRun(va, r.Stride, remaining, ctx.ASID, ctx.DACR, r.Kind)
		if n == 0 {
			// Micro-TLB miss or fault at va: hand this one reference to the
			// scalar path (main-TLB probe, walk, fault handling, retries),
			// with the fast path's accumulated costs flushed first.
			flush()
			if err := c.access(va, r.Kind); err != nil {
				return err
			}
			va += r.Stride
			remaining--
			continue
		}
		instrs += uint64(n)
		frame, flags := e.Frame(), e.Flags()
		if fetch {
			l1 := c.Caches.L1I
			for i := 0; i < n; i++ {
				if lat := l1.Access(c.physAddr(frame, flags, va)); lat > 1 {
					stall += uint64(lat - 1)
				}
				va += r.Stride
			}
		} else {
			l1 := c.Caches.L1D
			for i := 0; i < n; i++ {
				if lat := l1.Access(c.physAddr(frame, flags, va)); lat > 1 {
					stall += uint64(lat - 1)
				}
				va += r.Stride
			}
		}
		remaining -= n
	}
	if fetch {
		c.lastFetchVA = va - r.Stride
	}
	flush()
	return nil
}
