// Reference-stream execution: CPU.AccessBatch is the core's one entry
// point for memory references. A single reference is a one-element run.
// Inside the package two paths execute them:
//
//   - access, the scalar reference: one fetch, load or store, translated
//     through micro-TLB, main TLB and walker, faulting to the kernel,
//     then one cache access.
//   - fetchBlock, the page visit (a fetch run with Block > 1): one
//     translation through the same path, then the block's I-cache lines
//     as one cache run (TestFetchBlockDifferential).
//
// Every run is a loop over one of them, so event subscribers and
// samplers see each reference in stream order with no special case.

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
	for i := range runs {
		if err := c.expandRun(&runs[i]); err != nil {
			return err
		}
	}
	return nil
}

// expandRun executes one run: one page visit or one scalar reference per
// iteration.
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
