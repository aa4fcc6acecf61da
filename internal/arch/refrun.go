// Run-length-encoded reference streams, the input of cpu.AccessBatch,
// the core's only memory-reference entry point. The workload drivers
// walk large address ranges with constant strides (sequential file
// pages, heap sweeps, descending stack touches) and emit RefRuns —
// "Count references of Kind starting at VA, Stride bytes apart"; a
// single reference is a one-element run. The encoding changes nothing
// about which references happen or in what order; it only states the
// pattern explicitly instead of leaving it implicit in a loop.

package arch

// RefRun is one run of a reference stream: Count references of Kind at
// VA, VA+Stride, VA+2*Stride, ... Stride is a two's-complement byte
// delta (descending runs wrap VirtAddr), and may exceed a page. A
// non-positive Count is an empty run.
//
// Block extends the encoding to the workload's page-visit primitive:
// when Kind is AccessFetch and Block > 1, each reference is a page
// visit — Block sequential instructions from its address, clamped to
// the end of its page — instead of a single fetch. Block <= 1 is a
// plain single reference; Block is ignored for reads and writes.
type RefRun struct {
	VA     VirtAddr
	Stride VirtAddr
	Count  int
	Kind   AccessKind
	Block  int
}

// End returns the address one stride past the run's last reference — the
// VA a following reference would need for the run to absorb it.
func (r RefRun) End() VirtAddr {
	return r.VA + VirtAddr(r.Count)*r.Stride
}

// RefStream accumulates references in issue order and run-length-encodes
// them on the fly: a reference continuing the previous run's (stride,
// kind, block) pattern extends it, anything else starts a new run. A
// stream is reusable via Reset, so steady-state loops can emit batches
// without reallocating.
type RefStream struct {
	runs []RefRun
}

// Add appends one reference of kind at va. A second reference of a run
// fixes its stride; later references must continue it exactly.
func (s *RefStream) Add(va VirtAddr, kind AccessKind, block int) {
	if block < 1 {
		block = 1
	}
	if kind != AccessFetch {
		block = 1
	}
	if n := len(s.runs); n > 0 {
		r := &s.runs[n-1]
		if r.Kind == kind && r.Block == block {
			if r.Count == 1 {
				r.Stride = va - r.VA
				r.Count = 2
				return
			}
			if r.End() == va {
				r.Count++
				return
			}
		}
	}
	s.runs = append(s.runs, RefRun{VA: va, Stride: 0, Count: 1, Kind: kind, Block: block})
}

// AddRun appends an explicit run, merging it with the previous run when
// it continues the same pattern.
func (s *RefStream) AddRun(r RefRun) {
	if r.Count <= 0 {
		return
	}
	if r.Block < 1 || r.Kind != AccessFetch {
		r.Block = 1
	}
	if n := len(s.runs); n > 0 {
		p := &s.runs[n-1]
		if p.Kind == r.Kind && p.Block == r.Block && p.Stride == r.Stride && p.Count > 1 && p.End() == r.VA {
			p.Count += r.Count
			return
		}
	}
	s.runs = append(s.runs, r)
}

// Runs returns the encoded runs in issue order. The slice aliases the
// stream's storage; it is valid until the next Add or Reset.
func (s *RefStream) Runs() []RefRun { return s.runs }

// Len returns the total number of references in the stream.
func (s *RefStream) Len() int {
	n := 0
	for i := range s.runs {
		n += s.runs[i].Count
	}
	return n
}

// Reset empties the stream, keeping its storage for reuse.
func (s *RefStream) Reset() { s.runs = s.runs[:0] }
