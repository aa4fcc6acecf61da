// Package trace reproduces the measurement methodology of Section 4.1.1:
// page fault traces for the user address space interpreted with the
// mapping information from /proc/pid/smaps, and perf-style rate-based
// program-counter sampling. On top of the raw collectors it provides the
// analyses behind the motivation section — the instruction-footprint
// breakdown of Figure 2, the fetch breakdown of Figure 3, the user/kernel
// split of Table 1, the cross-application commonality of Table 2, and the
// 64KB-page sparsity study of Figure 4.
package trace

import (
	"hash/fnv"
	"sort"

	"repro/internal/arch"
	"repro/internal/core"
	"repro/internal/obs"
	"repro/internal/stats"
	"repro/internal/vm"
)

// FaultEvent is one recorded page fault.
type FaultEvent struct {
	// PID is the faulting process.
	PID int
	// VA is the faulting address.
	VA arch.VirtAddr
	// Kind is the access that faulted.
	Kind arch.AccessKind
}

// FaultTrace collects the kernel's page-fault stream. Attach subscribes
// it to the kernel's event bus; it keeps recording until detached.
type FaultTrace struct {
	Events []FaultEvent

	cancel func()
}

// Attach subscribes the trace to k's page-fault events. Other observers
// are unaffected; a second Attach (to the same or another kernel) first
// detaches.
func (t *FaultTrace) Attach(k *core.Kernel) {
	t.Detach()
	t.cancel = k.Subscribe(obs.ObserverFunc(func(ev obs.Event) {
		t.Events = append(t.Events, FaultEvent{
			PID:  ev.PID,
			VA:   arch.VirtAddr(ev.Addr),
			Kind: arch.AccessKind(ev.Access),
		})
	}), obs.EvPageFault)
}

// Detach stops recording; the subscription knows which bus it is on.
func (t *FaultTrace) Detach() {
	if t.cancel != nil {
		t.cancel()
		t.cancel = nil
	}
}

// ExecPages returns the distinct pages that took fetch faults in process
// pid, the raw material of the paper's instruction footprint analysis.
func (t *FaultTrace) ExecPages(pid int) []arch.VirtAddr {
	seen := make(map[arch.VirtAddr]bool)
	var out []arch.VirtAddr
	for _, e := range t.Events {
		if e.PID != pid || e.Kind != arch.AccessFetch {
			continue
		}
		pg := arch.PageBase(e.VA)
		if !seen[pg] {
			seen[pg] = true
			out = append(out, pg)
		}
	}
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out
}

// PCSampler is the perf record stand-in: it buckets rate-based PC samples
// by user/kernel and by page.
type PCSampler struct {
	// UserSamples and KernelSamples count samples by space (Table 1).
	UserSamples   uint64
	KernelSamples uint64
	// ByPage counts user samples per page.
	ByPage map[arch.VirtAddr]uint64
}

// NewPCSampler creates an empty sampler.
func NewPCSampler() *PCSampler {
	return &PCSampler{ByPage: make(map[arch.VirtAddr]uint64)}
}

// Sample implements cpu.Sampler.
func (s *PCSampler) Sample(va arch.VirtAddr, kernel bool) {
	if kernel {
		s.KernelSamples++
		return
	}
	s.UserSamples++
	s.ByPage[arch.PageBase(va)]++
}

// UserPct returns the percentage of samples taken in user space.
func (s *PCSampler) UserPct() float64 {
	total := s.UserSamples + s.KernelSamples
	if total == 0 {
		return 0
	}
	return 100 * float64(s.UserSamples) / float64(total)
}

// FootprintBreakdown classifies a set of executed pages by region
// category using the process's smaps, exactly as Figure 2 is derived from
// page fault traces plus /proc/pid/smaps.
func FootprintBreakdown(smaps []vm.Smaps, pages []arch.VirtAddr) map[vm.Category]int {
	out := make(map[vm.Category]int)
	for _, pg := range pages {
		out[categoryOf(smaps, pg)]++
	}
	return out
}

// FetchBreakdown classifies dynamic fetch samples by category, weighted
// by sample count (Figure 3).
func FetchBreakdown(smaps []vm.Smaps, s *PCSampler) map[vm.Category]uint64 {
	out := make(map[vm.Category]uint64)
	for pg, n := range s.ByPage {
		out[categoryOf(smaps, pg)] += n
	}
	return out
}

func categoryOf(smaps []vm.Smaps, va arch.VirtAddr) vm.Category {
	i := sort.Search(len(smaps), func(i int) bool { return smaps[i].End > va })
	if i < len(smaps) && va >= smaps[i].Start {
		return smaps[i].Category
	}
	return vm.CatOther
}

// SharedCodePages filters an executed-page set down to shared code, with
// zygoteOnly selecting only zygote-preloaded shared code (the two
// variants reported in Table 2).
func SharedCodePages(smaps []vm.Smaps, pages []arch.VirtAddr, zygoteOnly bool) []arch.VirtAddr {
	var out []arch.VirtAddr
	for _, pg := range pages {
		c := categoryOf(smaps, pg)
		if zygoteOnly && c.IsZygotePreloaded() || !zygoteOnly && c.IsSharedCode() {
			out = append(out, pg)
		}
	}
	return out
}

// IntersectionPct computes one cell of Table 2: the share of app A's
// total instruction footprint covered by the intersection of A's and B's
// shared-code pages (identified by file-keyed page identities).
func IntersectionPct(aShared, bShared []uint64, aFootprint int) float64 {
	if aFootprint == 0 {
		return 0
	}
	bset := make(map[uint64]bool, len(bShared))
	for _, pg := range bShared {
		bset[pg] = true
	}
	n := 0
	for _, pg := range aShared {
		if bset[pg] {
			n++
		}
	}
	return 100 * float64(n) / float64(aFootprint)
}

// SharedCodeKeys is SharedCodePages with pages identified by their
// backing object and offset instead of their virtual address: two
// processes executing the same page of the same library produce the same
// key even if one of them mapped an unrelated file at the same address.
// This is the identity Table 2's cross-application intersections need.
func SharedCodeKeys(smaps []vm.Smaps, pages []arch.VirtAddr, zygoteOnly bool) []uint64 {
	var out []uint64
	for _, pg := range pages {
		i := sort.Search(len(smaps), func(i int) bool { return smaps[i].End > pg })
		if i >= len(smaps) || pg < smaps[i].Start {
			continue
		}
		c := smaps[i].Category
		if zygoteOnly && !c.IsZygotePreloaded() || !zygoteOnly && !c.IsSharedCode() {
			continue
		}
		h := fnv.New64a()
		h.Write([]byte(smaps[i].Name))
		key := h.Sum64() ^ uint64((pg-smaps[i].Start)>>arch.PageShift)
		out = append(out, key)
	}
	return out
}

// SparsityResult is the Figure 4 analysis of one accessed-page set.
type SparsityResult struct {
	// CDF is the distribution of untouched 4KB pages within each
	// touched 64KB chunk (0..15).
	CDF *stats.CDF
	// Pages4KB is the footprint in 4KB pages (what 4KB mappings cost).
	Pages4KB int
	// Chunks64KB is the number of 64KB chunks touched (what 64KB
	// mappings would cost, in 16-page units).
	Chunks64KB int
}

// The sparsity study measures in 64KB chunks — the ARMv7 large-page
// size the paper's Figure 4 uses. This is a property of the measurement,
// not of the simulated MMU, so it stays fixed regardless of architecture.
const (
	chunkShift = 16
	chunkSize  = 1 << chunkShift
)

// Sparsity maps each accessed page to its 64KB-aligned chunk and counts
// the untouched 4KB pages within each touched chunk.
func Sparsity(pages []arch.VirtAddr) SparsityResult {
	touched := make(map[arch.VirtAddr]int)
	for _, pg := range pages {
		touched[pg>>chunkShift]++
	}
	cdf := stats.NewCDF()
	for _, n := range touched {
		cdf.Add(16 - n)
	}
	return SparsityResult{CDF: cdf, Pages4KB: len(pages), Chunks64KB: len(touched)}
}

// Memory4KB returns the physical memory in bytes consumed by mapping the
// footprint with 4KB pages.
func (r SparsityResult) Memory4KB() int { return r.Pages4KB * arch.PageSize }

// Memory64KB returns the physical memory consumed with 64KB pages.
func (r SparsityResult) Memory64KB() int { return r.Chunks64KB * chunkSize }

// WasteFactor returns how much more physical memory 64KB pages consume
// than 4KB pages for this footprint (the paper reports 2.6x on average).
func (r SparsityResult) WasteFactor() float64 {
	if r.Pages4KB == 0 {
		return 0
	}
	return float64(r.Memory64KB()) / float64(r.Memory4KB())
}

// UnionPages merges several accessed-page sets (the "Union" series of
// Figure 4).
func UnionPages(sets ...[]arch.VirtAddr) []arch.VirtAddr {
	seen := make(map[arch.VirtAddr]bool)
	var out []arch.VirtAddr
	for _, set := range sets {
		for _, pg := range set {
			if !seen[pg] {
				seen[pg] = true
				out = append(out, pg)
			}
		}
	}
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out
}
