// Scalability studies for the claims of Section 1: with private page
// tables, the memory spent on translation structures for shared regions
// "grows linearly with the number of processes", and the shared cache
// fills with duplicated PTE lines. Shared PTPs make both costs constant
// in the number of sharers.

package experiments

import (
	"fmt"
	"strconv"

	"repro/internal/android"
	"repro/internal/arch"
	"repro/internal/core"
	"repro/internal/mem"
	"repro/internal/sweep"
	"repro/internal/workload"
)

// ScalabilityResult reports page-table memory as the process count grows.
type ScalabilityResult struct {
	Rows []ScalabilityRow
}

// ScalabilityRow is one process-count measurement.
type ScalabilityRow struct {
	// Processes is the number of concurrently live applications.
	Processes int
	// StockPTPKB and SharedPTPKB are the physical KB of page-table
	// pages in use under each kernel (excluding the 16KB root tables,
	// which are inherently per-process).
	StockPTPKB  int
	SharedPTPKB int
}

// Scalability boots both kernels and keeps 1..32 forked applications
// alive simultaneously, measuring the physical memory consumed by
// page-table pages. Under the stock kernel every child gets private
// copies of the PTPs covering its (identical) inherited address space;
// under shared PTPs the translation structures for shared code are paid
// once, so the curve flattens.
//
// Each kernel is one scenario on one machine: it launches 32 hello-world
// apps in order, seeded by their index and all kept alive, and reads the
// page-table memory as soon as the live count reaches each row's count.
// Row n thus measures exactly the machine that boots and runs the first
// n launches; later launches cannot change it.
func (s *Session) Scalability() (*ScalabilityResult, error) {
	counts := []int{1, 2, 4, 8, 16, 32}
	prof := workload.BuildProfile(s.Universe(), workload.HelloWorldSpec())

	curve := func(cfg core.Config) ([]int, error) {
		sys, err := s.Boot(cfg, android.LayoutOriginal)
		if err != nil {
			return nil, err
		}
		var kb []int
		for i := 0; len(kb) < len(counts); i++ {
			// Keep the process alive: the point is concurrent sharers.
			if _, _, err := sys.LaunchApp(prof, int64(i)); err != nil {
				return nil, err
			}
			if n := i + 1; n == counts[len(kb)] {
				frames := sys.Kernel.Phys.InUseByKind(mem.FramePageTable)
				// Remove the per-process root tables (4 frames each,
				// plus the zygote's) to isolate the level-2 PTPs the
				// paper counts.
				frames -= 4 * (n + 1)
				kb = append(kb, frames*arch.PageSize/1024)
			}
		}
		return kb, nil
	}

	stock, shared, err := sweep.Pair(s.workers(), "scalability", func(variant bool) ([]int, error) {
		if variant {
			return curve(core.SharedPTP())
		}
		return curve(core.Stock())
	})
	if err != nil {
		return nil, err
	}
	r := &ScalabilityResult{}
	for i, n := range counts {
		r.Rows = append(r.Rows, ScalabilityRow{Processes: n, StockPTPKB: stock[i], SharedPTPKB: shared[i]})
	}
	return r, nil
}

// Table renders the study.
func (r *ScalabilityResult) Table() *Table {
	t := newTable("Scalability: page-table memory vs concurrent applications (Section 1)",
		"Processes", "Stock PTP KB", "Shared PTP KB", "Saving")
	for _, row := range r.Rows {
		n := strconv.Itoa(row.Processes)
		saving := 100 * (1 - float64(row.SharedPTPKB)/float64(row.StockPTPKB))
		t.row(text(n), countCell(row.StockPTPKB, "stock_ptp_kb."+n), countCell(row.SharedPTPKB, "shared_ptp_kb."+n),
			cell("%.1f%%", Val{V: saving}))
	}
	t.note("private page tables grow linearly with sharers; shared PTPs flatten the curve")
	return t
}

// CachePollutionResult reports the Figure 1 effect: duplicated PTE cache
// lines in the shared L2.
type CachePollutionResult struct {
	// Processes is the number of applications walked.
	Processes int
	// StockPTELines and SharedPTELines are the distinct L2 cache lines
	// holding leaf PTEs after every process has translated the same
	// shared-code working set.
	StockPTELines  int
	SharedPTELines int
}

// CachePollution measures how many distinct L2 lines the hardware page
// walker touches when eight processes each walk the same 512 pages of
// zygote-preloaded code. With private page tables every process's walks
// load its own PTE copies into the shared L2, displacing other data;
// with shared PTPs all processes walk the same physical words.
func (s *Session) CachePollution() (*CachePollutionResult, error) {
	const nProcs = 8
	const nPages = 512

	measure := func(cfg core.Config) (int, error) {
		sys, err := s.Boot(cfg, android.LayoutOriginal)
		if err != nil {
			return 0, err
		}
		k := sys.Kernel
		pages := s.Universe().ZygoteSet()[:nPages]

		var apps []*core.Process
		for i := 0; i < nProcs; i++ {
			p, err := sys.ZygoteFork(fmt.Sprintf("app%d", i))
			if err != nil {
				return 0, err
			}
			apps = append(apps, p)
		}
		// Record the distinct physical lines holding the leaf PTEs each
		// process's walker reads (line size 32B).
		lines := make(map[arch.PhysAddr]bool)
		for _, p := range apps {
			err := k.Run(p, func() error {
				for _, pg := range pages {
					va := sys.CodePageVA(pg)
					if err := k.CPU.AccessBatch([]arch.RefRun{{VA: va, Count: 1, Kind: arch.AccessFetch}}); err != nil {
						return err
					}
					geo := p.MM.PT.Geometry()
					l1 := p.MM.PT.Slot(geo.Slot(va))
					pa := l1.Table.PTEPhysAddr(geo.LeafIndex(va))
					lines[pa&^31] = true
				}
				return nil
			})
			if err != nil {
				return 0, err
			}
		}
		return len(lines), nil
	}

	stock, shared, err := sweep.Pair(s.workers(), "cache-pollution", func(variant bool) (int, error) {
		if variant {
			return measure(core.SharedPTP())
		}
		return measure(core.Stock())
	})
	if err != nil {
		return nil, err
	}
	return &CachePollutionResult{Processes: nProcs, StockPTELines: stock, SharedPTELines: shared}, nil
}

// Table renders the study.
func (r *CachePollutionResult) Table() *Table {
	t := newTable("Shared-cache pollution by duplicated PTEs (Figure 1 / Section 1)",
		"Kernel", "Distinct L2 PTE lines")
	t.row(text("Stock Android (private tables)"), countCell(r.StockPTELines, "stock_pte_lines"))
	t.row(text("Shared PTP"), countCell(r.SharedPTELines, "shared_pte_lines"))
	t.note("%.0f processes walking the same shared code: private tables occupy %.1fx the L2 lines",
		Val{V: float64(r.Processes), Key: "processes"}, Val{V: float64(r.StockPTELines) / float64(r.SharedPTELines)})
	return t
}

// SMPResult reports the four-core study.
type SMPResult struct {
	// Shootdowns counts TLB shootdown IPIs per kernel.
	StockShootdowns  uint64
	SharedShootdowns uint64
	// StockFaults and SharedFaults are the page faults all four apps
	// took; sharing removes the cross-core duplicates.
	StockFaults  uint64
	SharedFaults uint64
}

// SMP runs four applications pinned to the four cores of the evaluation
// platform, interleaving their quanta, under the stock and shared-PTP
// kernels. It reports the TLB shootdown IPIs each kernel issued (sharing
// adds shootdowns when PTPs unshare, stock pays them for fork-time COW)
// and the page faults taken (sharing eliminates the cross-core soft
// faults: a PTE populated by the app on core 0 serves the app on core 3).
func (s *Session) SMP() (*SMPResult, error) {
	measure := func(cfg core.Config) (uint64, uint64, error) {
		sys, err := s.BootOpts(cfg, android.LayoutOriginal, android.Options{CPUs: 4})
		if err != nil {
			return 0, 0, err
		}
		k := sys.Kernel
		var apps []*core.Process
		for i := 0; i < 4; i++ {
			p, err := sys.ZygoteFork(fmt.Sprintf("app%d", i))
			if err != nil {
				return 0, 0, err
			}
			apps = append(apps, p)
		}
		pages := s.Universe().ZygoteSet()[:1024]
		// Interleaved quanta: each app covers a slice of the shared code
		// on its own core, with occasional heap writes (unshare triggers).
		var refs arch.RefStream
		for round := 0; round < 16; round++ {
			for ci, p := range apps {
				c := k.CPUAt(ci)
				lo := (round*4 + ci) * len(pages) / 64
				hi := (round*4 + ci + 1) * len(pages) / 64
				refs.Reset()
				for _, pg := range pages[lo:hi] {
					refs.Add(sys.CodePageVA(pg), arch.AccessFetch, 1)
				}
				refs.Add(heapWriteVA(round), arch.AccessWrite, 1)
				err := k.RunOn(ci, p, func() error { return c.AccessBatch(refs.Runs()) })
				if err != nil {
					return 0, 0, err
				}
			}
		}
		// Read the counters through the uniform obs.Source surface: the
		// kernel and each address space expose snapshots rather than
		// having the campaign poke component-private fields.
		var faults uint64
		for _, p := range apps {
			faults += p.MM.Snapshot()["page_faults"]
		}
		return k.Snapshot()["tlb_shootdowns"], faults, nil
	}
	type smpMeasure struct{ shootdowns, faults uint64 }
	stock, shared, err := sweep.Pair(s.workers(), "smp", func(variant bool) (smpMeasure, error) {
		cfg := core.Stock()
		if variant {
			cfg = core.SharedPTP()
		}
		sd, f, err := measure(cfg)
		return smpMeasure{shootdowns: sd, faults: f}, err
	})
	if err != nil {
		return nil, err
	}
	return &SMPResult{
		StockShootdowns: stock.shootdowns, SharedShootdowns: shared.shootdowns,
		StockFaults: stock.faults, SharedFaults: shared.faults,
	}, nil
}

// heapWriteVA spreads the quantum's heap write across the zygote heap.
func heapWriteVA(round int) arch.VirtAddr {
	return 0x20000000 + arch.VirtAddr(round)*arch.PageSize
}

// Table renders the study.
func (r *SMPResult) Table() *Table {
	t := newTable("SMP: four cores, four applications (TLB shootdowns and faults)",
		"Kernel", "TLB shootdown IPIs", "Page faults")
	t.row(text("Stock Android"), countCell(r.StockShootdowns, "stock_shootdowns"), countCell(r.StockFaults, "stock_faults"))
	t.row(text("Shared PTP"), countCell(r.SharedShootdowns, "shared_shootdowns"), countCell(r.SharedFaults, "shared_faults"))
	t.note("sharing pays shootdowns for unshares but removes the cross-core soft faults")
	return t
}

// ChromeFamilyResult reports intra-application-family sharing.
type ChromeFamilyResult struct {
	// Pages is the browser's app-specific library footprint the helper
	// executes.
	Pages int
	// StockFaults / SharedFaults are the helper process's page faults
	// over that footprint under each kernel.
	StockFaults  uint64
	SharedFaults uint64
}

// ChromeFamily models what the suite's three independent Chrome profiles
// leave out: the real browser forks its sandbox and privilege helpers
// from the browser process itself, so the helpers inherit the browser's
// application-specific libraries exactly as applications inherit the
// zygote's. Under shared PTPs the helper's fetches of the browser's
// already-executed library pages take no faults; under the stock kernel
// it refaults every page.
func (s *Session) ChromeFamily() (*ChromeFamilyResult, error) {
	measure := func(cfg core.Config) (int, uint64, error) {
		sys, err := s.Boot(cfg, android.LayoutOriginal)
		if err != nil {
			return 0, 0, err
		}
		k := sys.Kernel
		spec, err := workload.SpecByName("Chrome")
		if err != nil {
			return 0, 0, err
		}
		prof := workload.BuildProfile(s.Universe(), spec)
		browser, _, err := sys.LaunchApp(prof, 1)
		if err != nil {
			return 0, 0, err
		}
		if _, err := browser.Run(); err != nil {
			return 0, 0, err
		}
		// The browser forks its sandbox helper, which executes the
		// browser's own (inherited) library mappings.
		pages := browser.OtherLibPages()
		helper, err := k.Fork(browser.Proc, "chrome-sandbox-helper")
		if err != nil {
			return 0, 0, err
		}
		err = k.Run(helper, func() error {
			// The inherited library pages are contiguous within each
			// mapping; the stream encoder folds them into a few runs.
			var rs arch.RefStream
			for _, va := range pages {
				rs.Add(va, arch.AccessFetch, 16)
			}
			return k.CPU.AccessBatch(rs.Runs())
		})
		if err != nil {
			return 0, 0, err
		}
		return len(pages), helper.MM.Snapshot()["file_faults"], nil
	}
	type familyMeasure struct {
		pages  int
		faults uint64
	}
	stock, shared, err := sweep.Pair(s.workers(), "chrome-family", func(variant bool) (familyMeasure, error) {
		cfg := core.Stock()
		if variant {
			cfg = core.SharedPTP()
		}
		n, f, err := measure(cfg)
		return familyMeasure{pages: n, faults: f}, err
	})
	if err != nil {
		return nil, err
	}
	return &ChromeFamilyResult{Pages: stock.pages, StockFaults: stock.faults, SharedFaults: shared.faults}, nil
}

// Table renders the study.
func (r *ChromeFamilyResult) Table() *Table {
	t := newTable("Chrome family: helper forked from the browser process",
		"Kernel", "Helper faults over browser's libs")
	t.row(text("Stock Android"), countCell(r.StockFaults, "stock_faults"))
	t.row(text("Shared PTP"), countCell(r.SharedFaults, "shared_faults"))
	t.note("the helper executes %.0f inherited library pages; sharing hands it the browser's translations",
		Val{V: float64(r.Pages), Key: "inherited_lib_pages"})
	return t
}
