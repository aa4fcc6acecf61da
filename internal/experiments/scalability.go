// Scalability studies for the claims of Section 1: with private page
// tables, the memory spent on translation structures for shared regions
// "grows linearly with the number of processes", and the shared cache
// fills with duplicated PTE lines. Shared PTPs make both costs constant
// in the number of sharers.

package experiments

import (
	"fmt"
	"math/rand"

	"repro/internal/android"
	"repro/internal/arch"
	"repro/internal/checkpoint"
	"repro/internal/core"
	"repro/internal/mem"
	"repro/internal/stats"
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
func (s *Session) Scalability() (*ScalabilityResult, error) {
	counts := []int{1, 2, 4, 8, 16, 32}

	measure := func(cfg core.Config, n int) (int, error) {
		sys, err := s.helloSystem(cfg, n)
		if err != nil {
			return 0, err
		}
		frames := sys.Kernel.Phys.InUseByKind(mem.FramePageTable)
		// Remove the per-process root tables (4 frames each, plus the
		// zygote's) to isolate the level-2 PTPs the paper counts.
		frames -= 4 * (n + 1)
		return frames * arch.PageSize / 1024, nil
	}

	// One scenario per (kernel, process count): 12 independent boots.
	var scenarios []sweep.Scenario[int]
	for _, n := range counts {
		for _, cfg := range []core.Config{core.Stock(), core.SharedPTP()} {
			n, cfg := n, cfg
			scenarios = append(scenarios, sweep.Scenario[int]{
				Name: fmt.Sprintf("scalability/%s/%d", cfg.Name(), n),
				Run:  func(*rand.Rand) (int, error) { return measure(cfg, n) },
			})
		}
	}
	kb, err := sweep.Run(s.workers(), scenarios)
	if err != nil {
		return nil, err
	}
	r := &ScalabilityResult{}
	for i, n := range counts {
		r.Rows = append(r.Rows, ScalabilityRow{Processes: n, StockPTPKB: kb[2*i], SharedPTPKB: kb[2*i+1]})
	}
	return r, nil
}

// helloSystem returns a machine with n hello-world applications launched
// and still alive — the scalability measurement state. With checkpoints
// it is a fork of the depth-n node of the launch chain (see helloImage);
// the whole 1..32 curve then costs 32 launches instead of 63, and the
// fork-vs-fresh invariant applied link by link makes the result
// byte-identical to the NoCheckpoint path, which boots fresh and runs
// all n launches inline.
func (s *Session) helloSystem(cfg core.Config, n int) (*android.System, error) {
	prof := workload.BuildProfile(s.Universe(), workload.HelloWorldSpec())
	if s.NoCheckpoint {
		sys, err := s.Boot(cfg, android.LayoutOriginal)
		if err != nil {
			return nil, err
		}
		for i := 0; i < n; i++ {
			// Keep the process alive: the point is concurrent sharers.
			if _, _, err := sys.LaunchApp(prof, int64(i)); err != nil {
				return nil, err
			}
		}
		return sys, nil
	}
	img, err := s.helloImage(cfg, prof, n)
	if err != nil {
		return nil, err
	}
	return img.Fork(), nil
}

// helloImage resolves the depth-n node of the hello-world launch chain:
// node 0 is the plain boot image and node i+1 derives from node i by
// launching one more app. Each link is keyed "hello-launch/i", so
// different process counts share every common prefix of the chain — a
// fork-of-a-fork tree 32 deep at the largest count — and every interior
// node is an immutable image that no measurement ever runs.
func (s *Session) helloImage(cfg core.Config, prof *workload.Profile, n int) (*checkpoint.Image, error) {
	ckpt := s.ckptCache()
	u := s.Universe()
	// baseKey is deliberately a separate, never-reassigned variable: the
	// root thunk closes over it, and closing over the mutated chain key
	// would make the root resolve to its own caller's entry and deadlock.
	bootOpts := s.bootOptions(android.Options{})
	baseKey := checkpoint.Key(cfg, android.LayoutOriginal, u, bootOpts)
	node := func() (*checkpoint.Image, error) {
		return ckpt.Image(baseKey, func() (*android.System, error) {
			return android.BootOpts(cfg, android.LayoutOriginal, u, bootOpts)
		})
	}
	key := baseKey
	for i := 0; i < n; i++ {
		i, parentKey, parent := i, key, node
		warmKey := fmt.Sprintf("hello-launch/%d", i)
		key = checkpoint.DerivedKey(parentKey, warmKey)
		node = func() (*checkpoint.Image, error) {
			return ckpt.Derived(parentKey, warmKey, parent, func(sys *android.System) error {
				_, _, err := sys.LaunchApp(prof, int64(i))
				return err
			})
		}
	}
	return node()
}

// String renders the study.
func (r *ScalabilityResult) String() string {
	t := stats.NewTable("Scalability: page-table memory vs concurrent applications (Section 1)",
		"Processes", "Stock PTP KB", "Shared PTP KB", "Saving")
	for _, row := range r.Rows {
		saving := 100 * (1 - float64(row.SharedPTPKB)/float64(row.StockPTPKB))
		t.AddRow(fmt.Sprintf("%d", row.Processes),
			fmt.Sprintf("%d", row.StockPTPKB),
			fmt.Sprintf("%d", row.SharedPTPKB),
			stats.Pct(saving))
	}
	return t.String() + "private page tables grow linearly with sharers; shared PTPs flatten the curve\n"
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

// String renders the study.
func (r *CachePollutionResult) String() string {
	t := stats.NewTable("Shared-cache pollution by duplicated PTEs (Figure 1 / Section 1)",
		"Kernel", "Distinct L2 PTE lines")
	t.AddRow("Stock Android (private tables)", fmt.Sprintf("%d", r.StockPTELines))
	t.AddRow("Shared PTP", fmt.Sprintf("%d", r.SharedPTELines))
	return t.String() + fmt.Sprintf("%d processes walking the same shared code: private tables occupy %.1fx the L2 lines\n",
		r.Processes, float64(r.StockPTELines)/float64(r.SharedPTELines))
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

// String renders the study.
func (r *SMPResult) String() string {
	t := stats.NewTable("SMP: four cores, four applications (TLB shootdowns and faults)",
		"Kernel", "TLB shootdown IPIs", "Page faults")
	t.AddRow("Stock Android", fmt.Sprintf("%d", r.StockShootdowns), fmt.Sprintf("%d", r.StockFaults))
	t.AddRow("Shared PTP", fmt.Sprintf("%d", r.SharedShootdowns), fmt.Sprintf("%d", r.SharedFaults))
	return t.String() + "sharing pays shootdowns for unshares but removes the cross-core soft faults\n"
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

// String renders the study.
func (r *ChromeFamilyResult) String() string {
	t := stats.NewTable("Chrome family: helper forked from the browser process",
		"Kernel", "Helper faults over browser's libs")
	t.AddRow("Stock Android", fmt.Sprintf("%d", r.StockFaults))
	t.AddRow("Shared PTP", fmt.Sprintf("%d", r.SharedFaults))
	return t.String() + fmt.Sprintf("the helper executes %d inherited library pages; sharing hands it the browser's translations\n", r.Pages)
}
