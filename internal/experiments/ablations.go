// Ablations for the design tradeoffs discussed in Section 3.1.3: sharing
// the stack's PTPs, copying only referenced PTEs on unsharing, and the
// hypothetical x86-style level-1 write protection that would remove the
// per-PTE write-protect pass from fork.

package experiments

import (
	"fmt"

	"repro/internal/android"
	"repro/internal/arch"
	"repro/internal/core"
	"repro/internal/stats"
	"repro/internal/sweep"
	"repro/internal/workload"
)

// pairMeasure is the common two-quantity result of the ablation
// measurements, run as a baseline/variant scenario pair.
type pairMeasure struct{ a, b float64 }

// AblationResult compares a design variant against the baseline shared-
// PTP kernel.
type AblationResult struct {
	Name     string
	Rows     []AblationRow
	Footnote string
}

// AblationRow is one measured quantity.
type AblationRow struct {
	Metric   string
	Baseline float64
	Variant  float64
}

// StackSharingAblation measures what sharing the stack's PTP at fork buys
// (nothing: the stack is written immediately, so the share is followed by
// an unshare).
func (s *Session) StackSharingAblation() (*AblationResult, error) {
	measure := func(cfg core.Config) (forkCycles, faultsToFirstWrite float64, err error) {
		sys, err := s.Boot(cfg, android.LayoutOriginal)
		if err != nil {
			return 0, 0, err
		}
		child, err := sys.ZygoteFork("app")
		if err != nil {
			return 0, 0, err
		}
		cyc0 := child.Ctx.Stats.Cycles
		err = sys.Kernel.Run(child, func() error {
			return sys.Kernel.CPU.AccessBatch([]arch.RefRun{{VA: sys.StackTouchVA(0), Count: 1, Kind: arch.AccessWrite}})
		})
		if err != nil {
			return 0, 0, err
		}
		return float64(child.ForkStats.Cycles), float64(child.Ctx.Stats.Cycles - cyc0), nil
	}
	b, v, err := sweep.Pair(s.workers(), "ablation-stack", func(variant bool) (pairMeasure, error) {
		cfg := core.SharedPTP()
		cfg.ShareStackPTPs = variant
		fork, write, err := measure(cfg)
		return pairMeasure{a: fork, b: write}, err
	})
	if err != nil {
		return nil, err
	}
	return &AblationResult{
		Name: "Stack PTP sharing (design choice: do not share the stack)",
		Rows: []AblationRow{
			{Metric: "fork cycles", Baseline: b.a, Variant: v.a},
			{Metric: "first stack write cycles", Baseline: b.b, Variant: v.b},
		},
		Footnote: "sharing the stack trades a cheaper fork for an immediate unshare on the first write",
	}, nil
}

// CopyReferencedAblation measures the unsharing cost with the full-copy
// policy versus copying only referenced (or fork-copied) PTEs.
func (s *Session) CopyReferencedAblation() (*AblationResult, error) {
	measure := func(cfg core.Config) (ptesCopied, extraFaults float64, err error) {
		sys, err := s.Boot(cfg, android.LayoutOriginal)
		if err != nil {
			return 0, 0, err
		}
		prof := workload.BuildProfile(s.Universe(), mustSpecP(s, "Adobe Reader"))
		app, _, err := sys.LaunchApp(prof, 1)
		if err != nil {
			return 0, 0, err
		}
		rs, err := app.Run()
		if err != nil {
			return 0, 0, err
		}
		defer sys.Kernel.Exit(app.Proc)
		return float64(rs.PTEsCopied), float64(rs.FileFaults), nil
	}
	b, v, err := sweep.Pair(s.workers(), "ablation-refcopy", func(variant bool) (pairMeasure, error) {
		cfg := core.SharedPTP()
		cfg.CopyOnlyReferenced = variant
		copied, faults, err := measure(cfg)
		return pairMeasure{a: copied, b: faults}, err
	})
	if err != nil {
		return nil, err
	}
	return &AblationResult{
		Name: "Unshare copy policy: all valid PTEs vs referenced-only (Section 3.1.3)",
		Rows: []AblationRow{
			{Metric: "PTEs copied per run", Baseline: b.a, Variant: v.a},
			{Metric: "file faults per run", Baseline: b.b, Variant: v.b},
		},
		Footnote: "referenced-only copying shrinks unshare cost; skipped PTEs simply soft-fault again",
	}, nil
}

// L1WriteProtectAblation models the hardware support discussion: on x86,
// write protection in the level-1 entry covers the whole PTP, so fork
// would not need to write-protect every level-2 PTE. The variant zeroes
// the per-PTE protect cost.
func (s *Session) L1WriteProtectAblation() (*AblationResult, error) {
	measure := func(perPTEProtect int) (float64, error) {
		sys, err := s.Boot(core.SharedPTP(), android.LayoutOriginal)
		if err != nil {
			return 0, err
		}
		sys.Kernel.ForkCosts.PerPTEProtect = perPTEProtect
		child, err := sys.ZygoteFork("app") // first fork pays the protect pass
		if err != nil {
			return 0, err
		}
		defer sys.Kernel.Exit(child)
		return float64(child.ForkStats.Cycles), nil
	}
	base, variant, err := sweep.Pair(s.workers(), "ablation-l1wp", func(variant bool) (float64, error) {
		if variant {
			return measure(0)
		}
		return measure(core.DefaultForkCosts().PerPTEProtect)
	})
	if err != nil {
		return nil, err
	}
	return &AblationResult{
		Name: "First-share fork cost with x86-style level-1 write protection",
		Rows: []AblationRow{
			{Metric: "first zygote fork cycles", Baseline: base, Variant: variant},
		},
		Footnote: "with PDE-level write protection the per-PTE write-protect pass at first share disappears",
	}, nil
}

func mustSpecP(s *Session, name string) workload.AppSpec {
	spec, err := workload.SpecByName(name)
	if err != nil {
		panic(err)
	}
	return spec
}

// String renders the ablation.
func (r *AblationResult) String() string {
	t := stats.NewTable("Ablation: "+r.Name, "Metric", "Baseline", "Variant", "Delta")
	for _, row := range r.Rows {
		delta := "n/a"
		if row.Baseline != 0 {
			delta = fmt.Sprintf("%+.1f%%", 100*(row.Variant-row.Baseline)/row.Baseline)
		}
		t.AddRow(row.Metric, stats.F(row.Baseline), stats.F(row.Variant), delta)
	}
	return t.String() + r.Footnote + "\n"
}

// LargePageStudy quantifies Section 2.3.3's tradeoff on the live system:
// mapping the ART boot image with 64KB large pages cuts instruction
// main-TLB misses (one entry covers sixteen 4KB pages) but makes the
// whole image resident, wasting physical memory on the sparsely accessed
// chunks. Because ARM large-page mappings are ordinary level-2 entries,
// the PTPs holding them are shared at fork like any others — large pages
// and shared address translation compose.
func (s *Session) LargePageStudy() (*AblationResult, error) {
	measure := func(large bool) (residentMB, itlbMisses, sharedPTPs float64, err error) {
		sys, err := s.BootOpts(core.SharedPTP(), android.LayoutOriginal,
			android.Options{JavaLargePages: large})
		if err != nil {
			return 0, 0, 0, err
		}
		prof := workload.BuildProfile(s.Universe(), mustSpecP(s, "Google Calendar"))
		app, _, err := sys.LaunchApp(prof, 1)
		if err != nil {
			return 0, 0, 0, err
		}
		rs, err := app.Run()
		if err != nil {
			return 0, 0, 0, err
		}
		defer sys.Kernel.Exit(app.Proc)
		resident := float64(sys.JavaImageResidentPages()) * 4096 / (1 << 20)
		return resident, float64(app.Proc.Ctx.Stats.ITLBMainMisses), float64(rs.PTPsShared), nil
	}
	type lpMeasure struct{ resident, misses, shared float64 }
	b, v, err := sweep.Pair(s.workers(), "ablation-largepages", func(variant bool) (lpMeasure, error) {
		resident, misses, shared, err := measure(variant)
		return lpMeasure{resident: resident, misses: misses, shared: shared}, err
	})
	if err != nil {
		return nil, err
	}
	return &AblationResult{
		Name: "64KB large pages for the ART boot image (Section 2.3.3)",
		Rows: []AblationRow{
			{Metric: "boot image resident MB", Baseline: b.resident, Variant: v.resident},
			{Metric: "app instruction main-TLB misses", Baseline: b.misses, Variant: v.misses},
			{Metric: "shared PTPs at end of run", Baseline: b.shared, Variant: v.shared},
		},
		Footnote: "large pages trade physical memory for TLB reach; their PTPs still share at fork",
	}, nil
}
