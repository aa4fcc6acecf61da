// The fork experiments: Table 3 (instruction PTEs inherited from the
// zygote on cold and warm starts) and Table 4 (zygote fork cost under the
// three kernels).

package experiments

import (
	"fmt"
	"math/rand"

	"repro/internal/android"
	"repro/internal/core"
	"repro/internal/sweep"
	"repro/internal/workload"
)

// Table3Result reports, per application, how many of its instruction
// PTEs are already populated in the shared PTPs it inherits at fork.
type Table3Result struct {
	Rows []Table3Row
}

// Table3Row is one application's inherited-PTE counts.
type Table3Row struct {
	App string
	// Cold is the count when the application is the first to run after
	// boot; Warm is the count when it is reinvoked after its first
	// instantiation.
	Cold, Warm int
	// PaperCold and PaperWarm are Table 3's values.
	PaperCold, PaperWarm int
}

// Table3 measures inherited instruction PTEs by forking a probe child
// and counting the valid PTEs among the pages the application executes —
// before (cold) and after (warm) the application's first full run.
func (s *Session) Table3() (*Table3Result, error) {
	u := s.Universe()
	suite := workload.Suite()
	scenarios := make([]sweep.Scenario[Table3Row], len(suite))
	for i, spec := range suite {
		spec := spec
		scenarios[i] = sweep.Scenario[Table3Row]{
			Name: "table3/" + spec.Name,
			Run: func(*rand.Rand) (Table3Row, error) {
				sys, err := s.Boot(core.SharedPTP(), android.LayoutOriginal)
				if err != nil {
					return Table3Row{}, err
				}
				prof := workload.BuildProfile(u, spec)
				cold, err := countInherited(sys, prof)
				if err != nil {
					return Table3Row{}, fmt.Errorf("experiments: table 3 %s: %w", spec.Name, err)
				}
				// First instantiation: launch, run, exit.
				app, _, err := sys.LaunchApp(prof, 1)
				if err != nil {
					return Table3Row{}, err
				}
				if _, err := app.Run(); err != nil {
					return Table3Row{}, err
				}
				sys.Kernel.Exit(app.Proc)
				warm, err := countInherited(sys, prof)
				if err != nil {
					return Table3Row{}, err
				}
				return Table3Row{
					App: spec.Name, Cold: cold, Warm: warm,
					PaperCold: spec.ColdPTEs, PaperWarm: spec.WarmPTEs,
				}, nil
			},
		}
	}
	rows, err := sweep.Run(s.workers(), scenarios)
	if err != nil {
		return nil, err
	}
	return &Table3Result{Rows: rows}, nil
}

// countInherited forks a probe child and counts how many of the pages in
// the application's preloaded-code footprint already have valid PTEs in
// the child's inherited page table.
func countInherited(sys *android.System, prof *workload.Profile) (int, error) {
	probe, err := sys.ZygoteFork("probe")
	if err != nil {
		return 0, err
	}
	defer sys.Kernel.Exit(probe)
	n := 0
	for _, pg := range prof.ZygotePreloaded {
		va := sys.CodePageVA(pg)
		if pte := probe.MM.PT.PTEAt(va); pte != nil && pte.Valid() {
			n++
		}
	}
	return n, nil
}

// Table renders the table, in the paper's x100 units.
func (r *Table3Result) Table() *Table {
	t := newTable("Table 3: # instruction PTEs inherited from the zygote (x100)",
		"Benchmark", "Cold", "Warm", "Paper cold", "Paper warm")
	for _, row := range r.Rows {
		cold := Val{V: float64(row.Cold), Key: "cold_ptes." + row.App, Unit: hundreds}.withPaper(float64(row.PaperCold))
		warm := Val{V: float64(row.Warm), Key: "warm_ptes." + row.App, Unit: hundreds}.withPaper(float64(row.PaperWarm))
		t.row(text(row.App), cell("%v", cold), cell("%v", warm), cell("%v", paperOf(cold)), cell("%v", paperOf(warm)))
	}
	return t
}

// Table4Result is the zygote fork comparison.
type Table4Result struct {
	Rows []Table4Row
	// Speedup is stock cycles / shared cycles (paper: 2.1x).
	Speedup float64
	// CopiedSlowdownPct is the Copied PTEs kernel's fork-time increase
	// over stock (paper: +58.6%).
	CopiedSlowdownPct float64
}

// Table4Row is one kernel's fork statistics (minimum-cycle round of the
// sweep, as the paper reports the minimum over 40 rounds).
type Table4Row struct {
	Kernel        string
	Cycles        uint64
	PTPsAllocated int
	SharedPTPs    int
	PTEsCopied    int
}

// Table4 measures the cost of a zygote fork under the stock kernel, the
// Copied PTEs kernel, and the Shared PTPs kernel: 40 rounds each, with
// the minimum-cycles round reported.
func (s *Session) Table4() (*Table4Result, error) {
	const rounds = 40
	kernels := []core.Config{core.SharedPTP(), core.Stock(), core.CopiedPTEs()}
	scenarios := make([]sweep.Scenario[Table4Row], len(kernels))
	for i, cfg := range kernels {
		cfg := cfg
		scenarios[i] = sweep.Scenario[Table4Row]{
			Name: "table4/" + cfg.Name(),
			Run: func(*rand.Rand) (Table4Row, error) {
				sys, err := s.Boot(cfg, android.LayoutOriginal)
				if err != nil {
					return Table4Row{}, err
				}
				var best *core.ForkStats
				for round := 0; round < rounds; round++ {
					child, err := sys.ZygoteFork("app")
					if err != nil {
						return Table4Row{}, fmt.Errorf("experiments: table 4 %s round %d: %w", cfg.Name(), round, err)
					}
					fs := child.ForkStats
					sys.Kernel.Exit(child)
					if best == nil || fs.Cycles < best.Cycles {
						best = &fs
					}
				}
				return Table4Row{
					Kernel:        cfg.Name(),
					Cycles:        best.Cycles,
					PTPsAllocated: best.PTPsAllocated,
					SharedPTPs:    best.PTPsShared,
					PTEsCopied:    best.PTEsCopied,
				}, nil
			},
		}
	}
	rows, err := sweep.Run(s.workers(), scenarios)
	if err != nil {
		return nil, err
	}
	r := &Table4Result{Rows: rows}
	shared, stock, copied := r.Rows[0], r.Rows[1], r.Rows[2]
	r.Speedup = float64(stock.Cycles) / float64(shared.Cycles)
	r.CopiedSlowdownPct = 100 * (float64(copied.Cycles)/float64(stock.Cycles) - 1)
	return r, nil
}

// Table renders the table.
func (r *Table4Result) Table() *Table {
	t := newTable("Table 4: zygote fork performance (min over 40 rounds)",
		"Kernel", "Cycles (x10^6)", "PTPs allocated", "Shared PTPs", "PTEs copied")
	for _, row := range r.Rows {
		t.row(text(row.Kernel),
			cell("%v", Val{V: float64(row.Cycles), Key: "fork_cycles." + row.Kernel, Unit: mega}),
			countCell(row.PTPsAllocated, "ptps_allocated."+row.Kernel),
			countCell(row.SharedPTPs, "shared_ptps."+row.Kernel),
			countCell(row.PTEsCopied, "ptes_copied."+row.Kernel))
	}
	speedup := Val{V: r.Speedup, Key: "fork_speedup"}.withPaper(2.1)
	copied := Val{V: r.CopiedSlowdownPct, Key: "copied_slowdown_pct"}.withPaper(58.6)
	t.note("shared-PTP fork speedup over stock: %.2fx (paper: %gx); Copied PTEs: +%.1f%% over stock (paper: +%g%%)",
		speedup, paperOf(speedup), copied, paperOf(copied))
	return t
}
