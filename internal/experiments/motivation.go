// The motivation-section experiments (Section 2.3): Table 1, Figures 2
// and 3, Table 2, and Figure 4. All five are derived from one sweep that
// runs every application of the suite on the stock kernel while
// collecting page-fault traces and perf-style PC samples, exactly as the
// paper's methodology does.

package experiments

import (
	"fmt"
	"math/rand"
	"sort"
	"strings"

	"repro/internal/android"
	"repro/internal/arch"
	"repro/internal/core"
	"repro/internal/stats"
	"repro/internal/sweep"
	"repro/internal/trace"
	"repro/internal/vm"
	"repro/internal/workload"
)

// appMotivation is the per-application raw material of the motivation
// analyses.
type appMotivation struct {
	spec      workload.AppSpec
	userPct   float64
	footprint map[vm.Category]int
	fetches   map[vm.Category]uint64
	// sharedZygote and sharedAll are the executed pages restricted to
	// zygote-preloaded and to all shared code (virtual addresses, for
	// the sparsity analysis).
	sharedZygote []arch.VirtAddr
	sharedAll    []arch.VirtAddr
	// zygoteKeys and allKeys are the same sets identified by backing
	// file and offset (for the cross-application intersections).
	zygoteKeys []uint64
	allKeys    []uint64
	totalPages int
}

type motivationData struct {
	apps []appMotivation
}

const sampleEvery = 509 // instructions per PC sample

func (s *Session) motivation() (*motivationData, error) {
	s.motOnce.Do(func() {
		s.mot, s.motErr = s.runMotivation()
		s.motErr = sweepErr("motivation sweep (Tables 1-2, Figures 2-4)", s.motErr)
	})
	return s.mot, s.motErr
}

// runMotivation fans one scenario per application out over the worker
// pool. Each scenario boots its own stock-kernel system with its own
// fault trace and PC sampler, so the per-app measurements are pure
// functions of the app's profile and the order apps run in is
// irrelevant (with the stock kernel's private page tables, one app's
// execution never changed another's counters anyway).
func (s *Session) runMotivation() (*motivationData, error) {
	if err := s.Params.Validate(); err != nil {
		return nil, err
	}
	u := s.Universe()
	suite := workload.Suite()
	scenarios := make([]sweep.Scenario[appMotivation], len(suite))
	for i, spec := range suite {
		spec := spec
		scenarios[i] = sweep.Scenario[appMotivation]{
			Name: "motivation/" + spec.Name,
			Run: func(*rand.Rand) (appMotivation, error) {
				return s.runMotivationApp(spec, u)
			},
		}
	}
	apps, err := sweep.Run(s.workers(), scenarios)
	if err != nil {
		return nil, err
	}
	return &motivationData{apps: apps}, nil
}

// runMotivationApp runs one application on a freshly booted stock system
// while collecting its page-fault trace and PC samples.
func (s *Session) runMotivationApp(spec workload.AppSpec, u *workload.Universe) (appMotivation, error) {
	sys, err := s.Boot(core.Stock(), android.LayoutOriginal)
	if err != nil {
		return appMotivation{}, err
	}
	ft := &trace.FaultTrace{}
	ft.Attach(sys.Kernel)
	defer ft.Detach()

	prof := workload.BuildProfile(u, spec)
	sampler := trace.NewPCSampler()
	sys.Kernel.CPU.SampleEvery = sampleEvery
	sys.Kernel.CPU.Sampler = sampler
	app, _, err := sys.LaunchApp(prof, 1)
	if err != nil {
		return appMotivation{}, fmt.Errorf("experiments: motivation %s: %w", spec.Name, err)
	}
	if _, err := app.Run(); err != nil {
		return appMotivation{}, fmt.Errorf("experiments: motivation %s: %w", spec.Name, err)
	}
	sys.Kernel.CPU.SampleEvery, sys.Kernel.CPU.Sampler = 0, nil

	smaps := app.Proc.MM.SmapsDump()
	pages := ft.ExecPages(app.Proc.PID)
	am := appMotivation{
		spec:         spec,
		userPct:      sampler.UserPct(),
		footprint:    trace.FootprintBreakdown(smaps, pages),
		fetches:      trace.FetchBreakdown(smaps, sampler),
		sharedZygote: trace.SharedCodePages(smaps, pages, true),
		sharedAll:    trace.SharedCodePages(smaps, pages, false),
		zygoteKeys:   trace.SharedCodeKeys(smaps, pages, true),
		allKeys:      trace.SharedCodeKeys(smaps, pages, false),
		totalPages:   len(pages),
	}
	sys.Kernel.Exit(app.Proc)
	return am, nil
}

// Table1Result is the user/kernel instruction split per application.
type Table1Result struct {
	Rows []Table1Row
}

// Table1Row is one application's split.
type Table1Row struct {
	App       string
	UserPct   float64
	KernelPct float64
	PaperUser float64
}

// Table1 measures the percentage of instructions fetched in user versus
// kernel space via rate-based PC sampling.
func (s *Session) Table1() (*Table1Result, error) {
	mot, err := s.motivation()
	if err != nil {
		return nil, err
	}
	r := &Table1Result{}
	for _, am := range mot.apps {
		r.Rows = append(r.Rows, Table1Row{
			App:       am.spec.Name,
			UserPct:   am.userPct,
			KernelPct: 100 - am.userPct,
			PaperUser: am.spec.UserPct,
		})
	}
	return r, nil
}

// String renders the table.
func (r *Table1Result) String() string {
	t := stats.NewTable("Table 1: % of instructions fetched (user vs kernel space)",
		"Benchmark", "User (%)", "Kernel (%)", "Paper user (%)")
	for _, row := range r.Rows {
		t.AddRow(row.App, stats.F(row.UserPct), stats.F(row.KernelPct), stats.F(row.PaperUser))
	}
	return t.String()
}

// Figure2Result is the breakdown of accessed instruction pages.
type Figure2Result struct {
	Rows []Figure2Row
	// AvgSharedPct is the mean share of the footprint that is shared
	// code (paper: 92.8%).
	AvgSharedPct float64
}

// Figure2Row is one application's page breakdown.
type Figure2Row struct {
	App   string
	Pages map[vm.Category]int
	Total int
}

// Figure2 derives the instruction-page footprint breakdown from page
// fault traces and smaps.
func (s *Session) Figure2() (*Figure2Result, error) {
	mot, err := s.motivation()
	if err != nil {
		return nil, err
	}
	r := &Figure2Result{}
	var sharedSum float64
	for _, am := range mot.apps {
		shared := 0
		for c, n := range am.footprint {
			if c.IsSharedCode() {
				shared += n
			}
		}
		r.Rows = append(r.Rows, Figure2Row{App: am.spec.Name, Pages: am.footprint, Total: am.totalPages})
		sharedSum += 100 * float64(shared) / float64(am.totalPages)
	}
	r.AvgSharedPct = sharedSum / float64(len(mot.apps))
	return r, nil
}

var figureCategories = []vm.Category{
	vm.CatPrivateCode, vm.CatZygoteDynLib, vm.CatZygoteJavaLib,
	vm.CatZygoteBinary, vm.CatOtherDynLib, vm.CatOther,
}

// String renders the figure as a table of page counts.
func (r *Figure2Result) String() string {
	t := stats.NewTable("Figure 2: breakdown of instruction pages accessed",
		"Benchmark", "private", "zyg dynlib", "zyg java", "app_process", "other dynlib", "other", "total")
	for _, row := range r.Rows {
		cells := []string{row.App}
		for _, c := range figureCategories {
			cells = append(cells, fmt.Sprintf("%d", row.Pages[c]))
		}
		cells = append(cells, fmt.Sprintf("%d", row.Total))
		t.AddRow(cells...)
	}
	return t.String() + fmt.Sprintf("average shared-code share of footprint: %.1f%% (paper: 92.8%%)\n", r.AvgSharedPct)
}

// Figure3Result is the dynamic fetch breakdown.
type Figure3Result struct {
	Rows []Figure3Row
	// AvgSharedPct is the mean share of fetches going to shared code
	// (paper: 98%).
	AvgSharedPct float64
}

// Figure3Row is one application's fetch shares in percent.
type Figure3Row struct {
	App    string
	Shares map[vm.Category]float64
}

// Figure3 derives the dynamic instruction-fetch breakdown from the PC
// samples.
func (s *Session) Figure3() (*Figure3Result, error) {
	mot, err := s.motivation()
	if err != nil {
		return nil, err
	}
	r := &Figure3Result{}
	var sharedSum float64
	for _, am := range mot.apps {
		var total uint64
		for _, n := range am.fetches {
			total += n
		}
		shares := make(map[vm.Category]float64)
		for c, n := range am.fetches {
			shares[c] = 100 * float64(n) / float64(total)
		}
		// Sum the shared categories in fixed numeric order: float
		// addition is not associative, so letting map-iteration order
		// pick the order would make the last digits run-dependent.
		cats := make([]vm.Category, 0, len(shares))
		for c := range shares {
			cats = append(cats, c)
		}
		sort.Slice(cats, func(i, j int) bool { return cats[i] < cats[j] })
		var shared float64
		for _, c := range cats {
			if c.IsSharedCode() {
				shared += shares[c]
			}
		}
		r.Rows = append(r.Rows, Figure3Row{App: am.spec.Name, Shares: shares})
		sharedSum += shared
	}
	r.AvgSharedPct = sharedSum / float64(len(mot.apps))
	return r, nil
}

// String renders the figure.
func (r *Figure3Result) String() string {
	t := stats.NewTable("Figure 3: breakdown of % of instructions fetched (user space)",
		"Benchmark", "private", "zyg dynlib", "zyg java", "app_process", "other dynlib", "other")
	for _, row := range r.Rows {
		cells := []string{row.App}
		for _, c := range figureCategories {
			cells = append(cells, stats.Pct(row.Shares[c]))
		}
		t.AddRow(cells...)
	}
	return t.String() + fmt.Sprintf("average shared-code share of fetches: %.1f%% (paper: 98%%)\n", r.AvgSharedPct)
}

// Table2Result is the shared-code commonality matrix.
type Table2Result struct {
	// Apps are the row/column applications of the displayed matrix
	// (the paper shows four of the eleven).
	Apps []string
	// ZygotePct[i][j] is the % of app i's footprint covered by the
	// intersection of i's and j's zygote-preloaded shared code;
	// AllPct additionally includes other shared code.
	ZygotePct [][]float64
	AllPct    [][]float64
	// AvgZygote and AvgAll are the all-pairs averages over the whole
	// suite (paper: 37.9% and 45.7%).
	AvgZygote float64
	AvgAll    float64
}

// table2Apps are the four applications displayed in the paper's Table 2.
var table2Apps = []string{"Adobe Reader", "Android Browser", "MX Player", "Laya Music Player"}

// Table2 computes the pairwise intersections of shared-code footprints.
func (s *Session) Table2() (*Table2Result, error) {
	mot, err := s.motivation()
	if err != nil {
		return nil, err
	}
	byName := make(map[string]*appMotivation)
	for i := range mot.apps {
		byName[mot.apps[i].spec.Name] = &mot.apps[i]
	}
	r := &Table2Result{Apps: table2Apps}
	for _, an := range table2Apps {
		a := byName[an]
		var zrow, arow []float64
		for _, bn := range table2Apps {
			b := byName[bn]
			if an == bn {
				zrow = append(zrow, -1)
				arow = append(arow, -1)
				continue
			}
			zrow = append(zrow, trace.IntersectionPct(a.zygoteKeys, b.zygoteKeys, a.totalPages))
			arow = append(arow, trace.IntersectionPct(a.allKeys, b.allKeys, a.totalPages))
		}
		r.ZygotePct = append(r.ZygotePct, zrow)
		r.AllPct = append(r.AllPct, arow)
	}
	// All-pairs averages over the full suite.
	var zsum, asum float64
	var n int
	for i := range mot.apps {
		for j := range mot.apps {
			if i == j {
				continue
			}
			a, b := &mot.apps[i], &mot.apps[j]
			zsum += trace.IntersectionPct(a.zygoteKeys, b.zygoteKeys, a.totalPages)
			asum += trace.IntersectionPct(a.allKeys, b.allKeys, a.totalPages)
			n++
		}
	}
	r.AvgZygote = zsum / float64(n)
	r.AvgAll = asum / float64(n)
	return r, nil
}

// String renders the matrix.
func (r *Table2Result) String() string {
	t := stats.NewTable("Table 2: % of row app's instruction footprint intersecting column app's: zygote-preloaded (all shared code)",
		append([]string{"App"}, r.Apps...)...)
	for i, an := range r.Apps {
		cells := []string{an}
		for j := range r.Apps {
			if i == j {
				cells = append(cells, "-")
			} else {
				cells = append(cells, fmt.Sprintf("%.1f (%.1f)", r.ZygotePct[i][j], r.AllPct[i][j]))
			}
		}
		t.AddRow(cells...)
	}
	return t.String() + fmt.Sprintf("all-pairs average: %.1f%% zygote-preloaded, %.1f%% all shared (paper: 37.9%% / 45.7%%)\n",
		r.AvgZygote, r.AvgAll)
}

// Figure4Result is the large-page sparsity study.
type Figure4Result struct {
	Rows []Figure4Row
	// Union is the analysis of the union of all apps' zygote-preloaded
	// accessed code.
	Union Figure4Row
	// AvgWasteFactor is the mean 64KB/4KB memory ratio (paper: 2.6x).
	AvgWasteFactor float64
}

// Figure4Row is the sparsity of one accessed-page set.
type Figure4Row struct {
	App string
	// TailAt9 is the fraction of 64KB chunks with more than 9 of their
	// 16 4KB pages untouched (the paper: ~60% of cases).
	TailAt9 float64
	// Mem4KB and Mem64KB are the physical bytes needed under each page
	// size.
	Mem4KB  int
	Mem64KB int
	// Waste is Mem64KB / Mem4KB.
	Waste float64
	// CDF holds the full distribution for plotting.
	CDF *stats.CDF
}

// Figure4 maps each application's zygote-preloaded accessed code onto
// 64KB chunks and reports how sparsely the chunks are used.
func (s *Session) Figure4() (*Figure4Result, error) {
	mot, err := s.motivation()
	if err != nil {
		return nil, err
	}
	r := &Figure4Result{}
	var sets [][]arch.VirtAddr
	var wasteSum float64
	for _, am := range mot.apps {
		sp := trace.Sparsity(am.sharedZygote)
		r.Rows = append(r.Rows, figure4Row(am.spec.Name, sp))
		sets = append(sets, am.sharedZygote)
		wasteSum += sp.WasteFactor()
	}
	union := trace.Sparsity(trace.UnionPages(sets...))
	r.Union = figure4Row("Union", union)
	r.AvgWasteFactor = wasteSum / float64(len(mot.apps))
	return r, nil
}

func figure4Row(name string, sp trace.SparsityResult) Figure4Row {
	return Figure4Row{
		App:     name,
		TailAt9: sp.CDF.Tail(10),
		Mem4KB:  sp.Memory4KB(),
		Mem64KB: sp.Memory64KB(),
		Waste:   sp.WasteFactor(),
		CDF:     sp.CDF,
	}
}

// String renders the figure.
func (r *Figure4Result) String() string {
	t := stats.NewTable("Figure 4: sparsity of 64KB pages for zygote-preloaded shared code",
		"App", ">9 of 16 pages untouched", "4KB mem (MB)", "64KB mem (MB)", "64KB/4KB")
	rows := append(append([]Figure4Row(nil), r.Rows...), r.Union)
	for _, row := range rows {
		t.AddRow(row.App,
			stats.Pct(100*row.TailAt9),
			stats.F(float64(row.Mem4KB)/(1<<20)),
			stats.F(float64(row.Mem64KB)/(1<<20)),
			fmt.Sprintf("%.2fx", row.Waste))
	}
	var b strings.Builder
	b.WriteString(t.String())
	fmt.Fprintf(&b, "average 64KB/4KB memory factor: %.2fx (paper: 2.6x)\n", r.AvgWasteFactor)
	return b.String()
}
