package experiments

import (
	"strings"
	"testing"

	"repro/internal/android"
)

// One session for the whole test binary: the sweeps are cached, so every
// figure test reuses them (as the paper derives several figures from one
// measurement campaign). TestMain gives it an image store, and TestGolden
// then checks it as the armv7 store-cold row at 4 workers.
var session = &Session{Params: Quick(), Parallel: 4}

func TestTable1(t *testing.T) {
	r, err := session.Table1()
	if err != nil {
		t.Fatal(err)
	}
	if len(r.Rows) != 11 {
		t.Fatalf("rows = %d, want 11", len(r.Rows))
	}
	for _, row := range r.Rows {
		if row.UserPct < 0 || row.UserPct > 100 {
			t.Errorf("%s: UserPct = %v", row.App, row.UserPct)
		}
		// The measured split should track the paper's within a few points.
		if d := row.UserPct - row.PaperUser; d < -10 || d > 10 {
			t.Errorf("%s: measured %v vs paper %v", row.App, row.UserPct, row.PaperUser)
		}
	}
	if !strings.Contains(r.Table().String(), "Table 1") {
		t.Error("rendering")
	}
}

func TestFigure2(t *testing.T) {
	r, err := session.Figure2()
	if err != nil {
		t.Fatal(err)
	}
	if len(r.Rows) != 11 {
		t.Fatalf("rows = %d", len(r.Rows))
	}
	// Shared code dominates the instruction footprint (paper: 92.8%).
	if r.AvgSharedPct < 80 || r.AvgSharedPct > 100 {
		t.Errorf("AvgSharedPct = %.1f, want ~92.8", r.AvgSharedPct)
	}
	t.Logf("shared-code footprint share: %.1f%% (paper: 92.8%%)", r.AvgSharedPct)
}

func TestFigure3(t *testing.T) {
	r, err := session.Figure3()
	if err != nil {
		t.Fatal(err)
	}
	if r.AvgSharedPct < 85 || r.AvgSharedPct > 100 {
		t.Errorf("AvgSharedPct = %.1f, want ~98", r.AvgSharedPct)
	}
	t.Logf("shared-code fetch share: %.1f%% (paper: 98%%)", r.AvgSharedPct)
}

func TestTable2(t *testing.T) {
	r, err := session.Table2()
	if err != nil {
		t.Fatal(err)
	}
	if len(r.Apps) != 4 {
		t.Fatalf("apps = %d", len(r.Apps))
	}
	// All-shared intersections include the zygote-preloaded ones.
	if r.AvgAll < r.AvgZygote {
		t.Errorf("AvgAll %.1f < AvgZygote %.1f", r.AvgAll, r.AvgZygote)
	}
	if r.AvgZygote < 15 || r.AvgZygote > 60 {
		t.Errorf("AvgZygote = %.1f, want the paper's regime (~37.9)", r.AvgZygote)
	}
	t.Logf("all-pairs averages: %.1f%% zygote (paper 37.9%%), %.1f%% all (paper 45.7%%)", r.AvgZygote, r.AvgAll)
}

func TestFigure4(t *testing.T) {
	r, err := session.Figure4()
	if err != nil {
		t.Fatal(err)
	}
	if len(r.Rows) != 11 {
		t.Fatalf("rows = %d", len(r.Rows))
	}
	// 64KB pages waste memory for this footprint (paper: 2.6x).
	if r.AvgWasteFactor < 1.5 {
		t.Errorf("AvgWasteFactor = %.2f, want > 1.5", r.AvgWasteFactor)
	}
	// The union is denser than individual apps, but still sparse.
	if r.Union.Waste <= 1 {
		t.Errorf("union waste = %.2f, want > 1", r.Union.Waste)
	}
	t.Logf("average 64KB/4KB waste: %.2fx (paper 2.6x); union %.2fx", r.AvgWasteFactor, r.Union.Waste)
}

func TestTable3(t *testing.T) {
	r, err := session.Table3()
	if err != nil {
		t.Fatal(err)
	}
	if len(r.Rows) != 11 {
		t.Fatalf("rows = %d", len(r.Rows))
	}
	for _, row := range r.Rows {
		if row.Cold != row.PaperCold {
			t.Errorf("%s: cold = %d, want %d (cold start inherits exactly the zygote-populated subset)",
				row.App, row.Cold, row.PaperCold)
		}
		if row.Warm < row.Cold {
			t.Errorf("%s: warm %d < cold %d", row.App, row.Warm, row.Cold)
		}
		// Warm approaches the full footprint: the first run populated the
		// rest, minus the pages that landed in PTPs the app had already
		// unshared (its private copies die with it).
		if row.Warm < row.PaperWarm*9/10 {
			t.Errorf("%s: warm = %d, want >= %d", row.App, row.Warm, row.PaperWarm*9/10)
		}
		if row.Warm > row.PaperWarm+700 {
			t.Errorf("%s: warm = %d suspiciously above footprint %d", row.App, row.Warm, row.PaperWarm)
		}
	}
}

func TestTable4(t *testing.T) {
	r, err := session.Table4()
	if err != nil {
		t.Fatal(err)
	}
	if len(r.Rows) != 3 {
		t.Fatalf("rows = %d", len(r.Rows))
	}
	if r.Speedup < 1.7 {
		t.Errorf("fork speedup = %.2f, want ~2.1 (paper)", r.Speedup)
	}
	if r.CopiedSlowdownPct < 30 {
		t.Errorf("copied slowdown = %.1f%%, want ~58.6%%", r.CopiedSlowdownPct)
	}
	shared := r.Rows[0]
	if shared.PTPsAllocated != 1 || shared.PTEsCopied > 20 {
		t.Errorf("shared fork row = %+v", shared)
	}
	t.Logf("fork: speedup %.2fx (paper 2.1x), copied +%.1f%% (paper +58.6%%)", r.Speedup, r.CopiedSlowdownPct)
}

func TestFigures789(t *testing.T) {
	f7, err := session.Figure7()
	if err != nil {
		t.Fatal(err)
	}
	if len(f7.Rows) != 6 {
		t.Fatalf("figure 7 rows = %d", len(f7.Rows))
	}
	if f7.SpeedupPctOriginal <= 0 || f7.SpeedupPct2MB <= 0 {
		t.Errorf("launch speedups = %.1f%% / %.1f%%, want positive (paper 7%%/10%%)",
			f7.SpeedupPctOriginal, f7.SpeedupPct2MB)
	}
	t.Logf("launch speedup: %.1f%% original (paper 7%%), %.1f%% 2MB (paper 10%%)",
		f7.SpeedupPctOriginal, f7.SpeedupPct2MB)

	f8, err := session.Figure8()
	if err != nil {
		t.Fatal(err)
	}
	if f8.ReductionPctOriginal <= 0 {
		t.Errorf("icache stall reduction = %.1f%%, want positive (paper 15%%)", f8.ReductionPctOriginal)
	}
	t.Logf("icache stall reduction: %.1f%% original (paper 15%%), %.1f%% 2MB (paper 24%%)",
		f8.ReductionPctOriginal, f8.ReductionPct2MB)

	f9, err := session.Figure9()
	if err != nil {
		t.Fatal(err)
	}
	byLabel := map[string]Figure9Row{}
	for _, row := range f9.Rows {
		byLabel[row.Config] = row
	}
	stock := byLabel["Stock Android"]
	sharedTLB := byLabel["Shared PTP & TLB"]
	if stock.FileFaults < 1500 || stock.FileFaults > 2400 {
		t.Errorf("stock launch faults = %.0f, want ~1,900", stock.FileFaults)
	}
	if sharedTLB.FaultsNormPct > 15 {
		t.Errorf("shared launch faults = %.1f%% of stock, want ~6%%", sharedTLB.FaultsNormPct)
	}
	if sharedTLB.PTPsNormPct >= 100 {
		t.Errorf("shared launch PTPs = %.1f%% of stock, want < 100%%", sharedTLB.PTPsNormPct)
	}
	t.Logf("launch: faults %.0f -> %.0f (paper 1,900 -> 110); PTPs %.1f -> %.1f (paper 72 -> 23)",
		stock.FileFaults, sharedTLB.FileFaults, stock.PTPs, sharedTLB.PTPs)
}

func TestFigures101112(t *testing.T) {
	f10, err := session.Figure10()
	if err != nil {
		t.Fatal(err)
	}
	if len(f10.Rows) != 11 {
		t.Fatalf("figure 10 rows = %d", len(f10.Rows))
	}
	if f10.AvgReductionPct < 20 || f10.AvgReductionPct > 80 {
		t.Errorf("avg fault reduction = %.1f%%, want the paper's regime (38%%)", f10.AvgReductionPct)
	}
	for _, row := range f10.Rows {
		if row.ReductionPct <= 0 {
			t.Errorf("%s: reduction %.1f%%, want positive", row.App, row.ReductionPct)
		}
	}
	t.Logf("avg file-fault reduction: %.1f%% (paper 38%%)", f10.AvgReductionPct)

	f11, err := session.Figure11()
	if err != nil {
		t.Fatal(err)
	}
	if f11.AvgReductionOriginal <= 0 {
		t.Errorf("PTP reduction (orig) = %.1f%%, want positive (paper 35%%)", f11.AvgReductionOriginal)
	}
	t.Logf("avg PTP reduction: %.1f%% original (paper 35%%), %.1f%% 2MB (paper 26%%)",
		f11.AvgReductionOriginal, f11.AvgReduction2MB)

	f12, err := session.Figure12()
	if err != nil {
		t.Fatal(err)
	}
	if f12.Avg2MB <= f12.AvgOriginal {
		t.Errorf("2MB layout should share more PTPs: %.1f%% vs %.1f%%", f12.Avg2MB, f12.AvgOriginal)
	}
	t.Logf("shared PTPs: %.1f%% original (paper 39%%), %.1f%% 2MB (paper 60%%)",
		f12.AvgOriginal, f12.Avg2MB)

	pc, err := session.PTECopies()
	if err != nil {
		t.Fatal(err)
	}
	// With the 2MB layout, sharing reduces PTE copying for every app.
	for _, app := range pc.Apps {
		if pc.Copies["Shared PTP-2MB"][app] >= pc.Copies["Stock Android-2MB"][app] {
			t.Errorf("%s: 2MB sharing should cut PTE copies (%.0f vs %.0f)",
				app, pc.Copies["Shared PTP-2MB"][app], pc.Copies["Stock Android-2MB"][app])
		}
	}
}

func TestFigure13(t *testing.T) {
	r, err := session.Figure13()
	if err != nil {
		t.Fatal(err)
	}
	if len(r.Rows) != 6 {
		t.Fatalf("rows = %d", len(r.Rows))
	}
	if r.ClientImprovementPct <= 0 || r.ServerImprovementPct <= 0 {
		t.Errorf("TLB sharing improvements = %.1f%%/%.1f%%, want positive (paper 36%%/19%%)",
			r.ClientImprovementPct, r.ServerImprovementPct)
	}
	t.Logf("IPC ITLB improvement: client %.1f%% (paper up to 36%%), server %.1f%% (paper up to 19%%)",
		r.ClientImprovementPct, r.ServerImprovementPct)
}

func TestAblations(t *testing.T) {
	stack, err := session.StackSharingAblation()
	if err != nil {
		t.Fatal(err)
	}
	if len(stack.Rows) != 2 {
		t.Fatalf("stack ablation rows = %d", len(stack.Rows))
	}
	// Sharing the stack makes fork cheaper...
	if stack.Rows[0].Variant >= stack.Rows[0].Baseline {
		t.Errorf("stack sharing should cheapen fork: %v vs %v",
			stack.Rows[0].Variant, stack.Rows[0].Baseline)
	}
	// ...but the first stack write gets more expensive (the unshare).
	if stack.Rows[1].Variant <= stack.Rows[1].Baseline {
		t.Errorf("stack sharing should make the first write dearer: %v vs %v",
			stack.Rows[1].Variant, stack.Rows[1].Baseline)
	}

	ref, err := session.CopyReferencedAblation()
	if err != nil {
		t.Fatal(err)
	}
	if ref.Rows[0].Variant > ref.Rows[0].Baseline {
		t.Errorf("referenced-only should copy no more PTEs: %v vs %v",
			ref.Rows[0].Variant, ref.Rows[0].Baseline)
	}

	wp, err := session.L1WriteProtectAblation()
	if err != nil {
		t.Fatal(err)
	}
	if wp.Rows[0].Variant >= wp.Rows[0].Baseline {
		t.Errorf("L1 write protection should cheapen the first fork: %v vs %v",
			wp.Rows[0].Variant, wp.Rows[0].Baseline)
	}
}

func TestLargePageStudy(t *testing.T) {
	r, err := session.LargePageStudy()
	if err != nil {
		t.Fatal(err)
	}
	// Large pages make the whole image resident (more memory) but cut
	// instruction main-TLB misses; PTPs remain shared.
	if r.Rows[0].Variant <= r.Rows[0].Baseline {
		t.Errorf("large pages should cost memory: %.1fMB vs %.1fMB",
			r.Rows[0].Variant, r.Rows[0].Baseline)
	}
	if r.Rows[1].Variant >= r.Rows[1].Baseline {
		t.Errorf("large pages should cut ITLB misses: %.0f vs %.0f",
			r.Rows[1].Variant, r.Rows[1].Baseline)
	}
	if r.Rows[2].Variant <= 0 {
		t.Error("large-page PTPs should still be shared")
	}
	t.Logf("large pages: %.1fMB -> %.1fMB resident, ITLB misses %.0f -> %.0f",
		r.Rows[0].Baseline, r.Rows[0].Variant, r.Rows[1].Baseline, r.Rows[1].Variant)
}

func TestDomainMatchStudy(t *testing.T) {
	r, err := session.DomainMatchStudy()
	if err != nil {
		t.Fatal(err)
	}
	if r.Rows[0].Baseline == 0 {
		t.Error("the baseline workload should take domain faults")
	}
	if r.Rows[0].Variant != 0 {
		t.Errorf("hardware domain matching should eliminate domain faults, got %.0f",
			r.Rows[0].Variant)
	}
	if r.Rows[1].Variant >= r.Rows[1].Baseline {
		t.Error("removing the exception path should save cycles")
	}
}

func TestSchedulerGrouping(t *testing.T) {
	r, err := session.SchedulerGrouping()
	if err != nil {
		t.Fatal(err)
	}
	if r.FlushesGrouped >= r.FlushesInterleaved {
		t.Errorf("grouping should reduce protective flushes: %d vs %d",
			r.FlushesGrouped, r.FlushesInterleaved)
	}
	if r.Grouped >= r.Interleaved {
		t.Errorf("grouping should reduce app ITLB stalls: %d vs %d",
			r.Grouped, r.Interleaved)
	}
	t.Logf("grouping: stalls %d -> %d, flushes %d -> %d",
		r.Interleaved, r.Grouped, r.FlushesInterleaved, r.FlushesGrouped)
}

func TestScalability(t *testing.T) {
	r, err := session.Scalability()
	if err != nil {
		t.Fatal(err)
	}
	if len(r.Rows) != 6 {
		t.Fatalf("rows = %d", len(r.Rows))
	}
	// Stock grows roughly linearly; shared flattens: the saving must grow
	// monotonically with the process count.
	prev := 0.0
	for _, row := range r.Rows {
		saving := 1 - float64(row.SharedPTPKB)/float64(row.StockPTPKB)
		if saving <= prev {
			t.Errorf("saving at %d processes (%.2f) should exceed %.2f", row.Processes, saving, prev)
		}
		prev = saving
	}
	last := r.Rows[len(r.Rows)-1]
	if ratio := float64(last.StockPTPKB) / float64(last.SharedPTPKB); ratio < 2.5 {
		t.Errorf("at 32 processes the stock/shared PTP memory ratio = %.1f, want >= 2.5", ratio)
	}
	t.Logf("PTP memory at 32 processes: %dKB stock vs %dKB shared", last.StockPTPKB, last.SharedPTPKB)
}

func TestCachePollution(t *testing.T) {
	r, err := session.CachePollution()
	if err != nil {
		t.Fatal(err)
	}
	// With private tables, each of the N processes loads its own PTE
	// lines: N copies; shared PTPs collapse them to one.
	ratio := float64(r.StockPTELines) / float64(r.SharedPTELines)
	if ratio < float64(r.Processes)-1 || ratio > float64(r.Processes)+1 {
		t.Errorf("PTE line ratio = %.1f, want ~%d (one private copy per process)", ratio, r.Processes)
	}
	t.Logf("distinct L2 PTE lines: %d stock vs %d shared (%.1fx)",
		r.StockPTELines, r.SharedPTELines, ratio)
}

func TestSMP(t *testing.T) {
	r, err := session.SMP()
	if err != nil {
		t.Fatal(err)
	}
	// Sharing removes the cross-core duplicate soft faults...
	if r.SharedFaults*4 > r.StockFaults {
		t.Errorf("shared faults = %d, want well below stock %d", r.SharedFaults, r.StockFaults)
	}
	// ...at the price of shootdown IPIs for the unshares.
	if r.SharedShootdowns <= r.StockShootdowns {
		t.Errorf("shared kernel should issue more shootdowns (%d vs %d): every unshare broadcasts",
			r.SharedShootdowns, r.StockShootdowns)
	}
	t.Logf("faults %d -> %d; shootdowns %d -> %d",
		r.StockFaults, r.SharedFaults, r.StockShootdowns, r.SharedShootdowns)
}

func TestChromeFamily(t *testing.T) {
	r, err := session.ChromeFamily()
	if err != nil {
		t.Fatal(err)
	}
	if r.StockFaults == 0 {
		t.Fatal("the stock helper must refault the browser's libraries")
	}
	if r.SharedFaults != 0 {
		t.Errorf("shared helper faults = %d, want 0 (translations inherited)", r.SharedFaults)
	}
	t.Logf("helper faults over %d inherited pages: %d stock -> %d shared",
		r.Pages, r.StockFaults, r.SharedFaults)
}

func TestRenderings(t *testing.T) {
	// Every driver renders without panicking and mentions its subject.
	checks := []struct {
		name string
		fn   func() (interface{ Table() *Table }, error)
	}{
		{"Table 1", func() (interface{ Table() *Table }, error) { return session.Table1() }},
		{"Figure 2", func() (interface{ Table() *Table }, error) { return session.Figure2() }},
		{"Figure 3", func() (interface{ Table() *Table }, error) { return session.Figure3() }},
		{"Table 2", func() (interface{ Table() *Table }, error) { return session.Table2() }},
		{"Figure 4", func() (interface{ Table() *Table }, error) { return session.Figure4() }},
		{"Table 3", func() (interface{ Table() *Table }, error) { return session.Table3() }},
		{"Table 4", func() (interface{ Table() *Table }, error) { return session.Table4() }},
		{"Figure 7", func() (interface{ Table() *Table }, error) { return session.Figure7() }},
		{"Figure 8", func() (interface{ Table() *Table }, error) { return session.Figure8() }},
		{"Figure 9", func() (interface{ Table() *Table }, error) { return session.Figure9() }},
		{"Figure 10", func() (interface{ Table() *Table }, error) { return session.Figure10() }},
		{"Figure 11", func() (interface{ Table() *Table }, error) { return session.Figure11() }},
		{"Figure 12", func() (interface{ Table() *Table }, error) { return session.Figure12() }},
		{"Figure 13", func() (interface{ Table() *Table }, error) { return session.Figure13() }},
	}
	for _, c := range checks {
		r, err := c.fn()
		if err != nil {
			t.Fatalf("%s: %v", c.name, err)
		}
		if text := r.Table().String(); !strings.Contains(text, c.name) {
			t.Errorf("%s rendering does not mention itself:\n%s", c.name, text)
		}
	}
}

func TestLaunchConfigLabels(t *testing.T) {
	cfgs := LaunchConfigs()
	if len(cfgs) != 6 {
		t.Fatalf("configs = %d", len(cfgs))
	}
	if cfgs[3].Label() != "Stock Android-2MB" {
		t.Errorf("label = %q", cfgs[3].Label())
	}
	if cfgs[0].Layout != android.LayoutOriginal {
		t.Error("first config should be original layout")
	}
}
