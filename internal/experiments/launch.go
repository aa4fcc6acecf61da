// The application-launch experiments of Section 4.2.2: execution time
// (Figure 7), L1 instruction cache stall cycles (Figure 8), and the PTPs
// allocated and file-backed-mapping page faults during launch (Figure 9),
// across six kernel/layout configurations.

package experiments

import (
	"fmt"
	"math/rand"

	"repro/internal/android"
	"repro/internal/core"
	"repro/internal/stats"
	"repro/internal/sweep"
	"repro/internal/workload"
)

// LaunchConfig is one bar group of Figures 7-9.
type LaunchConfig struct {
	Kernel core.Config
	Layout android.Layout
}

// Label renders the configuration as in the paper's figure legends.
func (c LaunchConfig) Label() string {
	if c.Layout == android.Layout2MB {
		return c.Kernel.Name() + "-2MB"
	}
	return c.Kernel.Name()
}

// LaunchConfigs returns the six configurations of Figures 7-9.
func LaunchConfigs() []LaunchConfig {
	return []LaunchConfig{
		{core.Stock(), android.LayoutOriginal},
		{core.SharedPTP(), android.LayoutOriginal},
		{core.SharedPTPTLB(), android.LayoutOriginal},
		{core.Stock(), android.Layout2MB},
		{core.SharedPTP(), android.Layout2MB},
		{core.SharedPTPTLB(), android.Layout2MB},
	}
}

// launchSeries holds one configuration's sweep measurements.
type launchSeries struct {
	config       LaunchConfig
	cycles       []float64
	icacheStalls []float64
	fileFaults   []float64
	ptps         []float64
}

type launchSweep struct {
	series []launchSeries
}

// launchData runs (once per session) the HelloWorld launch sweep: for
// each configuration, boot a system and launch the app Params.LaunchRuns
// times, exiting each instance, exactly as repeated launches on a running
// device.
func (s *Session) launchData() (*launchSweep, error) {
	s.launchOnce.Do(func() {
		s.launch, s.launchErr = s.runLaunchSweep()
		s.launchErr = sweepErr("launch sweep (Figures 7-9)", s.launchErr)
	})
	return s.launch, s.launchErr
}

// runLaunchSweep fans the six configurations out over the worker pool:
// each configuration is one scenario with its own booted system, and the
// runs within a configuration stay sequential because later launches
// warm-start from the state earlier ones left in the zygote.
func (s *Session) runLaunchSweep() (*launchSweep, error) {
	if err := s.Params.Validate(); err != nil {
		return nil, err
	}
	spec := workload.HelloWorldSpec()
	u := s.Universe()
	cfgs := LaunchConfigs()
	scenarios := make([]sweep.Scenario[launchSeries], len(cfgs))
	for i, cfg := range cfgs {
		cfg := cfg
		scenarios[i] = sweep.Scenario[launchSeries]{
			Name: "launch/" + cfg.Label(),
			Run: func(*rand.Rand) (launchSeries, error) {
				return s.runLaunchSeries(cfg, spec, u)
			},
		}
	}
	series, err := sweep.Run(s.workers(), scenarios)
	if err != nil {
		return nil, err
	}
	return &launchSweep{series: series}, nil
}

// runLaunchSeries measures one configuration's launch distribution. Each
// launch seeds its own PRNG from (app seed, run index) inside LaunchApp,
// so the series is a pure function of the configuration.
func (s *Session) runLaunchSeries(cfg LaunchConfig, spec workload.AppSpec, u *workload.Universe) (launchSeries, error) {
	sys, err := s.Boot(cfg.Kernel, cfg.Layout)
	if err != nil {
		return launchSeries{}, err
	}
	prof := workload.BuildProfile(u, spec)
	series := launchSeries{config: cfg}
	for run := 0; run < s.Params.LaunchRuns; run++ {
		app, ls, err := sys.LaunchApp(prof, int64(run))
		if err != nil {
			return launchSeries{}, fmt.Errorf("experiments: launch sweep %s run %d: %w", cfg.Label(), run, err)
		}
		series.cycles = append(series.cycles, float64(ls.Cycles))
		series.icacheStalls = append(series.icacheStalls, float64(ls.ICacheStalls))
		series.fileFaults = append(series.fileFaults, float64(ls.FileFaults))
		series.ptps = append(series.ptps, float64(ls.PTPsAllocated))
		sys.Kernel.Exit(app.Proc)
	}
	return series, nil
}

// Figure7Result is the launch execution-time box plot.
type Figure7Result struct {
	Rows []DistributionRow
	// SpeedupPct is the median improvement of Shared PTP & TLB over
	// stock, original layout (paper: 7%) and 2MB layout (paper: 10%).
	SpeedupPctOriginal float64
	SpeedupPct2MB      float64
}

// DistributionRow is one configuration's five-number summary.
type DistributionRow struct {
	Config  string
	Summary stats.FiveNum
}

// Figure7 measures launch execution time across the six configurations.
func (s *Session) Figure7() (*Figure7Result, error) {
	sweep, err := s.launchData()
	if err != nil {
		return nil, err
	}
	r := &Figure7Result{}
	medians := map[string]float64{}
	for _, ser := range sweep.series {
		sum := stats.Summarize(ser.cycles)
		r.Rows = append(r.Rows, DistributionRow{Config: ser.config.Label(), Summary: sum})
		medians[ser.config.Label()] = sum.Median
	}
	r.SpeedupPctOriginal = 100 * (1 - medians["Shared PTP & TLB"]/medians["Stock Android"])
	r.SpeedupPct2MB = 100 * (1 - medians["Shared PTP & TLB-2MB"]/medians["Stock Android-2MB"])
	return r, nil
}

// Table renders the box plots.
func (r *Figure7Result) Table() *Table {
	t := distributionTable("Figure 7: application launch execution time (cycles x10^6)", "cycles", r.Rows)
	orig := Val{V: r.SpeedupPctOriginal, Key: "speedup_pct_original"}.withPaper(7)
	mb := Val{V: r.SpeedupPct2MB, Key: "speedup_pct_2mb"}.withPaper(10)
	t.note("median launch speedup: %.1f%% original (paper: %g%%), %.1f%% 2MB (paper: %g%%)",
		orig, paperOf(orig), mb, paperOf(mb))
	return t
}

// distributionTable renders five-number summaries in millions, keyed
// "<quartile>_<prefix>.<config>".
func distributionTable(title, prefix string, rows []DistributionRow) *Table {
	t := newTable(title, "Config", "Min", "Q1", "Median", "Q3", "Max")
	for _, row := range rows {
		f, key := row.Summary, prefix+"."+row.Config
		mega := func(q string, v float64) Cell { return cell("%v", Val{V: v, Key: q + "_" + key, Unit: mega}) }
		t.row(text(row.Config), mega("min", f.Min), mega("q1", f.Q1), mega("median", f.Median), mega("q3", f.Q3), mega("max", f.Max))
	}
	return t
}

// Figure8Result is the launch L1 I-cache stall box plot.
type Figure8Result struct {
	Rows []DistributionRow
	// ReductionPctOriginal / 2MB are the median stall reductions of
	// Shared PTP & TLB vs stock (paper: 15% and 24%).
	ReductionPctOriginal float64
	ReductionPct2MB      float64
}

// Figure8 measures launch L1 instruction cache stall cycles.
func (s *Session) Figure8() (*Figure8Result, error) {
	sweep, err := s.launchData()
	if err != nil {
		return nil, err
	}
	r := &Figure8Result{}
	medians := map[string]float64{}
	for _, ser := range sweep.series {
		sum := stats.Summarize(ser.icacheStalls)
		r.Rows = append(r.Rows, DistributionRow{Config: ser.config.Label(), Summary: sum})
		medians[ser.config.Label()] = sum.Median
	}
	r.ReductionPctOriginal = 100 * (1 - medians["Shared PTP & TLB"]/medians["Stock Android"])
	r.ReductionPct2MB = 100 * (1 - medians["Shared PTP & TLB-2MB"]/medians["Stock Android-2MB"])
	return r, nil
}

// Table renders the box plots.
func (r *Figure8Result) Table() *Table {
	t := distributionTable("Figure 8: application launch L1 instruction cache stall cycles (x10^6)", "icache_stalls", r.Rows)
	orig := Val{V: r.ReductionPctOriginal, Key: "reduction_pct_original"}.withPaper(15)
	mb := Val{V: r.ReductionPct2MB, Key: "reduction_pct_2mb"}.withPaper(24)
	t.note("median I-cache stall reduction: %.1f%% original (paper: %g%%), %.1f%% 2MB (paper: %g%%)",
		orig, paperOf(orig), mb, paperOf(mb))
	return t
}

// Figure9Result is the launch PTP-allocation and file-fault comparison.
type Figure9Result struct {
	Rows []Figure9Row
}

// Figure9Row is one configuration's launch counters, as means over the
// sweep, with values normalized to the stock kernel / original layout.
type Figure9Row struct {
	Config        string
	PTPs          float64
	FileFaults    float64
	PTPsNormPct   float64
	FaultsNormPct float64
}

// Figure9 reports the PTPs allocated and page faults for file-backed
// mappings during launch.
func (s *Session) Figure9() (*Figure9Result, error) {
	sweep, err := s.launchData()
	if err != nil {
		return nil, err
	}
	r := &Figure9Result{}
	basePTPs := stats.Mean(sweep.series[0].ptps)
	baseFaults := stats.Mean(sweep.series[0].fileFaults)
	for _, ser := range sweep.series {
		p := stats.Mean(ser.ptps)
		f := stats.Mean(ser.fileFaults)
		r.Rows = append(r.Rows, Figure9Row{
			Config:        ser.config.Label(),
			PTPs:          p,
			FileFaults:    f,
			PTPsNormPct:   stats.Normalize(basePTPs, p),
			FaultsNormPct: stats.Normalize(baseFaults, f),
		})
	}
	return r, nil
}

// Table renders the figure.
func (r *Figure9Result) Table() *Table {
	t := newTable("Figure 9: PTPs allocated and file-backed-mapping page faults during launch",
		"Config", "PTPs", "PTPs (% of stock)", "File faults", "Faults (% of stock)")
	for _, row := range r.Rows {
		t.row(text(row.Config), numCell(row.PTPs, "ptps."+row.Config), pctCell(row.PTPsNormPct, "ptps_norm_pct."+row.Config),
			numCell(row.FileFaults, "file_faults."+row.Config), pctCell(row.FaultsNormPct, "faults_norm_pct."+row.Config))
	}
	return t
}
