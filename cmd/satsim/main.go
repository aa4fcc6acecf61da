// Command satsim runs one shared-address-translation scenario: it boots
// an Android system under a chosen kernel configuration and library
// layout, launches one application from the suite, runs it to completion,
// and prints the memory-management counters the paper's evaluation reads
// (fork cost, page faults, PTPs, TLB and cache stalls).
//
// Usage:
//
//	satsim [-kernel stock|copied|shared|shared-tlb] [-layout original|2mb]
//	       [-arch armv7|sv39] [-app NAME|all] [-runs N] [-parallel N]
//	       [-json] [-list] [-imagestore DIR]
//	       [-cpuprofile FILE] [-memprofile FILE]
//
// -arch selects the simulated MMU architecture by registry name (default
// armv7); an unknown name is an error listing the registered
// architectures.
//
// -app all sweeps the whole suite, one freshly booted system per
// application, fanned out over -parallel workers (0 = GOMAXPROCS,
// 1 = serial); the output order and values are identical regardless of
// the worker count. The boot prefix is simulated once, captured as a
// checkpoint (internal/checkpoint), and forked copy-on-write for every
// application; forks are byte-identical to fresh boots (TestGolden in
// internal/experiments checks both against the committed goldens).
//
// -imagestore persists checkpoint images under DIR (default: the
// sat-sim cache directory) so later satsim processes warm-start instead
// of re-simulating the boot; -imagestore "" disables persistence.
// Stored images are fingerprint-verified on load (internal/imagestore),
// so output is byte-identical with a cold store, a warm store, or none;
// TestGolden diffs all three against testdata/satsim_email*.golden.json.
//
// -json replaces the text report with one structured document (schema
// "satsim/v1"): scenario parameters, per-run counters, the system-wide
// sharing stats, and a full obs.Registry snapshot of every metric source
// in the booted machine (kernel, per-CPU TLBs and L1 caches, shared L2).
// Like the text output it is byte-identical for every -parallel setting.
//
// -cpuprofile and -memprofile write pprof captures of the scenario (see
// README "Profiling").
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"math/rand"
	"os"
	"strings"

	"repro/internal/android"
	"repro/internal/arch"
	_ "repro/internal/arch/armv7"
	_ "repro/internal/arch/sv39"
	"repro/internal/checkpoint"
	"repro/internal/core"
	"repro/internal/imagestore"
	"repro/internal/obs"
	"repro/internal/prof"
	"repro/internal/stats"
	"repro/internal/sweep"
	"repro/internal/workload"
)

func main() {
	var o options
	flag.StringVar(&o.kernel, "kernel", "shared-tlb", "kernel config: stock, copied, shared, shared-tlb")
	flag.StringVar(&o.layout, "layout", "original", "library layout: original or 2mb")
	flag.StringVar(&o.arch, "arch", "armv7", "MMU architecture to simulate: "+strings.Join(arch.Names(), ", "))
	flag.StringVar(&o.app, "app", "Email", "application to run (see -list), or all for the whole suite")
	flag.IntVar(&o.runs, "runs", 1, "number of consecutive executions, >= 1 (warm starts after the first)")
	flag.IntVar(&o.parallel, "parallel", 0, "workers for -app all: 1 = serial, N>1 = N workers, 0 = GOMAXPROCS")
	flag.BoolVar(&o.json, "json", false, "emit one structured JSON document instead of the text report")
	storeDir := flag.String("imagestore", imagestore.DefaultDir(), "persist checkpoint images in this directory so later runs warm-start; empty disables the store (output is byte-identical either way)")
	list := flag.Bool("list", false, "list the application suite and exit")
	cpuProfile := flag.String("cpuprofile", "", "write a pprof CPU profile of the scenario to this file")
	memProfile := flag.String("memprofile", "", "write a pprof heap profile after the scenario to this file")
	flag.Parse()

	if *list {
		for _, s := range workload.Suite() {
			fmt.Printf("%-18s user %.1f%%  cold %d  warm %d PTEs\n",
				s.Name, s.UserPct, s.ColdPTEs, s.WarmPTEs)
		}
		return
	}
	err := runProfiled(os.Stdout, o, *storeDir,
		prof.Options{CPU: *cpuProfile, Mem: *memProfile})
	if err != nil {
		fmt.Fprintln(os.Stderr, "satsim:", err)
		os.Exit(1)
	}
}

// options are the scenario flags, as given on the command line.
type options struct {
	kernel, layout, arch, app string
	runs, parallel            int
	json                      bool
}

// runProfiled parses the scenario, then runs it inside the pprof capture
// lifecycle. Parsing comes first, so a bad flag never leaves behind a
// truncated profile of nothing; once profiling starts, teardown is
// deferred, so the capture is written on every return path — early
// errors included.
func runProfiled(w io.Writer, o options, storeDir string, po prof.Options) (err error) {
	cfg, layout, specs, err := o.parse()
	if err != nil {
		return err
	}
	stopProf, err := prof.Start(po)
	if err != nil {
		return err
	}
	defer func() {
		if perr := stopProf(); perr != nil && err == nil {
			err = perr
		}
	}()
	u := workload.DefaultUniverse()
	return run(w, o, cfg, layout, specs, u, openStore(storeDir, u))
}

// parse validates the scenario flags and resolves them to the kernel
// configuration, the library layout and the applications to run.
func (o options) parse() (core.Config, android.Layout, []workload.AppSpec, error) {
	var (
		cfg    core.Config
		layout android.Layout
	)
	if o.runs < 1 {
		return cfg, layout, nil, fmt.Errorf("-runs must be >= 1 (got %d)", o.runs)
	}
	if o.parallel < 0 {
		return cfg, layout, nil, fmt.Errorf("-parallel must be >= 0 (got %d)", o.parallel)
	}
	switch o.kernel {
	case "stock":
		cfg = core.Stock()
	case "copied":
		cfg = core.CopiedPTEs()
	case "shared":
		cfg = core.SharedPTP()
	case "shared-tlb":
		cfg = core.SharedPTPTLB()
	default:
		return cfg, layout, nil, fmt.Errorf("unknown kernel %q", o.kernel)
	}
	switch o.layout {
	case "original":
		layout = android.LayoutOriginal
	case "2mb":
		layout = android.Layout2MB
	default:
		return cfg, layout, nil, fmt.Errorf("unknown layout %q", o.layout)
	}
	if _, ok := arch.Lookup(o.arch); !ok {
		return cfg, layout, nil, fmt.Errorf("unknown architecture %q; valid names:\n  %s",
			o.arch, strings.Join(arch.Names(), "\n  "))
	}
	if o.app == "all" {
		return cfg, layout, workload.Suite(), nil
	}
	spec, err := workload.SpecByName(o.app)
	if err != nil {
		return cfg, layout, nil, err
	}
	return cfg, layout, []workload.AppSpec{spec}, nil
}

// openStore opens the persistent image store under dir, or returns nil
// (every boot cold) when dir is empty or cannot host a store.
func openStore(dir string, u *workload.Universe) checkpoint.ImageStore {
	if dir == "" {
		return nil
	}
	store, err := imagestore.Open(dir, u)
	if err != nil {
		// The store is an optimization; a directory or platform that
		// cannot host one just means the boot runs cold.
		fmt.Fprintf(os.Stderr, "satsim: image store disabled: %v\n", err)
		return nil
	}
	return store
}

// SchemaID identifies the -json document layout.
const SchemaID = "satsim/v1"

// jsonRun is one execution's counters.
type jsonRun struct {
	Run           int     `json:"run"`
	ForkCycles    uint64  `json:"fork_cycles"`
	PTPsAtFork    int     `json:"ptps_at_fork"`
	SharedAtFork  int     `json:"shared_at_fork"`
	PTEsCopied    uint64  `json:"ptes_copied"`
	FileFaults    uint64  `json:"file_faults"`
	PTPsTotal     uint64  `json:"ptps_total"`
	SharedPTPs    int     `json:"shared_ptps"`
	MillionCycles float64 `json:"million_cycles"`
}

// jsonApp is one application's scenario: the boot state, every run, the
// system-wide sharing stats, and the full metric-source snapshot.
type jsonApp struct {
	App         string                       `json:"app"`
	ZygotePTEs  int                          `json:"zygote_ptes"`
	Runs        []jsonRun                    `json:"runs"`
	TotalPTPs   int                          `json:"total_ptps"`
	SharedPTPs  int                          `json:"shared_ptps"`
	DistinctPTP int                          `json:"distinct_ptp_frames"`
	Sources     map[string]map[string]uint64 `json:"sources"`
}

// jsonDoc is the top-level -json document.
type jsonDoc struct {
	Schema string    `json:"schema"`
	Kernel string    `json:"kernel"`
	Layout string    `json:"layout"`
	Runs   int       `json:"runs"`
	Apps   []jsonApp `json:"apps"`
}

// appReport carries both renderings of one scenario; the sweep computes
// both so text and JSON mode stay byte-identical under any worker count.
type appReport struct {
	text string
	doc  jsonApp
}

// run runs the parsed scenario and writes its report to w. Boots fork
// one checkpoint image, loaded from store when it holds one (a nil store
// boots cold).
func run(w io.Writer, o options, cfg core.Config, layout android.Layout, specs []workload.AppSpec, u *workload.Universe, store checkpoint.ImageStore) error {
	reports, err := runSuite(cfg, layout, o.arch, u, specs, o.runs, o.parallel, store)
	if err != nil {
		return err
	}

	if o.json {
		doc := jsonDoc{Schema: SchemaID, Kernel: o.kernel, Layout: o.layout, Runs: o.runs}
		for _, r := range reports {
			doc.Apps = append(doc.Apps, r.doc)
		}
		out, err := json.MarshalIndent(doc, "", "  ")
		if err != nil {
			return err
		}
		_, err = w.Write(append(out, '\n'))
		return err
	}
	for _, r := range reports {
		fmt.Fprint(w, r.text)
	}
	return nil
}

// runSuite runs every selected application, each in its own freshly
// booted system, fanned out over the sweep worker pool. Reports come
// back in suite order whatever the completion order was.
func runSuite(cfg core.Config, layout android.Layout, archName string, u *workload.Universe, specs []workload.AppSpec, runs, parallel int, store checkpoint.ImageStore) ([]appReport, error) {
	// Every scenario shares one boot prefix, so the whole suite forks a
	// single checkpoint image; concurrent workers share the one boot.
	opts := android.Options{Arch: archName}
	ckpt := checkpoint.NewCache()
	ckpt.SetStore(store)
	boot := func() (*android.System, error) {
		img, err := ckpt.Image(checkpoint.Key(cfg, layout, u, opts), func() (*android.System, error) {
			return android.BootOpts(cfg, layout, u, opts)
		})
		if err != nil {
			return nil, err
		}
		return img.Fork(), nil
	}
	scenarios := make([]sweep.Scenario[appReport], len(specs))
	for i, spec := range specs {
		spec := spec
		scenarios[i] = sweep.Scenario[appReport]{
			Name: "satsim/" + spec.Name,
			Run: func(*rand.Rand) (appReport, error) {
				return runApp(boot, cfg, layout, u, spec, runs)
			},
		}
	}
	return sweep.Run(sweep.Workers(parallel), scenarios)
}

// runApp boots a system, runs one application `runs` times, and returns
// the report in both renderings.
func runApp(boot func() (*android.System, error), cfg core.Config, layout android.Layout, u *workload.Universe, spec workload.AppSpec, runs int) (appReport, error) {
	sys, err := boot()
	if err != nil {
		return appReport{}, err
	}
	doc := jsonApp{App: spec.Name, ZygotePTEs: sys.Zygote.MM.PT.PopulatedPTEs()}
	out := fmt.Sprintf("booted %s kernel, %s layout; zygote populated %d PTEs\n",
		cfg.Name(), layout, doc.ZygotePTEs)

	prof := workload.BuildProfile(u, spec)
	t := stats.NewTable(fmt.Sprintf("%s: %d execution(s)", spec.Name, runs),
		"Run", "Fork cycles", "PTPs@fork", "Shared@fork", "PTEs copied",
		"File faults", "PTPs total", "Shared PTPs", "Cycles (x10^6)")
	for r := 0; r < runs; r++ {
		appInst, _, err := sys.LaunchApp(prof, int64(r))
		if err != nil {
			return appReport{}, err
		}
		rs, err := appInst.Run()
		if err != nil {
			return appReport{}, err
		}
		fs := appInst.Proc.ForkStats
		t.AddRow(fmt.Sprintf("%d", r+1),
			fmt.Sprintf("%d", fs.Cycles),
			fmt.Sprintf("%d", fs.PTPsAllocated),
			fmt.Sprintf("%d", fs.PTPsShared),
			fmt.Sprintf("%d", rs.PTEsCopied),
			fmt.Sprintf("%d", rs.FileFaults),
			fmt.Sprintf("%d", rs.PTPsAllocated),
			fmt.Sprintf("%d", rs.PTPsShared),
			stats.F(float64(rs.Cycles)/1e6))
		doc.Runs = append(doc.Runs, jsonRun{
			Run:           r + 1,
			ForkCycles:    fs.Cycles,
			PTPsAtFork:    fs.PTPsAllocated,
			SharedAtFork:  fs.PTPsShared,
			PTEsCopied:    rs.PTEsCopied,
			FileFaults:    rs.FileFaults,
			PTPsTotal:     rs.PTPsAllocated,
			SharedPTPs:    rs.PTPsShared,
			MillionCycles: float64(rs.Cycles) / 1e6,
		})
		sys.Kernel.Exit(appInst.Proc)
	}
	out += t.String()

	ss := sys.Kernel.SharingStats()
	doc.TotalPTPs, doc.SharedPTPs, doc.DistinctPTP = ss.TotalPTPs, ss.SharedPTPs, ss.DistinctPTPs
	out += fmt.Sprintf("system-wide: %d PTP references, %d shared, %d distinct frames\n",
		ss.TotalPTPs, ss.SharedPTPs, ss.DistinctPTPs)
	kc := sys.Kernel.Snapshot()
	out += fmt.Sprintf("kernel counters: %d forks, %d PTEs copied at fork, %d PTPs shared at fork,\n"+
		"  %d unshare ops, %d PTEs copied on unshare, %d PTEs write-protected\n",
		kc["forks"], kc["ptes_copied_at_fork"], kc["ptps_shared_at_fork"],
		kc["unshare_ops"], kc["ptes_copied_on_unshare"], kc["write_protected_ptes"])

	reg := obs.NewRegistry()
	for _, s := range sys.Kernel.Sources() {
		reg.MustRegister(s)
	}
	doc.Sources = reg.Snapshot()
	return appReport{text: out, doc: doc}, nil
}
