// Command experiments regenerates every table and figure of the paper's
// evaluation (Tables 1-4, Figures 2-4 and 7-13) plus the Section 3.1.3
// design-tradeoff ablations, printing each as plain text alongside the
// paper's reference numbers.
//
// Usage:
//
//	experiments [-quick] [-arch armv7|sv39] [-parallel N] [-launch-runs N]
//	            [-app-runs N] [-binder-iters N] [-only LIST] [-list] [-json]
//	            [-imagestore DIR] [-cpuprofile FILE] [-memprofile FILE]
//
// -only selects a comma-separated subset, e.g. -only table4,figure7; an
// unknown name is an error. -arch selects the simulated MMU architecture
// by registry name (default armv7); an unknown name is an error listing
// the registered architectures. Explicitly set size flags always override
// -quick. -parallel controls how many workers the sweeps fan out over;
// results are byte-identical regardless of the worker count. -json
// replaces the text tables with one structured document (schema
// "sat-experiments/v1", see internal/experiments/report.go), also
// byte-identical for every -parallel setting. Both outputs render from
// one Table value per experiment (internal/experiments/table.go). -imagestore persists the
// boot checkpoints every scenario forks (internal/checkpoint) under DIR
// (default: the sat-sim cache directory) so later processes warm-start
// instead of re-simulating the boot prefix; -imagestore "" disables
// persistence. A stored image is admitted only if the restored machine
// re-encodes to the body digest saved with it, so results are
// byte-identical with a cold store, a warm store or none
// (TestGolden in internal/experiments diffs each mode, and fresh boots,
// against testdata/experiments_quick*.golden.{json,txt}). The
// paper-scale stdout of both architectures, with -imagestore "", is
// committed as experiments_output.txt and experiments_output_sv39.txt.
// -cpuprofile and -memprofile write pprof captures of the run (see
// README "Profiling").
package main

import (
	"flag"
	"fmt"
	"os"
	"strings"
	"time"

	"repro/internal/arch"
	_ "repro/internal/arch/armv7"
	_ "repro/internal/arch/sv39"
	"repro/internal/experiments"
	"repro/internal/imagestore"
	"repro/internal/prof"
)

func main() {
	if err := run(os.Args[1:], os.Stdout); err != nil {
		fmt.Fprintln(os.Stderr, "experiments:", err)
		os.Exit(2)
	}
}

func run(argv []string, out *os.File) (err error) {
	fs := flag.NewFlagSet("experiments", flag.ExitOnError)
	quick := fs.Bool("quick", false, "use reduced sweep sizes (overridden by any explicitly set size flag)")
	archName := fs.String("arch", "armv7", "MMU architecture to simulate: "+strings.Join(arch.Names(), ", "))
	launchRuns := fs.Int("launch-runs", 0, "launches per config for Figures 7-9 (>=1; default 100, paper >100; overrides -quick)")
	appRuns := fs.Int("app-runs", 0, "executions per app for Figures 10-12 (>=1; default 10, as the paper; overrides -quick)")
	binderIters := fs.Int("binder-iters", 0, "IPC calls for Figure 13 (>=1; default 100000, as the paper; overrides -quick)")
	parallel := fs.Int("parallel", 0, "sweep workers: 1 = serial, N>1 = N workers, 0 = GOMAXPROCS")
	only := fs.String("only", "", "comma-separated experiments to run (see -list); empty = all")
	list := fs.Bool("list", false, "list the experiment names and exit")
	jsonOut := fs.Bool("json", false, "emit one structured JSON document instead of text tables")
	storeDir := fs.String("imagestore", imagestore.DefaultDir(), "persist checkpoint images in this directory so later runs warm-start; empty disables the store (output is byte-identical either way)")
	cpuProfile := fs.String("cpuprofile", "", "write a pprof CPU profile of the run to this file")
	memProfile := fs.String("memprofile", "", "write a pprof heap profile after the run to this file")
	if err := fs.Parse(argv); err != nil {
		return err
	}

	if *list {
		for _, name := range experiments.Names() {
			fmt.Fprintln(out, name)
		}
		return nil
	}

	params := experiments.Default()
	if *quick {
		params = experiments.Quick()
	}
	// Explicitly set size flags win over -quick, and must be positive:
	// a zero or negative sweep size would silently produce empty series.
	var flagErr error
	fs.Visit(func(f *flag.Flag) {
		set := func(dst *int, v int) {
			if v < 1 {
				flagErr = fmt.Errorf("-%s must be >= 1 (got %d)", f.Name, v)
				return
			}
			*dst = v
		}
		switch f.Name {
		case "launch-runs":
			set(&params.LaunchRuns, *launchRuns)
		case "app-runs":
			set(&params.AppRuns, *appRuns)
		case "binder-iters":
			set(&params.BinderIters, *binderIters)
		case "parallel":
			if *parallel < 0 {
				flagErr = fmt.Errorf("-parallel must be >= 0 (got %d)", *parallel)
			}
		}
	})
	if flagErr != nil {
		return flagErr
	}

	if _, ok := arch.Lookup(*archName); !ok {
		return fmt.Errorf("unknown architecture %q; valid names:\n  %s",
			*archName, strings.Join(arch.Names(), "\n  "))
	}

	registry := experiments.Registry()
	valid := map[string]bool{}
	for _, e := range registry {
		valid[e.Name] = true
	}
	selected := map[string]bool{}
	if *only != "" {
		for _, n := range strings.Split(*only, ",") {
			name := strings.TrimSpace(strings.ToLower(n))
			if name == "" {
				continue
			}
			if !valid[name] {
				return fmt.Errorf("unknown experiment %q; valid names:\n  %s",
					name, strings.Join(experiments.Names(), "\n  "))
			}
			selected[name] = true
		}
	}

	stopProf, err := prof.Start(prof.Options{CPU: *cpuProfile, Mem: *memProfile})
	if err != nil {
		return err
	}
	defer func() {
		if perr := stopProf(); perr != nil && err == nil {
			err = perr
		}
	}()

	s := experiments.New(params)
	s.Parallel = *parallel
	s.Arch = *archName
	if *storeDir != "" {
		store, serr := imagestore.Open(*storeDir, s.Universe())
		if serr != nil {
			// The store is an optimization; a directory or platform that
			// cannot host one just means every boot runs cold.
			fmt.Fprintf(os.Stderr, "experiments: image store disabled: %v\n", serr)
		} else {
			s.ImageStore = store
		}
	}

	if *jsonOut {
		doc, err := experiments.RunJSON(s, selected)
		if err != nil {
			return err
		}
		_, err = out.Write(doc)
		return err
	}

	fmt.Fprintf(out, "Shared Address Translation Revisited (EuroSys 2016) — experiment harness\n")
	fmt.Fprintf(out, "params: launch-runs=%d app-runs=%d binder-iters=%d parallel=%d\n\n",
		params.LaunchRuns, params.AppRuns, params.BinderIters, *parallel)

	for _, e := range registry {
		if len(selected) > 0 && !selected[e.Name] {
			continue
		}
		start := time.Now() //satlint:ignore nondet progress timing goes to stderr, never into results
		r, err := e.Run(s)
		if err != nil {
			return fmt.Errorf("%s: %w", e.Name, err)
		}
		fmt.Fprintln(out, r.String())
		fmt.Fprintln(out)
		//satlint:ignore nondet progress timing goes to stderr, never into results
		fmt.Fprintf(os.Stderr, "[%s regenerated in %v]\n", e.Name, time.Since(start).Round(time.Millisecond))
	}
	return nil
}
