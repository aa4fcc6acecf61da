// Package experiments contains one driver per table and figure of the
// paper's evaluation (Tables 1-4, Figures 2-4 and 7-13). Each driver runs
// the corresponding workload on the simulated system, measures the same
// counters the paper reads, and renders a plain-text version of the
// table or figure. The cmd/experiments binary prints them all; the
// bench_test.go harness exposes each as a testing.B benchmark.
//
// The expensive sweeps enumerate independent scenarios (kernel config x
// layout x application x run), each booting its own simulator, and run
// them through the internal/sweep worker pool: Session.Parallel selects
// the worker count, and output is byte-identical for every setting
// because scenarios are seeded from their identity and merged back in
// canonical order.
package experiments

import (
	"fmt"
	"sync"

	"repro/internal/android"
	"repro/internal/checkpoint"
	"repro/internal/core"
	"repro/internal/sweep"
	"repro/internal/workload"
)

// Params sizes the experiment sweeps.
type Params struct {
	// LaunchRuns is the number of application launches per kernel
	// configuration for the box plots of Figures 7 and 8 (the paper
	// uses over 100).
	LaunchRuns int
	// AppRuns is the number of executions per application for the
	// steady-state sweeps of Figures 10-12 (the paper averages 10).
	AppRuns int
	// BinderIters is the number of IPC calls in the Figure 13
	// microbenchmark (the paper uses 100,000).
	BinderIters int
}

// Default returns the paper-scale parameters.
func Default() Params {
	return Params{LaunchRuns: 100, AppRuns: 10, BinderIters: 100000}
}

// Quick returns reduced parameters for tests and benchmarks.
func Quick() Params {
	return Params{LaunchRuns: 8, AppRuns: 3, BinderIters: 4000}
}

// Validate rejects parameters that cannot size a sweep. Every sweep
// checks its parameters up front so a bad value fails loudly instead of
// producing empty series and NaN statistics.
func (p Params) Validate() error {
	if p.LaunchRuns < 1 {
		return fmt.Errorf("experiments: LaunchRuns = %d, must be >= 1", p.LaunchRuns)
	}
	if p.AppRuns < 1 {
		return fmt.Errorf("experiments: AppRuns = %d, must be >= 1", p.AppRuns)
	}
	if p.BinderIters < 1 {
		return fmt.Errorf("experiments: BinderIters = %d, must be >= 1", p.BinderIters)
	}
	return nil
}

// Session runs experiments, caching the expensive shared sweeps so that
// regenerating several figures from the same data (as the paper does)
// costs one sweep.
type Session struct {
	// Params sizes the sweeps.
	Params Params
	// Parallel is the worker count for the scenario sweeps: 1 runs them
	// serially, N >= 2 uses N goroutines, and 0 (or negative) selects
	// GOMAXPROCS. Output is identical for every setting.
	Parallel int
	// Arch names the MMU architecture every boot simulates, by arch
	// registry name ("armv7", "sv39"; empty means armv7). Scenario
	// options that set their own Arch override it.
	Arch string
	// ImageStore, when non-nil, is a persistent second level under the
	// in-memory checkpoint cache (internal/imagestore): boot-prefix
	// images missing from memory are loaded from the store, and cold
	// boots are written back, so later processes warm-start.
	// Set before the first sweep; results are byte-identical with or
	// without a store (a stored image is admitted only if it re-encodes
	// to the digest saved with it, so it is an exact copy of the machine
	// it replaces).
	ImageStore checkpoint.ImageStore

	// freshBoot bypasses the checkpoint cache: every scenario boots from
	// scratch. TestGolden's oracle.
	freshBoot bool

	universe     *workload.Universe
	universeOnce sync.Once

	ckptOnce sync.Once
	ckpt     *checkpoint.Cache

	motOnce sync.Once
	mot     *motivationData
	motErr  error

	launchOnce sync.Once
	launch     *launchSweep
	launchErr  error

	steadyOnce sync.Once
	steady     *steadySweep
	steadyErr  error
}

// New creates a session with the given parameters. The session uses
// GOMAXPROCS sweep workers; set Parallel to override.
func New(p Params) *Session {
	return &Session{Params: p}
}

// workers resolves the session's sweep worker count.
func (s *Session) workers() int {
	return sweep.Workers(s.Parallel)
}

// Universe returns the session's preloaded-code landscape. The universe
// is immutable after construction, so every sweep worker reads the one
// shared instance.
func (s *Session) Universe() *workload.Universe {
	s.universeOnce.Do(func() {
		s.universe = workload.DefaultUniverse()
	})
	return s.universe
}

// bootOptions fills the session-wide architecture into options that do
// not choose their own, so every boot of a campaign simulates the same
// MMU unless a scenario explicitly diverges.
func (s *Session) bootOptions(o android.Options) android.Options {
	if o.Arch == "" {
		o.Arch = s.Arch
	}
	return o
}

// Boot brings up a machine for the given kernel configuration and
// library layout — the common prefix every scenario of every campaign
// simulates before diverging. The prefix is simulated once per distinct
// parameter set, captured as an immutable checkpoint image, and forked
// copy-on-write for each caller; forks are byte-identical to fresh boots
// (pinned by TestGolden).
func (s *Session) Boot(cfg core.Config, layout android.Layout) (*android.System, error) {
	return s.BootOpts(cfg, layout, android.Options{})
}

// BootOpts is Boot with explicit android.Options.
func (s *Session) BootOpts(cfg core.Config, layout android.Layout, opts android.Options) (*android.System, error) {
	opts = s.bootOptions(opts)
	u := s.Universe()
	if s.freshBoot {
		return android.BootOpts(cfg, layout, u, opts)
	}
	img, err := s.ckptCache().Image(checkpoint.Key(cfg, layout, u, opts), func() (*android.System, error) {
		return android.BootOpts(cfg, layout, u, opts)
	})
	if err != nil {
		return nil, err
	}
	return img.Fork(), nil
}

// ckptCache returns the session's image cache, constructing it on first
// use.
func (s *Session) ckptCache() *checkpoint.Cache {
	s.ckptOnce.Do(func() {
		s.ckpt = checkpoint.NewCache()
		if s.ImageStore != nil {
			s.ckpt.SetStore(s.ImageStore)
		}
	})
	return s.ckpt
}

// sweepErr tags a cached sweep error with the sweep that failed. The
// sync.Once caching means one failed sweep reports the same error to
// every figure derived from it; naming the sweep keeps that consistent
// replay diagnosable rather than a mystery error surfacing from, say,
// Figure 9 long after Figure 7 ran.
func sweepErr(sweepName string, err error) error {
	if err == nil {
		return nil
	}
	return fmt.Errorf("%s failed: %w", sweepName, err)
}
