package main

import (
	"fmt"
	"math/rand"

	"repro/internal/android"
	_ "repro/internal/arch/armv7" // MMU backends register themselves
	_ "repro/internal/arch/sv39"
	"repro/internal/core"
	"repro/internal/workload"
)

// prefix is one boot configuration: a machine the workload boots,
// captures and stores once per set-up and forks for every group.
type prefix struct {
	cfg    core.Config
	layout android.Layout
	arch   string
}

func (p prefix) opts() android.Options { return android.Options{Arch: p.arch} }

func (p prefix) String() string {
	return fmt.Sprintf("%s/%s/%s", kernelTag(p.cfg), p.layout, p.arch)
}

// kernelTag is a short, space-free name for a kernel configuration.
func kernelTag(c core.Config) string {
	switch {
	case c.SharePTP && c.ShareTLB:
		return "shared-tlb"
	case c.SharePTP:
		return "shared-ptp"
	case c.CopyPTEsAtFork:
		return "copied-ptes"
	default:
		return "stock"
	}
}

type opKind uint8

const (
	// opLaunchRun is LaunchApp, App.Run and Kernel.Exit of one app.
	opLaunchRun opKind = iota
	// opLaunchExit is LaunchApp and Kernel.Exit of one app.
	opLaunchExit
	// opBinder is one RunBinder batch and the Exit of both endpoints.
	opBinder
)

// opSpec is one measured operation. Its inputs are fixed when the
// workload is built, so every round replays exactly the same ops.
type opSpec struct {
	kind    opKind
	profile *workload.Profile
	runSeed int64
	iters   int
	asid    bool
}

// group is a run of ops on one machine forked from a prefix image. Ops
// in a group run in order on the same machine, so later launches
// warm-start from the zygote state earlier ones left behind.
type group struct {
	prefix int
	label  string
	ops    []opSpec
}

// benchWorkload is one named workload: the prefixes it boots and the
// groups of ops one round of its measured phase executes.
type benchWorkload struct {
	name     string
	traced   bool
	setups   int // set-ups per run; setup_s is their median
	prefixes []prefix
	groups   []group
}

// numOps returns the number of ops in one round.
func (w *benchWorkload) numOps() int {
	n := 0
	for _, g := range w.groups {
		n += len(g.ops)
	}
	return n
}

var workloadNames = []string{"steady", "launch", "ipc", "traced"}

// sizes fixes how much work one round of each workload does.
type sizes struct {
	setups                            int
	steadyPrefixes, steadyApps        int
	launchPrefixes, launchRuns        int
	ipcPrefixes, ipcBatches, ipcIters int
	tracedPrefixes, tracedApps        int
}

var scales = map[string]sizes{
	"full": {
		setups:         5,
		steadyPrefixes: 4, steadyApps: 11,
		launchPrefixes: 16, launchRuns: 8,
		ipcPrefixes: 5, ipcBatches: 10, ipcIters: 800,
		tracedPrefixes: 2, tracedApps: 11,
	},
	// tiny is the self-test size: every workload and layer, a fraction
	// of a second each.
	"tiny": {
		setups:         1,
		steadyPrefixes: 1, steadyApps: 2,
		launchPrefixes: 2, launchRuns: 2,
		ipcPrefixes: 2, ipcBatches: 2, ipcIters: 20,
		tracedPrefixes: 1, tracedApps: 1,
	},
}

// buildWorkload generates the named workload. seed is the only source
// of variation: it draws the per-op run seeds (which perturb launch
// coverage and the steady-state fetch stream) and the Binder batch
// lengths. The same seed gives the same ops.
func buildWorkload(name string, seed int64, scale string) (*benchWorkload, error) {
	sz, ok := scales[scale]
	if !ok {
		return nil, fmt.Errorf("unknown scale %q", scale)
	}
	rng := rand.New(rand.NewSource(seed))
	u := workload.DefaultUniverse()
	w := &benchWorkload{name: name, setups: sz.setups}
	switch name {
	case "steady":
		// Figures 10-12: {stock, shared PTP} x {original, 2MB} on armv7.
		for _, layout := range []android.Layout{android.LayoutOriginal, android.Layout2MB} {
			for _, cfg := range []core.Config{core.Stock(), core.SharedPTP()} {
				w.prefixes = append(w.prefixes, prefix{cfg, layout, "armv7"})
			}
		}
		w.prefixes = w.prefixes[:sz.steadyPrefixes]
		w.appGroups(u, rng, workload.Suite()[:sz.steadyApps])
	case "traced":
		// The steady per-app ops with a bus subscriber attached.
		w.traced = true
		w.prefixes = []prefix{
			{core.Stock(), android.LayoutOriginal, "armv7"},
			{core.SharedPTPTLB(), android.LayoutOriginal, "armv7"},
		}[:sz.tracedPrefixes]
		w.appGroups(u, rng, workload.Suite()[:sz.tracedApps])
	case "launch":
		// Figures 7-9 on every kernel, layout and MMU backend.
		kernels := []core.Config{core.Stock(), core.CopiedPTEs(), core.SharedPTP(), core.SharedPTPTLB()}
		for _, a := range []string{"armv7", "sv39"} {
			for _, layout := range []android.Layout{android.LayoutOriginal, android.Layout2MB} {
				for _, cfg := range kernels {
					w.prefixes = append(w.prefixes, prefix{cfg, layout, a})
				}
			}
		}
		// Interleave the backends so a reduced scale still covers both.
		w.prefixes = interleave(w.prefixes)[:sz.launchPrefixes]
		prof := workload.BuildProfile(u, workload.HelloWorldSpec())
		for pi, p := range w.prefixes {
			g := group{prefix: pi, label: p.String()}
			for r := 0; r < sz.launchRuns; r++ {
				g.ops = append(g.ops, opSpec{kind: opLaunchExit, profile: prof, runSeed: rng.Int63n(1 << 20)})
			}
			w.groups = append(w.groups, g)
		}
	case "ipc":
		// Figure 13: armv7 {stock, shared PTP, shared PTP & TLB} and sv39
		// {stock, shared PTP & TLB}, each with ASIDs off and on.
		w.prefixes = interleave([]prefix{
			{core.Stock(), android.LayoutOriginal, "armv7"},
			{core.SharedPTP(), android.LayoutOriginal, "armv7"},
			{core.SharedPTPTLB(), android.LayoutOriginal, "armv7"},
			{core.Stock(), android.LayoutOriginal, "sv39"},
			{core.SharedPTPTLB(), android.LayoutOriginal, "sv39"},
		})[:sz.ipcPrefixes]
		for pi, p := range w.prefixes {
			for _, asid := range []bool{false, true} {
				g := group{prefix: pi, label: fmt.Sprintf("%s/asid=%v", p, asid)}
				// Batch lengths vary with the seed in pairs that sum to
				// 2*ipcIters, so a round's total work does not.
				iters := 0
				for b := 0; b < sz.ipcBatches; b++ {
					if b%2 == 0 {
						iters = sz.ipcIters/2 + rng.Intn(sz.ipcIters+1)
					} else {
						iters = 2*sz.ipcIters - iters
					}
					g.ops = append(g.ops, opSpec{kind: opBinder, iters: iters, asid: asid})
				}
				w.groups = append(w.groups, g)
			}
		}
	default:
		return nil, fmt.Errorf("unknown workload %q (want one of %v)", name, workloadNames)
	}
	return w, nil
}

// appGroups adds one group per (prefix, app): the app forked from the
// prefix image and launched and run once.
func (w *benchWorkload) appGroups(u *workload.Universe, rng *rand.Rand, specs []workload.AppSpec) {
	profs := make([]*workload.Profile, len(specs))
	for i, spec := range specs {
		profs[i] = workload.BuildProfile(u, spec)
	}
	for pi, p := range w.prefixes {
		for i, spec := range specs {
			w.groups = append(w.groups, group{
				prefix: pi,
				label:  p.String() + "/" + spec.Name,
				ops:    []opSpec{{kind: opLaunchRun, profile: profs[i], runSeed: rng.Int63n(1 << 20)}},
			})
		}
	}
}

// interleave orders prefixes so that the two MMU backends alternate
// (armv7, sv39, armv7, ...) while each keeps its own order.
func interleave(ps []prefix) []prefix {
	var a, b []prefix
	for _, p := range ps {
		if p.arch == "armv7" {
			a = append(a, p)
		} else {
			b = append(b, p)
		}
	}
	out := make([]prefix, 0, len(ps))
	for i := 0; i < len(a) || i < len(b); i++ {
		if i < len(a) {
			out = append(out, a[i])
		}
		if i < len(b) {
			out = append(out, b[i])
		}
	}
	return out
}
