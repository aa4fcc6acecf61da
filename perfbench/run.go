package main

import (
	"context"
	"encoding/json"
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"runtime/metrics"
	"runtime/pprof"
	"strconv"
	"time"

	"repro/internal/android"
	"repro/internal/checkpoint"
	"repro/internal/core"
	"repro/internal/imagestore"
	"repro/internal/obs"
	"repro/internal/workload"
)

// recorder times the public calls of one stage and labels them for the
// CPU profile. Every call into the simulator goes through do.
type recorder struct {
	ctx   context.Context
	calls map[string][]time.Duration
}

func newRecorder(workloadName, stage string) *recorder {
	ctx := pprof.WithLabels(context.Background(), pprof.Labels("workload", workloadName, "stage", stage))
	return &recorder{ctx: ctx, calls: make(map[string][]time.Duration)}
}

// do runs fn under the pprof label phase=phase and records its wall time.
func (r *recorder) do(phase string, fn func() error) error {
	var err error
	start := time.Now()
	pprof.Do(r.ctx, pprof.Labels("phase", phase), func(context.Context) { err = fn() })
	r.calls[phase] = append(r.calls[phase], time.Since(start))
	return err
}

// total returns the summed wall time of every recorded call.
func (r *recorder) total() time.Duration {
	var t time.Duration
	for _, ds := range r.calls {
		for _, d := range ds {
			t += d
		}
	}
	return t
}

// setupResult is one set-up: every prefix booted cold, captured, saved
// to a fresh store and loaded back verified. It is JSON so that a set-up
// run in a child process can report back.
type setupResult struct {
	Wall       float64            `json:"wall_s"`
	PhaseMS    map[string]float64 `json:"phase_ms"` // total per phase
	ImageBytes int64              `json:"image_bytes"`
	images     []*checkpoint.Image
}

// setup boots, captures, saves and reloads every prefix of w into a new
// store under root. The returned images are the verified store loads.
func setup(w *benchWorkload, u *workload.Universe, root string, rec *recorder) (setupResult, error) {
	dir, err := os.MkdirTemp(root, "store-")
	if err != nil {
		return setupResult{}, err
	}
	defer os.RemoveAll(dir)
	store, err := imagestore.Open(dir, u)
	if err != nil {
		return setupResult{}, fmt.Errorf("opening image store: %w", err)
	}
	start := time.Now()
	res := setupResult{images: make([]*checkpoint.Image, len(w.prefixes))}
	for i, p := range w.prefixes {
		key := checkpoint.Key(p.cfg, p.layout, u, p.opts())
		var sys *android.System
		if err := rec.do("boot", func() (err error) {
			sys, err = android.BootOpts(p.cfg, p.layout, u, p.opts())
			return err
		}); err != nil {
			return setupResult{}, fmt.Errorf("booting %s: %w", p, err)
		}
		var img *checkpoint.Image
		rec.do("capture", func() error { img = checkpoint.Capture(sys); return nil })
		rec.do("save", func() error { store.Save(key, img); return nil })
		var ok bool
		rec.do("load", func() error { res.images[i], ok = store.Load(key); return nil })
		if !ok {
			return setupResult{}, fmt.Errorf("store did not return a verified image for %s", p)
		}
	}
	res.Wall = time.Since(start).Seconds()
	res.PhaseMS = make(map[string]float64, len(setupPhases))
	for _, ph := range setupPhases {
		for _, d := range rec.calls[ph] {
			res.PhaseMS[ph] += d.Seconds() * 1e3
		}
	}
	names, err := store.List()
	if err != nil {
		return setupResult{}, err
	}
	for _, n := range names {
		fi, err := os.Stat(filepath.Join(dir, n))
		if err != nil {
			return setupResult{}, err
		}
		res.ImageBytes += fi.Size()
	}
	return res, nil
}

// childSetup runs one set-up in a fresh process of this program. Each
// such set-up starts cold, as a user's process does, and the image
// mappings its loads leave behind for life do not pile up in the
// measuring process.
func childSetup(o options) (setupResult, error) {
	exe, err := os.Executable()
	if err != nil {
		return setupResult{}, err
	}
	cmd := exec.Command(exe, "--setup-child", o.scale, "--workload", o.workload,
		"--seed", strconv.FormatInt(o.seed, 10), "--out", o.out)
	cmd.Stderr = os.Stderr
	out, err := cmd.Output()
	if err != nil {
		return setupResult{}, fmt.Errorf("set-up process: %w", err)
	}
	var s setupResult
	if err := json.Unmarshal(out, &s); err != nil {
		return setupResult{}, fmt.Errorf("set-up process output: %w", err)
	}
	return s, nil
}

// opRecord is what one op did: its host latency, its error, and every
// simulated counter it moved. The counters are the correctness evidence:
// they repeat exactly for the same op on any execution path.
type opRecord struct {
	id     string
	wall   time.Duration
	err    error
	counts map[string]uint64
}

// roundResult is one execution of every group of a workload.
type roundResult struct {
	wall    time.Duration
	alloc   uint64
	ops     []opRecord
	events  uint64
	dropped uint64
}

// ringCapacity bounds the traced workload's event capture; the stream
// is far longer, so the ring keeps its tail and counts the rest dropped.
const ringCapacity = 1 << 12

// runRound executes every group of w once, forking each group's machine
// from images. With observe set, each machine gets an obs.Ring
// subscribed to every event kind.
func runRound(w *benchWorkload, images []*checkpoint.Image, observe bool, rec *recorder) roundResult {
	a0 := allocatedBytes()
	start := time.Now()
	var r roundResult
	for _, g := range w.groups {
		ops, seen, dropped := runGroup(g, images[g.prefix], observe, rec)
		r.ops = append(r.ops, ops...)
		r.events += seen
		r.dropped += dropped
	}
	r.wall = time.Since(start)
	r.alloc = allocatedBytes() - a0
	return r
}

func runGroup(g group, img *checkpoint.Image, observe bool, rec *recorder) (ops []opRecord, seen, dropped uint64) {
	var sys *android.System
	rec.do("fork", func() error { sys = img.Fork(); return nil })
	var ring *obs.Ring
	if observe {
		ring = obs.NewRing(ringCapacity)
		defer sys.Kernel.Subscribe(ring)()
	}
	ops = runOps(sys, g, len(g.ops), rec)
	if ring != nil {
		seen, dropped = ring.Seen(), ring.Dropped()
	}
	return ops, seen, dropped
}

// runOps runs the first n ops of g on sys. An op that fails ends the
// group: later ops would start from a machine the failed one left
// half-done, so they are recorded as failed without running.
func runOps(sys *android.System, g group, n int, rec *recorder) []opRecord {
	reg := obs.NewRegistry()
	reg.MustRegister(sys.Kernel.Sources()...)
	out := make([]opRecord, n)
	var failed error
	for i, op := range g.ops[:n] {
		rc := &out[i]
		rc.id = fmt.Sprintf("%s/%d", g.label, i)
		if failed != nil {
			rc.err = fmt.Errorf("not run: %w", failed)
			continue
		}
		before := reg.Snapshot()
		clock0 := sys.Kernel.CPU.Now()
		start := time.Now()
		rc.counts, rc.err = runOp(sys, op, rec)
		rc.wall = time.Since(start)
		if rc.err != nil {
			failed = rc.err
			continue
		}
		rc.counts["clock"] = sys.Kernel.CPU.Now() - clock0
		for src, after := range reg.Snapshot() {
			for k, v := range after {
				rc.counts["src."+src+"."+k] = v - before[src][k]
			}
		}
	}
	return out
}

// runOp executes one op and returns the counters its results report.
func runOp(sys *android.System, op opSpec, rec *recorder) (map[string]uint64, error) {
	c := make(map[string]uint64)
	switch op.kind {
	case opLaunchRun, opLaunchExit:
		var app *android.App
		var ls android.LaunchStats
		if err := rec.do("launch", func() (err error) {
			app, ls, err = sys.LaunchApp(op.profile, op.runSeed)
			return err
		}); err != nil {
			return nil, err
		}
		addLaunch(c, ls)
		if op.kind == opLaunchRun {
			var rs android.RunStats
			if err := rec.do("run", func() (err error) { rs, err = app.Run(); return err }); err != nil {
				return nil, err
			}
			addRun(c, rs)
		}
		exit(sys, app.Proc, rec)
		addProc(c, app.Proc)
	case opBinder:
		var res android.BinderResult
		if err := rec.do("binder", func() (err error) {
			res, err = sys.RunBinder(op.iters, op.asid)
			return err
		}); err != nil {
			return nil, err
		}
		for _, s := range []struct {
			name string
			side android.BinderSide
		}{{"client", res.Client}, {"server", res.Server}} {
			c["binder."+s.name+".itlb_stalls"] = s.side.ITLBStalls
			c["binder."+s.name+".itlb_misses"] = s.side.ITLBMisses
			c["binder."+s.name+".cycles"] = s.side.Cycles
			exit(sys, s.side.Process, rec)
			addProc(c, s.side.Process)
		}
	}
	return c, nil
}

func exit(sys *android.System, p *core.Process, rec *recorder) {
	rec.do("exit", func() error { sys.Kernel.Exit(p); return nil })
}

func addLaunch(c map[string]uint64, ls android.LaunchStats) {
	c["launch.cycles"] = ls.Cycles
	c["launch.icache_stalls"] = ls.ICacheStalls
	c["launch.itlb_stalls"] = ls.ITLBStalls
	c["launch.instructions"] = ls.Instructions
	c["launch.kernel_instructions"] = ls.KernelInstructions
	c["launch.file_faults"] = ls.FileFaults
	c["launch.page_faults"] = ls.PageFaults
	c["launch.ptps_allocated"] = ls.PTPsAllocated
}

func addRun(c map[string]uint64, rs android.RunStats) {
	c["run.cycles"] = rs.Cycles
	c["run.file_faults"] = rs.FileFaults
	c["run.page_faults"] = rs.PageFaults
	c["run.cow_breaks"] = rs.COWBreaks
	c["run.ptps_allocated"] = rs.PTPsAllocated
	c["run.ptps_shared"] = uint64(rs.PTPsShared)
	c["run.ptps_live"] = uint64(rs.PTPsLive)
	c["run.ptes_copied"] = rs.PTEsCopied
	c["run.user_instructions"] = rs.UserInstructions
	c["run.kernel_instructions"] = rs.KernelInstructions
	c["run.itlb_stalls"] = rs.ITLBStalls
	c["run.icache_stalls"] = rs.ICacheStalls
}

// addProc adds the lifetime counters of an exited op process: its
// address space's faults and PTP allocations and its context's
// switches. The process lives exactly as long as its op.
func addProc(c map[string]uint64, p *core.Process) {
	c["proc.page_faults"] += p.MM.Counters.PageFaults
	c["proc.file_faults"] += p.MM.Counters.FileFaults
	c["proc.cow_breaks"] += p.MM.Counters.COWBreaks
	c["proc.ptps_allocated"] += p.MM.PT.Stats().PTPsAllocated
	c["proc.context_switches"] += p.Ctx.Stats.ContextSwitchesIn
	c["proc.cycles"] += p.Ctx.Stats.Cycles
}

var allocSample = []metrics.Sample{{Name: "/gc/heap/allocs:bytes"}}

// allocatedBytes returns the cumulative bytes the Go heap has allocated.
func allocatedBytes() uint64 {
	metrics.Read(allocSample)
	return allocSample[0].Value.Uint64()
}
