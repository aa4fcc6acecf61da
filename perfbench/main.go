// Command perfbench is the repository benchmark. It drives the
// simulator's public layer APIs from outside — android.BootOpts,
// checkpoint.Capture, imagestore Save/Load, Image.Fork,
// System.LaunchApp, App.Run, System.RunBinder, Kernel.Exit and
// obs.Registry snapshots of Kernel.Sources() — on one of four
// workloads, checks that the simulated output is correct, and prints
// every metric by name with its unit. The last line of standard output
// is one JSON object: {"correct", "attempted", "failed", "metrics"}.
//
// Usage:
//
//	perfbench --workload steady|launch|ipc|traced --seed N --seconds S --trace 0|1
//
// See README.md in this directory for the workloads, the metrics and
// how to read a traced run.
package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"runtime"
	"runtime/pprof"
	"strings"
	"syscall"
	"time"

	"repro/internal/checkpoint"
	"repro/internal/workload"
)

func main() {
	o, err := parseFlags(os.Args[1:])
	if err == nil {
		if o.setupChild != "" {
			o.scale = o.setupChild
			err = runSetupChild(o, os.Stdout)
		} else {
			err = runAndPrint(o, os.Stdout)
		}
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
}

func runAndPrint(o options, out io.Writer) error {
	res, err := run(o, out)
	if err != nil {
		return err
	}
	line, err := json.Marshal(res)
	if err != nil {
		return err
	}
	_, err = fmt.Fprintf(out, "%s\n", line)
	return err
}

// runSetupChild performs one set-up and prints its result as JSON.
func runSetupChild(o options, out io.Writer) error {
	w, err := buildWorkload(o.workload, o.seed, o.scale)
	if err != nil {
		return err
	}
	s, err := setup(w, workload.DefaultUniverse(), o.out, newRecorder(w.name, "setup"))
	if err != nil {
		return err
	}
	return json.NewEncoder(out).Encode(s)
}

type options struct {
	workload string
	seed     int64
	seconds  float64
	trace    bool
	// scale names the workload sizes: full, or tiny for the self-test.
	scale string
	out   string
	// setupChild, when set, makes the process perform one set-up at
	// this scale for its parent.
	setupChild string
}

func parseFlags(args []string) (options, error) {
	o := options{scale: "full"}
	var trace int
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	fs.StringVar(&o.workload, "workload", "", "workload: "+strings.Join(workloadNames, ", "))
	fs.Int64Var(&o.seed, "seed", defaultSeed, "workload seed")
	fs.Float64Var(&o.seconds, "seconds", 10, "length of the measured phase in host seconds")
	fs.IntVar(&trace, "trace", 0, "1: report per-layer metrics from a profiled run; 0: end-to-end metrics")
	fs.StringVar(&o.setupChild, "setup-child", "", "internal: perform one set-up at this scale and print it as JSON")
	fs.StringVar(&o.out, "out", ".bench_build", "directory for temporary image stores and CPU profiles")
	if err := fs.Parse(args); err != nil {
		return o, err
	}
	switch {
	case fs.NArg() > 0:
		return o, fmt.Errorf("unexpected arguments %q", fs.Args())
	case trace != 0 && trace != 1:
		return o, fmt.Errorf("--trace must be 0 or 1, not %d", trace)
	case o.seconds < 0:
		return o, fmt.Errorf("--seconds must be >= 0")
	}
	o.trace = trace == 1
	return o, nil
}

// result is the JSON object printed as the last line of output.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// run executes one benchmark run and writes the human-readable report
// to out; the caller prints the returned result.
func run(o options, out io.Writer) (*result, error) {
	w, err := buildWorkload(o.workload, o.seed, o.scale)
	if err != nil {
		return nil, err
	}
	if err := os.MkdirAll(o.out, 0o755); err != nil {
		return nil, err
	}
	u := workload.DefaultUniverse()
	rep := &report{w: bufio.NewWriter(out)}
	defer rep.w.Flush()
	rep.printf("perfbench workload=%s seed=%d seconds=%g trace=%v scale=%s\n", w.name, o.seed, o.seconds, o.trace, o.scale)

	// Set-up: boot, capture, save and verified load of every prefix.
	// All but the last run in child processes; the last one runs here
	// and its images feed the measured phase.
	var setups []setupResult
	for i := 1; i < w.setups; i++ {
		s, err := childSetup(o)
		if err != nil {
			return nil, err
		}
		setups = append(setups, s)
	}
	s, err := setup(w, u, o.out, newRecorder(w.name, "setup"))
	if err != nil {
		return nil, err
	}
	setups = append(setups, s)
	images := s.images

	measure := time.Duration(o.seconds * float64(time.Second))
	rec := newRecorder(w.name, "measure")
	var rounds, checked []roundResult
	var tr *tracedRun
	if o.trace {
		tr, err = profiledRun(w, u, images, rec, o, measure)
		if err != nil {
			return nil, err
		}
		rounds = tr.plain
		checked = append(append([]roundResult(nil), tr.plain...), tr.rounds...)
	} else {
		rounds = measureRounds(w, images, rec, measure)
		checked = rounds
	}
	// The high-water mark of set-up and measured phase; the checks below
	// boot fresh machines a user's process never would.
	rss := peakRSSMB()

	v, err := check(w, o.scale, o.seed, u, images, checked, newRecorder(w.name, "verify"))
	if err != nil {
		return nil, err
	}

	res := &result{Correct: v.failed == 0, Metrics: map[string]metric{}}
	for _, r := range checked {
		res.Attempted += len(r.ops)
	}
	res.Failed = v.failed

	rep.env(w, o, rounds[0])
	if o.trace {
		layerMetrics(res.Metrics, setups, rounds, rec, tr)
	} else {
		endToEndMetrics(res.Metrics, setups, rounds, rss)
	}
	rep.metrics(res.Metrics, setups, rounds)
	if tr != nil {
		rep.traced(tr, res.Metrics)
	}
	for _, l := range v.lines {
		rep.printf("check: %s\n", l)
	}
	rep.printf("error_rate=%g (%d of %d ops); simulated outputs are digest-checked, so model accuracy against the paper (EXPERIMENTS.md) is unchanged and no error figure is claimed\n",
		float64(res.Failed)/float64(max(res.Attempted, 1)), res.Failed, res.Attempted)
	return res, nil
}

// measureRounds repeats whole rounds until d has elapsed (at least one).
func measureRounds(w *benchWorkload, images []*checkpoint.Image, rec *recorder, d time.Duration) []roundResult {
	runtime.GC()
	var rounds []roundResult
	start := time.Now()
	for len(rounds) == 0 || time.Since(start) < d {
		rounds = append(rounds, runRound(w, images, w.traced, rec))
	}
	return rounds
}

// tracedRun is a --trace 1 run: one labelled set-up under a CPU
// profile, then measured rounds that alternate between plain and
// profiled, so both kinds see the same machine conditions.
type tracedRun struct {
	plain, rounds []roundResult // unprofiled and profiled rounds
	rec           *recorder     // calls of the profiled rounds
	setup, run    *cpuProfile
	files         string // glob of the profile files written
}

func profiledRun(w *benchWorkload, u *workload.Universe, images []*checkpoint.Image, plainRec *recorder,
	o options, d time.Duration) (*tracedRun, error) {
	prefix := filepath.Join(o.out, "perfbench-"+w.name)
	stale, _ := filepath.Glob(prefix + "-*.pprof")
	for _, f := range stale {
		if err := os.Remove(f); err != nil {
			return nil, err // a stale round's profile would join the glob
		}
	}
	tr := &tracedRun{rec: newRecorder(w.name, "measure"), run: &cpuProfile{}, files: prefix + "-*.pprof"}
	var err error
	tr.setup, err = profile(prefix+"-setup.pprof", func() error {
		_, err := setup(w, u, o.out, newRecorder(w.name, "setup"))
		return err
	})
	if err != nil {
		return nil, err
	}
	runtime.GC()
	start := time.Now()
	for i := 0; i == 0 || time.Since(start) < d; i++ {
		tr.plain = append(tr.plain, runRound(w, images, w.traced, plainRec))
		p, err := profile(fmt.Sprintf("%s-measure-%02d.pprof", prefix, i), func() error {
			tr.rounds = append(tr.rounds, runRound(w, images, w.traced, tr.rec))
			return nil
		})
		if err != nil {
			return nil, err
		}
		tr.run.samples = append(tr.run.samples, p.samples...)
	}
	return tr, nil
}

// profile runs fn under a CPU profile, writes the profile to path and
// returns it decoded.
func profile(path string, fn func() error) (*cpuProfile, error) {
	var buf bytes.Buffer
	if err := pprof.StartCPUProfile(&buf); err != nil {
		return nil, err
	}
	err := fn()
	pprof.StopCPUProfile()
	if err != nil {
		return nil, err
	}
	if err := os.WriteFile(path, buf.Bytes(), 0o644); err != nil {
		return nil, err
	}
	return parseProfile(buf.Bytes())
}

func seconds(ds []time.Duration) []float64 {
	out := make([]float64, len(ds))
	for i, d := range ds {
		out[i] = d.Seconds()
	}
	return out
}

// peakRSSMB returns the process's maximum resident set size in MiB.
func peakRSSMB() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return float64(ru.Maxrss) / 1024 // Linux reports KiB
}

// cpuModel returns the host CPU model name, or "unknown".
func cpuModel() string {
	b, err := os.ReadFile("/proc/cpuinfo")
	if err != nil {
		return "unknown"
	}
	for _, line := range strings.Split(string(b), "\n") {
		if k, v, ok := strings.Cut(line, ":"); ok && strings.TrimSpace(k) == "model name" {
			return strings.TrimSpace(v)
		}
	}
	return "unknown"
}
