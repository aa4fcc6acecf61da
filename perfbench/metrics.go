package main

import (
	"bufio"
	"fmt"
	"runtime"
	"sort"
	"time"

	"repro/internal/stats"
)

// phases are the pprof phase labels, one per public call the benchmark
// makes: set-up phases first, then measured ones.
var (
	setupPhases   = []string{"boot", "capture", "save", "load"}
	measurePhases = []string{"fork", "launch", "run", "binder", "exit"}
)

// roundWalls returns each round's host seconds.
func roundWalls(rounds []roundResult) []float64 {
	out := make([]float64, len(rounds))
	for i, r := range rounds {
		out[i] = r.wall.Seconds()
	}
	return out
}

// totalWall returns the summed host time of the rounds.
func totalWall(rounds []roundResult) time.Duration {
	var t time.Duration
	for _, r := range rounds {
		t += r.wall
	}
	return t
}

// opMillis returns every op's host latency in milliseconds, sorted.
func opMillis(rounds []roundResult) []float64 {
	var out []float64
	for _, r := range rounds {
		for _, op := range r.ops {
			out = append(out, op.wall.Seconds()*1e3)
		}
	}
	sort.Float64s(out)
	return out
}

// sum adds the named counters over every op of a round.
func sum(ops []opRecord, keys ...string) float64 {
	var t uint64
	for _, op := range ops {
		for _, k := range keys {
			t += op.counts[k]
		}
	}
	return float64(t)
}

// simRefs is the simulated L1I plus L1D accesses of a round.
func simRefs(ops []opRecord) float64 {
	return sum(ops, "src.cpu0.L1I.accesses", "src.cpu0.L1D.accesses")
}

func endToEndMetrics(m map[string]metric, setups []setupResult, rounds []roundResult, rssMB float64) {
	runS := stats.Summarize(roundWalls(rounds)).Median
	ops := opMillis(rounds)
	allocs := make([]float64, len(rounds))
	for i, r := range rounds {
		allocs[i] = float64(r.alloc) / (1 << 20)
	}
	m["run_s"] = metric{runS, "s"}
	m["sim_mrefs_per_s"] = metric{simRefs(rounds[0].ops) / runS / 1e6, "Mref/s"}
	m["op_p50_ms"] = metric{stats.Quantile(ops, 0.5), "ms"}
	m["op_p90_ms"] = metric{stats.Quantile(ops, 0.9), "ms"}
	m["setup_s"] = metric{stats.Summarize(setupWalls(setups)).Median, "s"}
	m["peak_rss_mb"] = metric{rssMB, "MiB"}
	m["alloc_mb"] = metric{stats.Summarize(allocs).Median, "MiB"}
}

// perSetup returns the median over set-ups of a phase's total time in
// one set-up, in milliseconds.
func perSetup(setups []setupResult, phase string) float64 {
	totals := make([]float64, len(setups))
	for i, s := range setups {
		totals[i] = s.PhaseMS[phase]
	}
	return stats.Summarize(totals).Median
}

// setupWalls returns each set-up's host seconds.
func setupWalls(setups []setupResult) []float64 {
	out := make([]float64, len(setups))
	for i, s := range setups {
		out[i] = s.Wall
	}
	return out
}

// perCall returns the median latency of one call of a phase, scaled by
// unit (1e3 for ms, 1e6 for us); 0 when the workload makes no such call.
func perCall(rec *recorder, phase string, unit float64) float64 {
	return stats.Summarize(seconds(rec.calls[phase])).Median * unit
}

func ratio(num, den float64) float64 {
	if den == 0 {
		return 0
	}
	return num / den
}

func layerMetrics(m map[string]metric, setups []setupResult,
	rounds []roundResult, rec *recorder, tr *tracedRun) {
	ops := rounds[0].ops
	m["android.boot_ms"] = metric{perSetup(setups, "boot"), "ms"}
	m["checkpoint.capture_ms"] = metric{perSetup(setups, "capture"), "ms"}
	m["imagestore.save_ms"] = metric{perSetup(setups, "save"), "ms"}
	m["imagestore.load_ms"] = metric{perSetup(setups, "load"), "ms"}
	m["imagestore.image_mb"] = metric{float64(setups[0].ImageBytes) / (1 << 20), "MiB"}
	m["android.launch_ms"] = metric{perCall(rec, "launch", 1e3), "ms"}
	m["android.run_ms"] = metric{perCall(rec, "run", 1e3), "ms"}
	m["android.binder_ms"] = metric{perCall(rec, "binder", 1e3), "ms"}
	m["checkpoint.fork_us"] = metric{perCall(rec, "fork", 1e6), "us"}
	m["core.exit_us"] = metric{perCall(rec, "exit", 1e6), "us"}

	for _, k := range []string{"forks", "ptes_copied_at_fork", "ptps_shared_at_fork", "unshare_ops", "ptes_copied_on_unshare", "tlb_shootdowns"} {
		m["core."+k] = metric{sum(ops, "src.kernel."+k), "count"}
	}
	m["vm.page_faults"] = metric{sum(ops, "proc.page_faults"), "count"}
	m["vm.file_faults"] = metric{sum(ops, "proc.file_faults"), "count"}
	m["vm.cow_breaks"] = metric{sum(ops, "proc.cow_breaks"), "count"}
	m["pagetable.ptps_allocated"] = metric{sum(ops, "proc.ptps_allocated"), "count"}

	tlbs := []string{"src.cpu0.uTLB-I.", "src.cpu0.uTLB-D.", "src.cpu0.mainTLB."}
	allTLBs := func(k string) []string {
		out := make([]string, len(tlbs))
		for i, t := range tlbs {
			out[i] = t + k
		}
		return out
	}
	hits, misses := sum(ops, "src.cpu0.mainTLB.hits"), sum(ops, "src.cpu0.mainTLB.misses")
	m["tlb.main_hits"] = metric{hits, "count"}
	m["tlb.main_misses"] = metric{misses, "count"}
	m["tlb.main_hit_ratio"] = metric{ratio(hits, hits+misses), "ratio"}
	m["tlb.micro_i_misses"] = metric{sum(ops, "src.cpu0.uTLB-I.misses"), "count"}
	m["tlb.micro_d_misses"] = metric{sum(ops, "src.cpu0.uTLB-D.misses"), "count"}
	m["tlb.insertions"] = metric{sum(ops, allTLBs("insertions")...), "count"}
	m["tlb.flushes"] = metric{sum(ops, allTLBs("flushes")...), "count"}
	m["tlb.flushed_entries"] = metric{sum(ops, allTLBs("flushed_entries")...), "count"}

	l1iAcc := sum(ops, "src.cpu0.L1I.accesses")
	m["cache.l1i_accesses"] = metric{l1iAcc, "count"}
	m["cache.l1i_misses"] = metric{sum(ops, "src.cpu0.L1I.misses"), "count"}
	m["cache.l1i_hit_ratio"] = metric{ratio(sum(ops, "src.cpu0.L1I.hits"), l1iAcc), "ratio"}
	m["cache.l1d_accesses"] = metric{sum(ops, "src.cpu0.L1D.accesses"), "count"}
	m["cache.l1d_misses"] = metric{sum(ops, "src.cpu0.L1D.misses"), "count"}
	m["cache.l2_misses"] = metric{sum(ops, "src.L2.misses"), "count"}

	refs := simRefs(ops)
	runS := stats.Summarize(roundWalls(rounds)).Median
	m["cpu.sim_refs"] = metric{refs, "count"}
	m["cpu.sim_cycles"] = metric{sum(ops, "clock"), "count"}
	m["cpu.context_switches"] = metric{sum(ops, "proc.context_switches"), "count"}
	m["cpu.ns_per_ref"] = metric{ratio(runS*1e9, refs), "ns"}
	m["obs.events"] = metric{float64(rounds[0].events), "count"}
	m["obs.dropped"] = metric{float64(rounds[0].dropped), "count"}

	for mod, pct := range tr.run.selfPct() {
		m[mod+".self_pct"] = metric{pct, "%"}
	}
	setupNanos, runNanos := tr.setup.labelled("phase"), tr.run.labelled("phase")
	for _, p := range setupPhases {
		m["phase."+p+"_ms"] = metric{float64(setupNanos[p]) / 1e6, "ms"}
	}
	for _, p := range measurePhases {
		m["phase."+p+"_ms"] = metric{float64(runNanos[p]) / 1e6 / float64(len(tr.rounds)), "ms"}
	}
	tracedS := stats.Summarize(roundWalls(tr.rounds)).Median
	m["trace.overhead_pct"] = metric{100 * (tracedS/runS - 1), "%"}
	wall := totalWall(tr.rounds).Seconds()
	m["trace.unattributed_pct"] = metric{100 * (1 - ratio(tr.rec.total().Seconds(), wall)), "%"}
}

// report is the human-readable part of the output, printed before the
// result line.
type report struct {
	w *bufio.Writer
}

func (r *report) printf(format string, args ...any) { fmt.Fprintf(r.w, format, args...) }

// env stamps the machine and the workload size.
func (r *report) env(w *benchWorkload, o options, first roundResult) {
	r.printf("env: nproc=%d gomaxprocs=%d go=%s cpu=%q seed=%d ops_per_round=%d sim_refs_per_round=%.0f\n",
		runtime.NumCPU(), runtime.GOMAXPROCS(0), runtime.Version(), cpuModel(), o.seed, w.numOps(), simRefs(first.ops))
}

func (r *report) dist(name, unit string, xs []float64) {
	f := stats.Summarize(xs)
	r.printf("  %-16s median=%.4g q1=%.4g q3=%.4g n=%d %s\n", name, f.Median, f.Q1, f.Q3, len(xs), unit)
}

// metrics prints every metric, and the distributions behind the timings.
func (r *report) metrics(m map[string]metric, setups []setupResult, rounds []roundResult) {
	r.printf("timings:\n")
	r.dist("setup_s", "s", setupWalls(setups))
	r.dist("run_s", "s (per round)", roundWalls(rounds))
	r.printf("  rounds_s        ")
	for _, x := range roundWalls(rounds) {
		r.printf(" %.3f", x)
	}
	r.printf("\n")
	ops := opMillis(rounds)
	r.dist("op_ms", "ms", ops)
	r.printf("  %-16s p90=%.4g n=%d ms\n", "op_ms", stats.Quantile(ops, 0.9), len(ops))
	names := make([]string, 0, len(m))
	for k := range m {
		names = append(names, k)
	}
	sort.Strings(names)
	r.printf("metrics:\n")
	for _, k := range names {
		r.printf("  %-30s %-14.6g %s\n", k, m[k].Value, m[k].Unit)
	}
}

// traced prints the reconciliation of the profiled rounds: the share of
// measured wall time inside each labelled call, the unattributed rest,
// and each module's share of CPU time.
func (r *report) traced(tr *tracedRun, m map[string]metric) {
	wall := totalWall(tr.rounds)
	r.printf("reconciliation over %d profiled rounds (%.3fs wall): ", len(tr.rounds), wall.Seconds())
	for _, p := range measurePhases {
		var t time.Duration
		for _, d := range tr.rec.calls[p] {
			t += d
		}
		if t > 0 {
			r.printf("%s %.1f%% + ", p, 100*t.Seconds()/wall.Seconds())
		}
	}
	r.printf("unattributed %.1f%%\n", m["trace.unattributed_pct"].Value)
	r.printf("module self time in the profiled rounds:")
	for _, mod := range modules {
		r.printf(" %s=%.1f%%", mod, m[mod+".self_pct"].Value)
	}
	r.printf("\nprofiles: %s (go tool pprof -top -tagfocus=phase=run FILES)\n", tr.files)
}
