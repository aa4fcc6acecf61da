package main

import (
	"bytes"
	"encoding/json"
	"math"
	"os"
	"testing"
)

// benchmarkSpec is the part of ../BENCHMARK.json the self-test checks.
type benchmarkSpec struct {
	Workloads []struct {
		Name string `json:"name"`
	} `json:"workloads"`
	EndToEnd []specMetric `json:"end_to_end"`
	PerLayer []specMetric `json:"per_layer"`
}

type specMetric struct {
	Name string `json:"name"`
	Unit string `json:"unit"`
}

func readSpec(t *testing.T) benchmarkSpec {
	t.Helper()
	b, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var s benchmarkSpec
	if err := json.Unmarshal(b, &s); err != nil {
		t.Fatal(err)
	}
	return s
}

// TestWorkloadsTiny runs every workload at the tiny size, untraced and
// traced, and checks that each run is correct, matches its pinned
// digest, and emits every metric BENCHMARK.json names with its unit.
func TestWorkloadsTiny(t *testing.T) {
	spec := readSpec(t)
	var names []string
	for _, w := range spec.Workloads {
		names = append(names, w.Name)
	}
	if len(names) != len(workloadNames) {
		t.Fatalf("BENCHMARK.json workloads %v, benchmark runs %v", names, workloadNames)
	}
	pins, err := pinnedDigests()
	if err != nil {
		t.Fatal(err)
	}
	for _, name := range names {
		for scale, byName := range pins {
			if byName[name] == "" {
				t.Errorf("no %s digest pinned for workload %s", scale, name)
			}
		}
		for _, trace := range []bool{false, true} {
			o := options{workload: name, seed: defaultSeed, trace: trace, scale: "tiny", out: t.TempDir()}
			var out bytes.Buffer
			res, err := run(o, &out)
			if err != nil {
				t.Fatalf("%s trace=%v: %v", name, trace, err)
			}
			if !res.Correct || res.Failed != 0 || res.Attempted == 0 {
				t.Fatalf("%s trace=%v: correct=%v failed=%d attempted=%d\n%s",
					name, trace, res.Correct, res.Failed, res.Attempted, out.String())
			}
			want := spec.EndToEnd
			if trace {
				want = spec.PerLayer
			}
			for _, m := range want {
				got, ok := res.Metrics[m.Name]
				switch {
				case !ok:
					t.Errorf("%s trace=%v: metric %s not emitted", name, trace, m.Name)
				case got.Unit != m.Unit:
					t.Errorf("%s trace=%v: metric %s has unit %q, BENCHMARK.json says %q", name, trace, m.Name, got.Unit, m.Unit)
				case math.IsNaN(got.Value) || math.IsInf(got.Value, 0):
					t.Errorf("%s trace=%v: metric %s = %v", name, trace, m.Name, got.Value)
				}
			}
			if !trace {
				continue
			}
			if ev := res.Metrics["obs.events"].Value; (ev > 0) != (name == "traced") {
				t.Errorf("%s: obs.events = %v; want non-zero only on traced", name, ev)
			}
			var total float64
			for _, mod := range modules {
				total += res.Metrics[mod+".self_pct"].Value
			}
			if total != 0 && math.Abs(total-100) > 1e-6 {
				t.Errorf("%s: self_pct shares sum to %v, want 100", name, total)
			}
		}
	}
}

// TestSeedSetsInputs pins that the seed alone determines a workload's
// ops: equal seeds give equal ops, different seeds different ones.
func TestSeedSetsInputs(t *testing.T) {
	for _, name := range workloadNames {
		a, _ := buildWorkload(name, 5, "full")
		b, _ := buildWorkload(name, 5, "full")
		c, _ := buildWorkload(name, 6, "full")
		if !sameOps(a, b) {
			t.Errorf("%s: seed 5 built two different workloads", name)
		}
		if sameOps(a, c) {
			t.Errorf("%s: seeds 5 and 6 built the same workload", name)
		}
	}
}

func sameOps(a, b *benchWorkload) bool {
	if len(a.groups) != len(b.groups) {
		return false
	}
	for i := range a.groups {
		ga, gb := a.groups[i], b.groups[i]
		if ga.label != gb.label || len(ga.ops) != len(gb.ops) {
			return false
		}
		for j := range ga.ops {
			x, y := ga.ops[j], gb.ops[j]
			if x.kind != y.kind || x.runSeed != y.runSeed || x.iters != y.iters || x.asid != y.asid {
				return false
			}
		}
	}
	return true
}

func TestModuleOf(t *testing.T) {
	for fn, want := range map[string]string{
		"repro/internal/tlb.(*TLB).LookupRun":           "tlb",
		"repro/internal/arch/sv39.(*mmu).Geometry":      "arch",
		"repro/internal/cache.(*Cache).Access":          "cache",
		"repro/internal/stats.Median":                   "other",
		"runtime.mallocgc":                              "runtime",
		"runtime/internal/atomic.Load":                  "runtime",
		"main.runOps":                                   "other",
		"crypto/sha256.block":                           "other",
		"repro/internal/checkpoint.(*Image).Fork.func1": "checkpoint",
	} {
		if got := moduleOf(fn); got != want {
			t.Errorf("moduleOf(%q) = %q, want %q", fn, got, want)
		}
	}
}
