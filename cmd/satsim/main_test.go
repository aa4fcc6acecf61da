package main

import (
	"bytes"
	"encoding/json"
	"flag"
	"os"
	"path/filepath"
	"sync/atomic"
	"testing"

	"repro/internal/checkpoint"
	"repro/internal/imagestore"
	"repro/internal/workload"
)

var updateGolden = flag.Bool("update-golden", false, "rewrite ../../testdata/satsim_email*.golden.json from the current output")

// countingStore wraps an image store and counts its traffic, so a test
// can prove whether the boot was simulated or loaded from disk.
type countingStore struct {
	checkpoint.ImageStore
	saves, hits, misses atomic.Int64
}

func (c *countingStore) Load(key string) (*checkpoint.Image, bool) {
	img, ok := c.ImageStore.Load(key)
	if ok {
		c.hits.Add(1)
	} else {
		c.misses.Add(1)
	}
	return img, ok
}

func (c *countingStore) Save(key string, img *checkpoint.Image) {
	c.saves.Add(1)
	c.ImageStore.Save(key, img)
}

// runScenario parses and runs o, with an image store under storeDir
// unless it is empty, and returns the report and the store's counters.
func runScenario(t *testing.T, o options, storeDir string) ([]byte, *countingStore) {
	t.Helper()
	cfg, layout, specs, err := o.parse()
	if err != nil {
		t.Fatal(err)
	}
	u := workload.DefaultUniverse()
	var store checkpoint.ImageStore
	var counts *countingStore
	if storeDir != "" {
		s, err := imagestore.Open(storeDir, u)
		if err != nil {
			t.Fatal(err)
		}
		counts = &countingStore{ImageStore: s}
		store = counts
	}
	var out bytes.Buffer
	if err := run(&out, o, cfg, layout, specs, u, store); err != nil {
		t.Fatal(err)
	}
	return out.Bytes(), counts
}

// TestGolden diffs the pinned Email scenario on every architecture
// against its committed golden, with no image store, a cold store and a
// warm one. Regenerate the goldens with
// go test -run '^TestGolden$' ./internal/experiments ./cmd/satsim -update-golden
func TestGolden(t *testing.T) {
	for _, arch := range []string{"armv7", "sv39"} {
		t.Run(arch, func(t *testing.T) {
			suffix := ""
			if arch != "armv7" {
				suffix = "_" + arch
			}
			golden := filepath.Join("..", "..", "testdata", "satsim_email"+suffix+".golden.json")
			o := options{kernel: "shared-tlb", layout: "original", arch: arch, app: "Email", runs: 2, json: true}

			want, err := os.ReadFile(golden)
			if *updateGolden {
				want, _ = runScenario(t, o, "")
				err = os.WriteFile(golden, want, 0o644)
			}
			if err != nil {
				t.Fatal(err)
			}
			dir := t.TempDir()
			for _, mode := range []string{"no store", "cold store", "warm store"} {
				storeDir := dir
				if mode == "no store" {
					storeDir = ""
				}
				got, c := runScenario(t, o, storeDir)
				if !bytes.Equal(got, want) {
					t.Errorf("%s: output differs from %s:\ngot:\n%s", mode, golden, got)
				}
				switch {
				case mode == "cold store" && (c.saves.Load() == 0 || c.hits.Load() != 0):
					t.Errorf("cold store: %d saves, %d load hits; want a saved boot and no hits", c.saves.Load(), c.hits.Load())
				case mode == "warm store" && (c.saves.Load() != 0 || c.misses.Load() != 0 || c.hits.Load() == 0):
					t.Errorf("warm store: %d saves, %d load misses, %d hits; want the boot loaded, not saved",
						c.saves.Load(), c.misses.Load(), c.hits.Load())
				}
			}
		})
	}
}

// TestSuiteParallelByteIdentical checks the text report: the whole-suite
// sweep must print the same bytes serially and with 4 workers.
func TestSuiteParallelByteIdentical(t *testing.T) {
	o := options{kernel: "shared-tlb", layout: "original", arch: "armv7", app: "all", runs: 1, parallel: 1}
	a, _ := runScenario(t, o, "")
	o.parallel = 4
	b, _ := runScenario(t, o, "")
	if !bytes.Equal(a, b) {
		t.Fatal("serial and 4-worker text reports differ")
	}
}

// TestJSONParallelByteIdenticalAndSchema checks the -json document: byte
// identity across worker counts, the schema id, one entry per suite app,
// and a populated source snapshot including the kernel and per-CPU TLBs.
func TestJSONParallelByteIdenticalAndSchema(t *testing.T) {
	o := options{kernel: "stock", layout: "2mb", arch: "armv7", app: "all", runs: 1, parallel: 1, json: true}
	a, _ := runScenario(t, o, "")
	o.parallel = 4
	b, _ := runScenario(t, o, "")
	if !bytes.Equal(a, b) {
		t.Fatal("serial and 4-worker JSON documents differ")
	}

	var doc jsonDoc
	if err := json.Unmarshal(a, &doc); err != nil {
		t.Fatalf("invalid JSON: %v", err)
	}
	if doc.Schema != SchemaID {
		t.Fatalf("schema = %q, want %q", doc.Schema, SchemaID)
	}
	if want := len(workload.Suite()); len(doc.Apps) != want {
		t.Fatalf("got %d apps, want %d", len(doc.Apps), want)
	}
	for _, app := range doc.Apps {
		if len(app.Runs) != 1 {
			t.Fatalf("%s: got %d runs, want 1", app.App, len(app.Runs))
		}
		for _, name := range []string{"kernel", "cpu0.mainTLB", "cpu0.L1I", "L2"} {
			if _, ok := app.Sources[name]; !ok {
				t.Errorf("%s: source %q missing from snapshot", app.App, name)
			}
		}
	}
}
