package framework

import (
	"path/filepath"
	"runtime"
	"testing"
)

// TestLoaderAppliesBuildConstraints is the regression for the loader
// parsing every .go file in a directory regardless of build constraints:
// paired files like mmap_linux.go / mmap_other.go declare the same
// symbols for different platforms, and parsing both produced
// redeclaration type errors that broke `satlint ./...` on any package
// with platform splits. The loader must select files exactly like the go
// tool — honoring //go:build lines and GOOS filename suffixes.
func TestLoaderAppliesBuildConstraints(t *testing.T) {
	otherOS := "windows"
	if runtime.GOOS == "windows" {
		otherOS = "linux"
	}
	root := writeTree(t, map[string]string{
		"go.mod": "module tmod\n",
		// A //go:build pair: exactly one side matches on every host.
		"p/imp_native.go": "//go:build " + runtime.GOOS + "\n\npackage p\n\nconst Impl = \"native\"\n",
		"p/imp_other.go":  "//go:build !" + runtime.GOOS + "\n\npackage p\n\nconst Impl = \"other\"\n",
		// A GOOS filename suffix for a foreign platform: must be skipped
		// even without any //go:build line.
		"p/imp_" + otherOS + ".go": "package p\n\nconst Impl = \"foreign\"\n",
	})
	loader, err := NewLoader(root)
	if err != nil {
		t.Fatal(err)
	}
	unit, err := loader.PureUnit("tmod/p")
	if err != nil {
		t.Fatalf("constrained package failed to load (redeclaration?): %v", err)
	}
	if len(unit.Files) != 1 {
		t.Fatalf("loaded %d files, want 1 (the matching side of the pair)", len(unit.Files))
	}
	name := filepath.Base(loader.Fset.Position(unit.Files[0].Pos()).Filename)
	if name != "imp_native.go" {
		t.Errorf("loader kept %s, want imp_native.go", name)
	}

	// LoadDir walks the same filter.
	units, err := loader.LoadDir(filepath.Join(root, "p"), "tmod/p")
	if err != nil {
		t.Fatal(err)
	}
	if len(units) != 1 || len(units[0].Files) != 1 {
		t.Errorf("LoadDir loaded %d units, want 1 unit with 1 file", len(units))
	}
}

// TestLoadTreeStopsAtNestedModules is the regression for LoadTree walking
// into a subdirectory with its own go.mod: the go tool's "./..." stops
// there, since that directory belongs to another module, so the loader
// must too. Otherwise `satlint ./...` reports findings in code that
// `go build ./...` and `go vet ./...` never see.
func TestLoadTreeStopsAtNestedModules(t *testing.T) {
	root := writeTree(t, map[string]string{
		"go.mod":             "module tmod\n",
		"p/p.go":             "package p\n\nconst P = 1\n",
		"bench/go.mod":       "module tmod/bench\n",
		"bench/bench.go":     "package bench\n\nconst B = 1\n",
		"bench/sub/sub.go":   "package sub\n\nconst S = 1\n",
		"p/deeper/go.mod":    "module other\n",
		"p/deeper/deeper.go": "package deeper\n\nconst D = 1\n",
	})
	loader, err := NewLoader(root)
	if err != nil {
		t.Fatal(err)
	}
	for _, start := range []string{root, filepath.Join(root, "p")} {
		units, err := loader.LoadTree(start)
		if err != nil {
			t.Fatal(err)
		}
		var got []string
		for _, u := range units {
			got = append(got, u.ImportPath)
		}
		if len(got) != 1 || got[0] != "tmod/p" {
			t.Errorf("LoadTree(%s) loaded %v, want only [tmod/p] (nested modules skipped)", start, got)
		}
	}
}
