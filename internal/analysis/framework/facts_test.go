package framework

import (
	"go/ast"
	"go/types"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// markFact is the test fact vocabulary: one string field.
type markFact struct{ Note string }

func (*markFact) AFact() {}

// markAnalyzer exports a fact on every package-level function whose name
// starts with "Marked" and reports every call to a dependency function
// carrying the fact — the minimal shape of a cross-package analysis.
var markAnalyzer = &Analyzer{
	Name:      "marktest",
	Doc:       "test analyzer exercising fact export and import",
	FactTypes: []Fact{new(markFact)},
	Run: func(p *Pass) error {
		for _, f := range p.Files {
			for _, d := range f.Decls {
				fd, ok := d.(*ast.FuncDecl)
				if !ok || fd.Recv != nil || !strings.HasPrefix(fd.Name.Name, "Marked") {
					continue
				}
				if fn, ok := p.TypesInfo.Defs[fd.Name].(*types.Func); ok {
					p.ExportObjectFact(fn, &markFact{Note: "marked " + fn.Name()})
				}
			}
			ast.Inspect(f, func(n ast.Node) bool {
				call, ok := n.(*ast.CallExpr)
				if !ok {
					return true
				}
				fn := CalledFunc(p.TypesInfo, call)
				if fn == nil || fn.Pkg() == nil || fn.Pkg() == p.Pkg {
					return true
				}
				var mf markFact
				if p.ImportObjectFact(fn, &mf) {
					p.Reportf(call.Pos(), "call to marked dependency function %s (%s)", fn.Name(), mf.Note)
				}
				return true
			})
		}
		return nil
	},
}

// writeTree materializes a file tree under a temp dir and returns its
// root.
func writeTree(t *testing.T, files map[string]string) string {
	t.Helper()
	root := t.TempDir()
	for name, src := range files {
		path := filepath.Join(root, filepath.FromSlash(name))
		if err := os.MkdirAll(filepath.Dir(path), 0o777); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, []byte(src), 0o666); err != nil {
			t.Fatal(err)
		}
	}
	return root
}

func TestObjectKeysAcrossExportedPackage(t *testing.T) {
	root := writeTree(t, map[string]string{
		"go.mod": "module tmod\n",
		"a/a.go": `package a

type Counter struct{ n int }

func (c *Counter) Add() { c.n++ }
func (c Counter) Get() int { return c.n }

func Top() int { return 0 }
`,
	})
	loader, err := NewLoader(root)
	if err != nil {
		t.Fatal(err)
	}
	unit, err := loader.PureUnit("tmod/a")
	if err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{"Top", "Counter", "Counter.Add", "Counter.Get"} {
		obj := LookupObjectKey(unit.Pkg, want)
		if obj == nil {
			t.Errorf("LookupObjectKey(%q) = nil", want)
			continue
		}
		key, ok := objectKey(obj)
		if !ok || key != want {
			t.Errorf("objectKey round trip of %q = %q, %v", want, key, ok)
		}
	}
	if obj := LookupObjectKey(unit.Pkg, "Counter.Missing"); obj != nil {
		t.Errorf("LookupObjectKey on a missing method = %v, want nil", obj)
	}
	// A struct field is not keyable: importers can't address it.
	field := unit.Pkg.Scope().Lookup("Counter").Type().Underlying().(*types.Struct).Field(0)
	if key, ok := objectKey(field); ok {
		t.Errorf("struct field got object key %q, want unkeyable", key)
	}
}

// TestDriverCrossPackageFacts is the framework-level seeded regression:
// a fact proven in package a must reach the analysis of package b, which
// imports it.
func TestDriverCrossPackageFacts(t *testing.T) {
	root := writeTree(t, map[string]string{
		"go.mod": "module tmod\n",
		"a/a.go": `package a

func MarkedSource() int { return 1 }

func Plain() int { return 2 }
`,
		"b/b.go": `package b

import "tmod/a"

func Use() int {
	//satlint:ignore marktest fixture: stale directive, suppresses nothing
	clean := a.Plain()
	return a.MarkedSource() + clean
}
`,
	})
	loader, err := NewLoader(root)
	if err != nil {
		t.Fatal(err)
	}
	units, err := loader.LoadDir(filepath.Join(root, "b"), "tmod/b")
	if err != nil {
		t.Fatal(err)
	}
	if len(units) != 1 {
		t.Fatalf("got %d units for tmod/b, want 1", len(units))
	}
	driver := NewDriver(loader, []*Analyzer{markAnalyzer})
	diags, err := driver.Run(units[0])
	if err != nil {
		t.Fatal(err)
	}

	var cross, unused int
	for _, d := range diags {
		switch {
		case d.Analyzer == "marktest":
			if !strings.Contains(d.Message, "MarkedSource") {
				t.Errorf("unexpected marktest finding: %s", d.Message)
			}
			if d.Ignored {
				t.Error("cross-package finding wrongly suppressed by the stale directive")
			}
			cross++
		case strings.Contains(d.Message, "unused //satlint:ignore"):
			unused++
		default:
			t.Errorf("unexpected diagnostic [%s] %s", d.Analyzer, d.Message)
		}
	}
	if cross != 1 {
		t.Errorf("got %d cross-package findings, want exactly 1 (the MarkedSource call)", cross)
	}
	if unused != 1 {
		t.Errorf("got %d unused-directive findings, want 1 (the stale directive in b)", unused)
	}

	// The fact store must hold a's export.
	var found bool
	for _, e := range driver.Facts().Entries() {
		if e.Pkg == "tmod/a" && e.Object == "MarkedSource" {
			found = true
			if mf := e.Fact.(*markFact); mf.Note != "marked MarkedSource" {
				t.Errorf("fact note = %q after round trip", mf.Note)
			}
		}
	}
	if !found {
		t.Error("fact exported in tmod/a missing from the driver store")
	}
}

func TestExportUndeclaredFactTypePanics(t *testing.T) {
	root := writeTree(t, map[string]string{
		"go.mod": "module tmod\n",
		"a/a.go": "package a\n\nfunc F() {}\n",
	})
	loader, err := NewLoader(root)
	if err != nil {
		t.Fatal(err)
	}
	unit, err := loader.PureUnit("tmod/a")
	if err != nil {
		t.Fatal(err)
	}
	bad := &Analyzer{
		Name: "badfact",
		Doc:  "exports a fact type it never declared",
		Run: func(p *Pass) error {
			defer func() {
				if recover() == nil {
					t.Error("ExportObjectFact with an undeclared fact type did not panic")
				}
			}()
			fn := unit.Pkg.Scope().Lookup("F").(*types.Func)
			p.ExportObjectFact(fn, &markFact{Note: "x"})
			return nil
		},
	}
	if _, err := RunAnalyzers(unit, []*Analyzer{bad}, nil); err != nil {
		t.Fatal(err)
	}
}
