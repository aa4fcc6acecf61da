// Package analysistest runs a satlint analyzer over fixture packages
// under testdata/src and checks its diagnostics against `// want`
// comments, mirroring the x/tools package of the same name.
//
// A fixture line carrying expectations looks like
//
//	_ = time.Now() // want `time\.Now reads the wall clock`
//
// with one Go-quoted regexp (backquoted or double-quoted) per expected
// diagnostic on that line. Diagnostics suppressed by //satlint:ignore
// directives are filtered before matching, so fixtures can also assert
// the suppression contract itself.
//
// Fact expectations use the `fact:` prefix:
//
//	type Image struct{ N int } // want fact:`Image: .*frozen`
//
// and assert that, once every fixture package has been analyzed, the
// fact store holds a fact on an object declared on that line whose
// rendered form `<ObjectKey>: <fact struct>` matches the regexp. Facts
// are matched globally after all packages run, so a fact exported by
// one fixture package and asserted in another proves cross-package
// propagation (packages are analyzed with the framework Driver, the same
// driver `satlint ./...` uses).
//
// Every directory under testdata/src is registered as an importable
// package (its path relative to src), and module-internal imports like
// repro/internal/obs resolve to the real packages, so fixtures exercise
// analyzers against the actual simulator API.
package analysistest

import (
	"fmt"
	"go/ast"
	"go/token"
	"os"
	"path/filepath"
	"reflect"
	"regexp"
	"strconv"
	"strings"
	"testing"

	"repro/internal/analysis/framework"
)

// Run loads each fixture package (a path under testdata/src) in the
// given order and checks the analyzer's diagnostics and fact exports
// against the fixtures' want comments. List dependency fixtures before
// their dependents.
func Run(t *testing.T, a *framework.Analyzer, fixturePkgs ...string) {
	t.Helper()
	root, err := framework.FindModuleRoot(".")
	if err != nil {
		t.Fatal(err)
	}
	loader, err := framework.NewLoader(root)
	if err != nil {
		t.Fatal(err)
	}
	src, err := filepath.Abs(filepath.Join("testdata", "src"))
	if err != nil {
		t.Fatal(err)
	}
	if err := registerFixtures(loader, src); err != nil {
		t.Fatal(err)
	}
	driver := framework.NewDriver(loader, []*framework.Analyzer{a})
	var analyzed []*framework.Unit
	for _, pkg := range fixturePkgs {
		units, err := loader.LoadDir(filepath.Join(src, filepath.FromSlash(pkg)), pkg)
		if err != nil {
			t.Fatalf("loading fixture %q: %v", pkg, err)
		}
		for _, unit := range units {
			diags, err := driver.Run(unit)
			if err != nil {
				t.Fatalf("running %s over %q: %v", a.Name, unit.ImportPath, err)
			}
			match(t, unit, diags)
			analyzed = append(analyzed, unit)
		}
	}
	matchFacts(t, driver, analyzed)
}

// registerFixtures makes every directory under src importable by its
// relative path.
func registerFixtures(loader *framework.Loader, src string) error {
	return filepath.WalkDir(src, func(path string, d os.DirEntry, err error) error {
		if err != nil || !d.IsDir() {
			return err
		}
		hasGo := false
		entries, err := os.ReadDir(path)
		if err != nil {
			return err
		}
		for _, e := range entries {
			if !e.IsDir() && strings.HasSuffix(e.Name(), ".go") {
				hasGo = true
			}
		}
		if !hasGo {
			return nil
		}
		rel, err := filepath.Rel(src, path)
		if err != nil {
			return err
		}
		loader.AddPath(filepath.ToSlash(rel), path)
		return nil
	})
}

// expectation is one want regexp awaiting a diagnostic (fact=false) or
// a fact export (fact=true).
type expectation struct {
	file string
	line int
	re   *regexp.Regexp
	raw  string
	fact bool
	met  bool
}

func match(t *testing.T, unit *framework.Unit, diags []framework.Diagnostic) {
	t.Helper()
	wants := collectWants(t, unit)
	for _, d := range diags {
		if d.Ignored {
			continue
		}
		pos := unit.Fset.Position(d.Pos)
		matched := false
		for _, w := range wants {
			if !w.fact && !w.met && w.file == pos.Filename && w.line == pos.Line && w.re.MatchString(d.Message) {
				w.met = true
				matched = true
				break
			}
		}
		if !matched {
			t.Errorf("%s: unexpected diagnostic [%s] %s", pos, d.Analyzer, d.Message)
		}
	}
	for _, w := range wants {
		if !w.fact && !w.met {
			t.Errorf("%s:%d: expected diagnostic matching %s, got none", w.file, w.line, w.raw)
		}
	}
}

// matchFacts checks every fact: expectation across all analyzed units
// against the driver's final store. A store entry is located by
// resolving its object key in the unit whose import path owns it and
// rendering `<ObjectKey>: <fact>` ("<package>: <fact>" for package
// facts, anchored to the package clause line).
func matchFacts(t *testing.T, driver *framework.Driver, units []*framework.Unit) {
	t.Helper()
	var wants []*expectation
	for _, unit := range units {
		for _, w := range collectWants(t, unit) {
			if w.fact {
				wants = append(wants, w)
			}
		}
	}
	for _, e := range driver.Facts().Entries() {
		file, line, rendered, ok := renderFact(units, e)
		if !ok {
			continue // fact on an object outside the fixture units
		}
		for _, w := range wants {
			if !w.met && w.file == file && w.line == line && w.re.MatchString(rendered) {
				w.met = true
				break
			}
		}
	}
	for _, w := range wants {
		if !w.met {
			t.Errorf("%s:%d: expected fact matching %s, got none", w.file, w.line, w.raw)
		}
	}
}

// renderFact locates entry's object in the analyzed units and renders
// the matchable form.
func renderFact(units []*framework.Unit, e framework.FactEntry) (file string, line int, rendered string, ok bool) {
	val := reflect.ValueOf(e.Fact)
	for val.Kind() == reflect.Pointer {
		val = val.Elem()
	}
	for _, unit := range units {
		if unit.ImportPath != e.Pkg {
			continue
		}
		if e.Object == "" {
			pos := unit.Fset.Position(unit.Files[0].Package)
			return pos.Filename, pos.Line, fmt.Sprintf("%s: %+v", e.Pkg, val.Interface()), true
		}
		obj := framework.LookupObjectKey(unit.Pkg, e.Object)
		if obj == nil {
			continue
		}
		pos := unit.Fset.Position(obj.Pos())
		return pos.Filename, pos.Line, fmt.Sprintf("%s: %+v", e.Object, val.Interface()), true
	}
	return "", 0, "", false
}

// collectWants parses `// want` comments from every fixture file.
func collectWants(t *testing.T, unit *framework.Unit) []*expectation {
	t.Helper()
	var wants []*expectation
	for _, f := range unit.Files {
		for _, cg := range f.Comments {
			for _, c := range cg.List {
				wants = append(wants, parseWant(t, unit.Fset, c)...)
			}
		}
	}
	return wants
}

func parseWant(t *testing.T, fset *token.FileSet, c *ast.Comment) []*expectation {
	t.Helper()
	rest, ok := strings.CutPrefix(strings.TrimSpace(strings.TrimPrefix(c.Text, "//")), "want ")
	if !ok {
		return nil
	}
	pos := fset.Position(c.Pos())
	var out []*expectation
	for rest = strings.TrimSpace(rest); rest != ""; rest = strings.TrimSpace(rest) {
		isFact := false
		if r, ok := strings.CutPrefix(rest, "fact:"); ok {
			isFact = true
			rest = r
		}
		lit, remainder, err := cutStringLit(rest)
		if err != nil {
			t.Fatalf("%s: bad want comment: %v", pos, err)
		}
		re, err := regexp.Compile(lit)
		if err != nil {
			t.Fatalf("%s: bad want regexp: %v", pos, err)
		}
		out = append(out, &expectation{
			file: pos.Filename, line: pos.Line, re: re, raw: lit, fact: isFact,
		})
		rest = remainder
	}
	return out
}

// cutStringLit splits one leading Go string literal (quoted or
// backquoted) off s.
func cutStringLit(s string) (lit, rest string, err error) {
	if s == "" {
		return "", "", fmt.Errorf("empty expectation")
	}
	switch s[0] {
	case '`':
		end := strings.IndexByte(s[1:], '`')
		if end < 0 {
			return "", "", fmt.Errorf("unterminated backquoted expectation")
		}
		return s[1 : 1+end], s[2+end:], nil
	case '"':
		for i := 1; i < len(s); i++ {
			if s[i] == '"' && s[i-1] != '\\' {
				unq, err := strconv.Unquote(s[:i+1])
				return unq, s[i+1:], err
			}
		}
		return "", "", fmt.Errorf("unterminated quoted expectation")
	default:
		return "", "", fmt.Errorf("expectation must be a quoted or backquoted regexp")
	}
}
