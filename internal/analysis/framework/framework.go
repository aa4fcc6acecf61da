// Package framework is the stdlib-only analysis driver underneath
// cmd/satlint: a deliberately small mirror of the
// golang.org/x/tools/go/analysis vocabulary (Analyzer, Pass, Diagnostic)
// built on go/ast and go/types alone, because this module vendors no
// third-party code and the build environment is hermetic. The shapes
// match x/tools closely enough that migrating the analyzers onto the
// real framework is mechanical should the dependency ever be added.
//
// The package also provides the one way analyses are driven: Loader
// type-checks module packages straight from source, and Driver runs the
// analyzers over them with cross-package facts held in memory. Both
// `satlint ./...` and analysistest use them. Every run funnels through
// RunAnalyzers, which applies the `//satlint:ignore <analyzers> <reason>`
// suppression contract before diagnostics are reported.
package framework

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
	"sort"
	"strings"
)

// An Analyzer describes one invariant check. Name must be a valid
// identifier (it is what ignore directives and -list print); Doc's first
// line is the one-line summary.
//
// FactTypes declares the Fact types the analyzer exports or imports —
// each element a pointer to the zero value, e.g. `[]Fact{new(FooFact)}`.
// An analyzer with a non-empty FactTypes is also run over the
// dependencies of each analyzed unit, so its facts reach dependent
// packages.
type Analyzer struct {
	Name      string
	Doc       string
	Run       func(*Pass) error
	FactTypes []Fact
}

// A Diagnostic is one finding at a source position. Ignored marks a
// finding suppressed by a //satlint:ignore directive: drivers keep it
// out of text output and exit codes, but -json reports it so tooling
// can audit what the directives are hiding.
type Diagnostic struct {
	Pos      token.Pos
	Analyzer string
	Message  string
	Ignored  bool
}

// A Pass presents one package (one analysis unit: a package together
// with its in-package test files, or an external test package) to an
// Analyzer.
type Pass struct {
	Analyzer  *Analyzer
	Fset      *token.FileSet
	Files     []*ast.File
	Pkg       *types.Package
	TypesInfo *types.Info

	diags *[]Diagnostic
	facts *FactStore
}

// Reportf records a finding at pos.
func (p *Pass) Reportf(pos token.Pos, format string, args ...interface{}) {
	*p.diags = append(*p.diags, Diagnostic{
		Pos:      pos,
		Analyzer: p.Analyzer.Name,
		Message:  fmt.Sprintf(format, args...),
	})
}

// IsTestFile reports whether pos lies in a _test.go file.
func (p *Pass) IsTestFile(pos token.Pos) bool {
	return strings.HasSuffix(p.Fset.Position(pos).Filename, "_test.go")
}

// BasePath strips the " [pkg.test]" variant suffix the go command
// appends to test-augmented package paths, so analyzers can compare
// import paths structurally.
func BasePath(path string) string {
	if i := strings.Index(path, " ["); i >= 0 {
		return path[:i]
	}
	return path
}

// RunAnalyzers runs every analyzer over the unit, applies the unit's
// //satlint:ignore directives (suppressed findings are returned with
// Ignored set, not dropped), appends diagnostics for malformed and
// unused directives, and returns the result sorted by position.
//
// facts is the store analyzers export to and import from; it must
// already hold the facts of the unit's dependencies (drivers arrange
// this). Pass nil when no analyzer in the run uses facts.
func RunAnalyzers(unit *Unit, analyzers []*Analyzer, facts *FactStore) ([]Diagnostic, error) {
	if facts == nil {
		facts = NewFactStore()
	}
	var diags []Diagnostic
	for _, a := range analyzers {
		pass := &Pass{
			Analyzer:  a,
			Fset:      unit.Fset,
			Files:     unit.Files,
			Pkg:       unit.Pkg,
			TypesInfo: unit.Info,
			diags:     &diags,
			facts:     facts,
		}
		if err := a.Run(pass); err != nil {
			return nil, fmt.Errorf("%s: %s: %v", a.Name, unit.Pkg.Path(), err)
		}
	}
	ign := ParseIgnores(unit.Fset, unit.Files)
	for i := range diags {
		if ign.Suppressed(unit.Fset, diags[i]) {
			diags[i].Ignored = true
		}
	}
	diags = append(diags, ign.Malformed...)
	active := map[string]bool{}
	for _, a := range analyzers {
		active[a.Name] = true
	}
	diags = append(diags, ign.Unused(active)...)
	SortDiagnostics(unit.Fset, diags)
	return diags, nil
}

// SortDiagnostics orders by file, line, column, then analyzer name, so
// output is stable whatever order analyzers visited the AST in.
func SortDiagnostics(fset *token.FileSet, ds []Diagnostic) {
	sort.SliceStable(ds, func(i, j int) bool {
		pi, pj := fset.Position(ds[i].Pos), fset.Position(ds[j].Pos)
		if pi.Filename != pj.Filename {
			return pi.Filename < pj.Filename
		}
		if pi.Line != pj.Line {
			return pi.Line < pj.Line
		}
		if pi.Column != pj.Column {
			return pi.Column < pj.Column
		}
		return ds[i].Analyzer < ds[j].Analyzer
	})
}

// CalledFunc resolves the *types.Func a call expression invokes
// (package-level function or method), or nil when the callee is not a
// statically known function (builtins, function-typed variables,
// conversions).
func CalledFunc(info *types.Info, call *ast.CallExpr) *types.Func {
	var id *ast.Ident
	switch fun := ast.Unparen(call.Fun).(type) {
	case *ast.Ident:
		id = fun
	case *ast.SelectorExpr:
		id = fun.Sel
	default:
		return nil
	}
	fn, _ := info.Uses[id].(*types.Func)
	return fn
}

// IsPkgFunc reports whether fn is one of the named package-level
// functions of the package with the given import path.
func IsPkgFunc(fn *types.Func, pkgPath string, names ...string) bool {
	if fn == nil || fn.Pkg() == nil || fn.Pkg().Path() != pkgPath {
		return false
	}
	if sig, ok := fn.Type().(*types.Signature); ok && sig.Recv() != nil {
		return false
	}
	for _, n := range names {
		if fn.Name() == n {
			return true
		}
	}
	return false
}

// IsMethodOf reports whether fn is the named method on the named type
// (pointer or value receiver) of the package with the given import path.
func IsMethodOf(fn *types.Func, pkgPath, typeName, method string) bool {
	if fn == nil || fn.Name() != method {
		return false
	}
	sig, ok := fn.Type().(*types.Signature)
	if !ok || sig.Recv() == nil {
		return false
	}
	named := NamedOf(sig.Recv().Type())
	return named != nil &&
		named.Obj().Pkg() != nil &&
		named.Obj().Pkg().Path() == pkgPath &&
		named.Obj().Name() == typeName
}

// NamedOf unwraps pointers and returns the named type underneath t, or
// nil.
func NamedOf(t types.Type) *types.Named {
	if ptr, ok := t.(*types.Pointer); ok {
		t = ptr.Elem()
	}
	named, _ := t.(*types.Named)
	return named
}

// IsNamedType reports whether t (possibly behind a pointer) is the named
// type pkgPath.name.
func IsNamedType(t types.Type, pkgPath, name string) bool {
	named := NamedOf(t)
	return named != nil &&
		named.Obj().Pkg() != nil &&
		named.Obj().Pkg().Path() == pkgPath &&
		named.Obj().Name() == name
}

// RootIdent walks to the base identifier of a selector/index/paren chain
// (`a.b.c[i]` yields `a`), or nil when the base is not an identifier.
func RootIdent(e ast.Expr) *ast.Ident {
	for {
		switch x := e.(type) {
		case *ast.Ident:
			return x
		case *ast.SelectorExpr:
			e = x.X
		case *ast.ParenExpr:
			e = x.X
		case *ast.IndexExpr:
			e = x.X
		case *ast.StarExpr:
			e = x.X
		default:
			return nil
		}
	}
}

// WalkStack traverses every file calling fn with each node and the stack
// of its ancestors (outermost first, not including the node itself).
// Returning false prunes the subtree.
func WalkStack(files []*ast.File, fn func(n ast.Node, stack []ast.Node) bool) {
	var stack []ast.Node
	for _, f := range files {
		ast.Inspect(f, func(n ast.Node) bool {
			if n == nil {
				stack = stack[:len(stack)-1]
				return true
			}
			if !fn(n, stack) {
				// Pruned: Inspect sends no closing nil, so don't push.
				return false
			}
			stack = append(stack, n)
			return true
		})
	}
}
