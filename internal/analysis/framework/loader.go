package framework

import (
	"fmt"
	"go/ast"
	"go/build"
	"go/importer"
	"go/parser"
	"go/token"
	"go/types"
	"os"
	"path/filepath"
	"sort"
	"strings"
)

// A Unit is one analysis unit: a package's syntax trees together with
// its type-checked form. A directory yields up to two units — the
// package including its in-package _test.go files, and the external
// X_test package when one exists.
type Unit struct {
	ImportPath string
	Dir        string
	Fset       *token.FileSet
	Files      []*ast.File
	Pkg        *types.Package
	Info       *types.Info
}

// Loader type-checks packages of this module straight from source,
// resolving module-internal imports to their directories and everything
// else through the standard library's source importer, so satlint and
// analysistest need no compiler export data and no dependencies outside
// the standard library.
type Loader struct {
	Fset    *token.FileSet
	root    string // module root directory (holds go.mod)
	modpath string
	extra   map[string]string // additional importPath -> dir (test fixtures)
	pure    map[string]*Unit  // test-free units, cached by Import
	loading map[string]bool
	std     types.Importer
}

// NewLoader creates a loader for the module rooted at root.
func NewLoader(root string) (*Loader, error) {
	modpath, err := modulePath(filepath.Join(root, "go.mod"))
	if err != nil {
		return nil, err
	}
	fset := token.NewFileSet()
	return &Loader{
		Fset:    fset,
		root:    root,
		modpath: modpath,
		extra:   map[string]string{},
		pure:    map[string]*Unit{},
		loading: map[string]bool{},
		std:     importer.ForCompiler(fset, "source", nil),
	}, nil
}

// AddPath registers an extra import path resolving to dir, used by
// analysistest to make fixture packages importable from one another.
func (l *Loader) AddPath(importPath, dir string) { l.extra[importPath] = dir }

func modulePath(gomod string) (string, error) {
	data, err := os.ReadFile(gomod)
	if err != nil {
		return "", err
	}
	for _, line := range strings.Split(string(data), "\n") {
		if rest, ok := strings.CutPrefix(strings.TrimSpace(line), "module "); ok {
			return strings.TrimSpace(rest), nil
		}
	}
	return "", fmt.Errorf("no module line in %s", gomod)
}

// FindModuleRoot walks up from dir to the directory containing go.mod.
func FindModuleRoot(dir string) (string, error) {
	dir, err := filepath.Abs(dir)
	if err != nil {
		return "", err
	}
	for {
		if _, err := os.Stat(filepath.Join(dir, "go.mod")); err == nil {
			return dir, nil
		}
		parent := filepath.Dir(dir)
		if parent == dir {
			return "", fmt.Errorf("no go.mod above %s", dir)
		}
		dir = parent
	}
}

// dirFor resolves an import path to a source directory, or reports that
// the path is outside the loader's scope.
func (l *Loader) dirFor(path string) (string, bool) {
	if d, ok := l.extra[path]; ok {
		return d, true
	}
	if path == l.modpath {
		return l.root, true
	}
	if rest, ok := strings.CutPrefix(path, l.modpath+"/"); ok {
		return filepath.Join(l.root, filepath.FromSlash(rest)), true
	}
	return "", false
}

// Import implements types.Importer: module-internal packages are
// type-checked from source (without test files), everything else comes
// from the standard library source importer. The checked unit — syntax
// and type info included — is cached so the Driver can run fact-exporting
// analyzers over dependencies without re-checking them.
func (l *Loader) Import(path string) (*types.Package, error) {
	if path == "unsafe" {
		return types.Unsafe, nil
	}
	if !l.Local(path) {
		return l.std.Import(path)
	}
	u, err := l.PureUnit(path)
	if err != nil {
		return nil, err
	}
	return u.Pkg, nil
}

// Local reports whether path resolves inside this loader's module (or
// its registered extra fixture paths) rather than to the standard
// library.
func (l *Loader) Local(path string) bool {
	_, ok := l.dirFor(path)
	return ok
}

// PureUnit loads and caches the test-free unit for a module-local
// import path. It returns (nil, nil) for "unsafe" and for paths outside
// the module: callers that need such packages go through Import, which
// delegates them to the standard library importer.
func (l *Loader) PureUnit(path string) (*Unit, error) {
	if path == "unsafe" {
		return nil, nil
	}
	dir, ok := l.dirFor(path)
	if !ok {
		return nil, nil
	}
	if u, ok := l.pure[path]; ok {
		return u, nil
	}
	if l.loading[path] {
		return nil, fmt.Errorf("import cycle through %q", path)
	}
	l.loading[path] = true
	defer delete(l.loading, path)

	files, err := l.parseDir(dir, func(name string) bool {
		return !strings.HasSuffix(name, "_test.go")
	})
	if err != nil {
		return nil, err
	}
	if len(files) == 0 {
		return nil, fmt.Errorf("no Go files in %s for %q", dir, path)
	}
	info := newInfo()
	pkg, err := l.check(path, files, info)
	if err != nil {
		return nil, err
	}
	u := &Unit{ImportPath: path, Dir: dir, Fset: l.Fset, Files: files, Pkg: pkg, Info: info}
	l.pure[path] = u
	return u, nil
}

// parseDir parses the .go files of dir selected by keep, in name order,
// with comments. Files excluded by build constraints — //go:build lines
// or GOOS/GOARCH filename suffixes — are skipped for the host platform,
// exactly as the go tool would skip them, so paired files like
// mmap_linux.go / mmap_other.go don't collide.
func (l *Loader) parseDir(dir string, keep func(name string) bool) ([]*ast.File, error) {
	entries, err := os.ReadDir(dir)
	if err != nil {
		return nil, err
	}
	var names []string
	for _, e := range entries {
		if e.IsDir() || !strings.HasSuffix(e.Name(), ".go") || !keep(e.Name()) {
			continue
		}
		match, err := build.Default.MatchFile(dir, e.Name())
		if err != nil {
			return nil, fmt.Errorf("reading build constraints of %s: %v", filepath.Join(dir, e.Name()), err)
		}
		if match {
			names = append(names, e.Name())
		}
	}
	sort.Strings(names)
	var files []*ast.File
	for _, name := range names {
		f, err := parser.ParseFile(l.Fset, filepath.Join(dir, name), nil, parser.ParseComments)
		if err != nil {
			return nil, err
		}
		files = append(files, f)
	}
	return files, nil
}

func newInfo() *types.Info {
	return &types.Info{
		Types:      map[ast.Expr]types.TypeAndValue{},
		Defs:       map[*ast.Ident]types.Object{},
		Uses:       map[*ast.Ident]types.Object{},
		Selections: map[*ast.SelectorExpr]*types.Selection{},
		Implicits:  map[ast.Node]types.Object{},
		Instances:  map[*ast.Ident]types.Instance{},
	}
}

// check type-checks files as package path, collecting (and bounding) the
// checker's errors rather than stopping at the first.
func (l *Loader) check(path string, files []*ast.File, info *types.Info) (*types.Package, error) {
	var errs []error
	conf := types.Config{
		Importer: l,
		Error:    func(err error) { errs = append(errs, err) },
	}
	pkg, _ := conf.Check(path, l.Fset, files, info)
	if len(errs) > 0 {
		if len(errs) > 3 {
			errs = errs[:3]
		}
		msgs := make([]string, len(errs))
		for i, e := range errs {
			msgs[i] = e.Error()
		}
		return nil, fmt.Errorf("type errors in %q:\n\t%s", path, strings.Join(msgs, "\n\t"))
	}
	return pkg, nil
}

// LoadDir builds the analysis units of one directory: the package with
// its in-package test files, plus the external _test package if present.
func (l *Loader) LoadDir(dir, importPath string) ([]*Unit, error) {
	all, err := l.parseDir(dir, func(string) bool { return true })
	if err != nil {
		return nil, err
	}
	var pkgFiles, extFiles []*ast.File
	for _, f := range all {
		if strings.HasSuffix(f.Name.Name, "_test") {
			extFiles = append(extFiles, f)
		} else {
			pkgFiles = append(pkgFiles, f)
		}
	}
	var units []*Unit
	if len(pkgFiles) > 0 {
		info := newInfo()
		pkg, err := l.check(importPath, pkgFiles, info)
		if err != nil {
			return nil, err
		}
		units = append(units, &Unit{
			ImportPath: importPath, Dir: dir, Fset: l.Fset,
			Files: pkgFiles, Pkg: pkg, Info: info,
		})
	}
	if len(extFiles) > 0 {
		info := newInfo()
		pkg, err := l.check(importPath+"_test", extFiles, info)
		if err != nil {
			return nil, err
		}
		units = append(units, &Unit{
			ImportPath: importPath + "_test", Dir: dir, Fset: l.Fset,
			Files: extFiles, Pkg: pkg, Info: info,
		})
	}
	return units, nil
}

// ImportPathOf returns the import path of dir, a directory inside the
// module.
func (l *Loader) ImportPathOf(dir string) (string, error) {
	rel, err := filepath.Rel(l.root, dir)
	if err != nil || rel == ".." || strings.HasPrefix(rel, ".."+string(filepath.Separator)) {
		return "", fmt.Errorf("%s is outside the module at %s", dir, l.root)
	}
	if rel == "." {
		return l.modpath, nil
	}
	return l.modpath + "/" + filepath.ToSlash(rel), nil
}

// LoadTree walks the module tree under dir and loads every package
// directory, skipping testdata, hidden, and underscore directories and
// stopping at nested modules (a subdirectory with its own go.mod) — the
// same pruning the go tool applies to "dir/...".
func (l *Loader) LoadTree(dir string) ([]*Unit, error) {
	var units []*Unit
	err := filepath.WalkDir(dir, func(path string, d os.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if !d.IsDir() {
			return nil
		}
		name := d.Name()
		if path != dir {
			if name == "testdata" || strings.HasPrefix(name, ".") || strings.HasPrefix(name, "_") {
				return filepath.SkipDir
			}
			if _, err := os.Stat(filepath.Join(path, "go.mod")); err == nil {
				return filepath.SkipDir
			}
		}
		hasGo, err := dirHasGoFiles(path)
		if err != nil {
			return err
		}
		if !hasGo {
			return nil
		}
		importPath, err := l.ImportPathOf(path)
		if err != nil {
			return err
		}
		us, err := l.LoadDir(path, importPath)
		if err != nil {
			return err
		}
		units = append(units, us...)
		return nil
	})
	return units, err
}

func dirHasGoFiles(dir string) (bool, error) {
	entries, err := os.ReadDir(dir)
	if err != nil {
		return false, err
	}
	for _, e := range entries {
		if !e.IsDir() && strings.HasSuffix(e.Name(), ".go") {
			return true, nil
		}
	}
	return false, nil
}
