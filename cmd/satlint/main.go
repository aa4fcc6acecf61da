// Command satlint machine-checks the simulator's determinism,
// observability, and checkpoint-aliasing invariants: the conventions
// that keep counts and JSON output bit-for-bit identical across serial
// and -parallel runs and captured images safe to share between forks,
// which golden tests can only probe and review can only hope to
// remember.
//
// It is a multichecker over five project-specific analyzers:
//
//	captureimmut  forbid writes to frozen-after-capture checkpoint state
//	detflow       forbid nondeterministic values flowing into observable output
//	maporder      forbid map iteration that feeds ordered output
//	nondet        forbid wall-clock time and globally-seeded randomness
//	obsguard      require Bus.Wants (or a nil-bus check) around event publication
//
// captureimmut and detflow are fact-based: properties proven in one
// package (a type is frozen, a function's result reads the clock) are
// recorded as facts, held in memory for the run, and imported when
// dependent packages are analyzed, so violations are reported across
// package boundaries. Dependencies are analyzed first, in import order.
//
// Usage:
//
//	satlint [-list] [-json] [package ...]
//
// satlint type-checks the module from source and analyzes the named
// package directories; "dir/..." names every package under dir, and
// "./..." (the default) everything under the working directory. Like
// the go tool, "/..." skips testdata, hidden and underscore directories
// and stops at nested modules (directories with their own go.mod).
//
// -json replaces the text output with a JSON array of diagnostics
// {file, line, col, analyzer, message, ignored}; suppressed findings
// are included with ignored=true so tooling can audit the directives,
// but only non-ignored findings affect the exit status.
//
// A finding can be silenced, with attribution, by an ignore directive on
// the offending line or the line above:
//
//	//satlint:ignore <analyzer>[,<analyzer>] <reason>
//
// The reason is mandatory; a reasonless directive suppresses nothing and
// is itself a finding — as is a directive that suppresses nothing at
// all, or that names an analyzer outside the suite. Exit status: 0
// clean, 1 driver error, 2 findings.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"strings"

	"repro/internal/analysis/framework"
	"repro/internal/analysis/satlint"
)

func main() {
	os.Exit(run(os.Args, os.Stdout, os.Stderr))
}

func run(argv []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("satlint", flag.ContinueOnError)
	fs.SetOutput(stderr)
	list := fs.Bool("list", false, "print analyzer names and docs, then exit")
	asJSON := fs.Bool("json", false, "emit diagnostics as a JSON array on stdout")
	if err := fs.Parse(argv[1:]); err != nil {
		return 1
	}
	if *list {
		printList(stdout)
		return 0
	}
	return lint(fs.Args(), *asJSON, stdout, stderr)
}

// printList implements -list: one line per analyzer plus its doc.
func printList(w io.Writer) {
	for _, a := range satlint.Analyzers() {
		doc, _, _ := strings.Cut(a.Doc, "\n")
		fmt.Fprintf(w, "%-14s %s\n", a.Name, doc)
	}
}

// jsonDiagnostic is the -json wire form of one finding.
type jsonDiagnostic struct {
	File     string `json:"file"`
	Line     int    `json:"line"`
	Col      int    `json:"col"`
	Analyzer string `json:"analyzer"`
	Message  string `json:"message"`
	Ignored  bool   `json:"ignored"`
}

// lint loads the module from source and analyzes the requested
// packages (see load; "./..." by default).
// Dependency facts are computed in import order by the framework
// driver, so cross-package analyzers see every fact their imports
// export.
func lint(patterns []string, asJSON bool, stdout, stderr io.Writer) int {
	root, err := framework.FindModuleRoot(".")
	if err != nil {
		fmt.Fprintln(stderr, "satlint:", err)
		return 1
	}
	loader, err := framework.NewLoader(root)
	if err != nil {
		fmt.Fprintln(stderr, "satlint:", err)
		return 1
	}
	if len(patterns) == 0 {
		patterns = []string{"./..."}
	}
	var units []*framework.Unit
	for _, pat := range patterns {
		us, err := load(loader, pat)
		if err != nil {
			fmt.Fprintln(stderr, "satlint:", err)
			return 1
		}
		units = append(units, us...)
	}
	analyzers := satlint.Analyzers()
	known := make(map[string]bool, len(analyzers))
	for _, a := range analyzers {
		known[a.Name] = true
	}
	driver := framework.NewDriver(loader, analyzers)
	findings := 0
	var all []jsonDiagnostic
	for _, unit := range units {
		diags, err := driver.Run(unit)
		if err != nil {
			fmt.Fprintln(stderr, "satlint:", err)
			return 1
		}
		// Only the whole suite can tell a misspelt or retired analyzer
		// name in an ignore directive from one that is not running.
		diags = append(diags, framework.ParseIgnores(unit.Fset, unit.Files).Unknown(known)...)
		framework.SortDiagnostics(unit.Fset, diags)
		for _, d := range diags {
			pos := loader.Fset.Position(d.Pos)
			if asJSON {
				all = append(all, jsonDiagnostic{
					File: pos.Filename, Line: pos.Line, Col: pos.Column,
					Analyzer: d.Analyzer, Message: d.Message, Ignored: d.Ignored,
				})
			} else if !d.Ignored {
				fmt.Fprintf(stdout, "%s: [%s] %s\n", pos, d.Analyzer, d.Message)
			}
			if !d.Ignored {
				findings++
			}
		}
	}
	if asJSON {
		enc := json.NewEncoder(stdout)
		enc.SetIndent("", "  ")
		if all == nil {
			all = []jsonDiagnostic{} // emit [], not null, for empty runs
		}
		if err := enc.Encode(all); err != nil {
			fmt.Fprintln(stderr, "satlint:", err)
			return 1
		}
	}
	if findings > 0 {
		fmt.Fprintf(stderr, "satlint: %d finding(s)\n", findings)
		return 2
	}
	return 0
}

// load resolves one pattern relative to the working directory: a
// package directory, or a directory followed by "/..." for every package
// under it ("./..." for the whole module when run from its root).
func load(loader *framework.Loader, pattern string) ([]*framework.Unit, error) {
	dir, tree := strings.CutSuffix(pattern, "/...")
	if pattern == "..." {
		dir, tree = ".", true
	}
	dir, err := filepath.Abs(dir)
	if err != nil {
		return nil, err
	}
	importPath, err := loader.ImportPathOf(dir)
	if err != nil {
		return nil, fmt.Errorf("package %q: %v", pattern, err)
	}
	if tree {
		return loader.LoadTree(dir)
	}
	return loader.LoadDir(dir, importPath)
}
