// Command satlint machine-checks the simulator's determinism,
// observability, and checkpoint-aliasing invariants: the conventions
// that keep counts and JSON output bit-for-bit identical across serial
// and -parallel runs and captured images safe to share between forks,
// which golden tests can only probe and review can only hope to
// remember.
//
// It is a multichecker over seven project-specific analyzers:
//
//	captureimmut   forbid writes to frozen-after-capture checkpoint state
//	detflow        forbid nondeterministic values flowing into observable output
//	maporder       forbid map iteration that feeds ordered output
//	nondet         forbid wall-clock time and globally-seeded randomness
//	obsguard       require Bus.Wants (or a nil-bus check) around event publication
//	snapshotfresh  require Snapshot() to return a freshly allocated map
//	unsafecast     require bounds and alignment checks before unsafe casts
//
// captureimmut and detflow are fact-based: properties proven in one
// package (a type is frozen, a function's result reads the clock) are
// serialized as facts and re-imported when dependent packages are
// analyzed, so violations are reported across package boundaries. In
// vet mode facts ride the unitchecker vetx files; in standalone mode
// dependencies are analyzed first in import order.
//
// Usage:
//
//	satlint [-list] [-json] [package ...]
//	go vet -vettool=$(command -v satlint) ./...
//
// Standalone mode type-checks the module from source and analyzes the
// named packages ("./..." for everything, the default). The tool also
// speaks the go vet -vettool unitchecker protocol, which is how CI runs
// it: the go command supplies compiler export data per package, making
// the sweep incremental and build-cached.
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
// all. Exit status: 0 clean, 1 driver error, 2 findings.
package main

import (
	"crypto/sha256"
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
	args := argv[1:]
	// The go vet -vettool handshake probes the tool's identity and flag
	// set before handing it per-package work.
	if len(args) == 1 && args[0] == "-V=full" {
		printVersion(argv[0], stdout)
		return 0
	}
	if len(args) == 1 && args[0] == "-flags" {
		fmt.Fprintln(stdout, "[]")
		return 0
	}

	fs := flag.NewFlagSet("satlint", flag.ContinueOnError)
	fs.SetOutput(stderr)
	list := fs.Bool("list", false, "print analyzer names and docs, then exit")
	asJSON := fs.Bool("json", false, "emit diagnostics as a JSON array on stdout")
	if err := fs.Parse(args); err != nil {
		return 1
	}
	if *list {
		printList(stdout)
		return 0
	}

	rest := fs.Args()
	if len(rest) == 1 && strings.HasSuffix(rest[0], ".cfg") {
		return framework.RunVet(rest[0], satlint.Analyzers(), stderr)
	}
	return standalone(rest, *asJSON, stdout, stderr)
}

// printVersion implements -V=full in the form the go command's build
// cache requires: "name version devel ... buildID=<content hash>".
func printVersion(arg0 string, w io.Writer) {
	h := sha256.New()
	if self, err := os.Executable(); err == nil {
		if f, err := os.Open(self); err == nil {
			_, _ = io.Copy(h, f)
			f.Close()
		}
	}
	fmt.Fprintf(w, "%s version devel comments-go-here buildID=%x\n",
		filepath.Base(arg0), h.Sum(nil))
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

// standalone loads the module from source and analyzes the requested
// packages: "./..." (default) for the whole module, or directory paths.
// Dependency facts are computed in import order by the framework
// driver, so cross-package analyzers see the same facts as in vet mode.
func standalone(patterns []string, asJSON bool, stdout, stderr io.Writer) int {
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
		us, err := load(loader, root, pat)
		if err != nil {
			fmt.Fprintln(stderr, "satlint:", err)
			return 1
		}
		units = append(units, us...)
	}
	driver := framework.NewDriver(loader, satlint.Analyzers())
	findings := 0
	var all []jsonDiagnostic
	for _, unit := range units {
		diags, err := driver.Run(unit)
		if err != nil {
			fmt.Fprintln(stderr, "satlint:", err)
			return 1
		}
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

func load(loader *framework.Loader, root, pattern string) ([]*framework.Unit, error) {
	if pattern == "./..." || pattern == "..." {
		return loader.LoadAll()
	}
	dir, err := filepath.Abs(strings.TrimSuffix(pattern, "/..."))
	if err != nil {
		return nil, err
	}
	rel, err := filepath.Rel(root, dir)
	if err != nil || strings.HasPrefix(rel, "..") {
		return nil, fmt.Errorf("package %q is outside the module at %s", pattern, root)
	}
	importPath := loader.ModulePath()
	if rel != "." {
		importPath += "/" + filepath.ToSlash(rel)
	}
	return loader.LoadDir(dir, importPath)
}
