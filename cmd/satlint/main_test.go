package main

import (
	"bytes"
	"encoding/json"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"repro/internal/analysis/satlint"
)

// wantAnalyzers is the contract: the suite registers exactly these
// five, alphabetically.
var wantAnalyzers = []string{
	"captureimmut", "detflow", "maporder", "nondet", "obsguard",
}

func TestSuiteRegistersAllAnalyzers(t *testing.T) {
	got := satlint.Analyzers()
	if len(got) != len(wantAnalyzers) {
		t.Fatalf("suite has %d analyzers, want %d", len(got), len(wantAnalyzers))
	}
	for i, a := range got {
		if a.Name != wantAnalyzers[i] {
			t.Errorf("analyzer %d is %q, want %q", i, a.Name, wantAnalyzers[i])
		}
		if a.Doc == "" || a.Run == nil {
			t.Errorf("analyzer %q missing doc or run function", a.Name)
		}
	}
}

func TestListFlagPrintsEveryAnalyzer(t *testing.T) {
	var stdout, stderr bytes.Buffer
	if code := run([]string{"satlint", "-list"}, &stdout, &stderr); code != 0 {
		t.Fatalf("satlint -list exited %d, stderr: %s", code, stderr.String())
	}
	out := stdout.String()
	for _, name := range wantAnalyzers {
		if !strings.Contains(out, name) {
			t.Errorf("-list output missing %q:\n%s", name, out)
		}
	}
	if n := len(strings.Split(strings.TrimSpace(out), "\n")); n != len(wantAnalyzers) {
		t.Errorf("-list printed %d lines, want %d:\n%s", n, len(wantAnalyzers), out)
	}
}

// TestJSONOutput runs the driver over a throwaway module
// with one real finding and one suppressed finding, and checks the -json
// contract: both appear in the array (the suppressed one with
// ignored=true), only the real one drives the exit code, and text mode
// stays silent about the suppressed one.
func TestJSONOutput(t *testing.T) {
	write := chdirModule(t)
	write("p/p.go", `package p

import "time"

func Bad() time.Time {
	return time.Now()
}

func Excused() time.Time {
	//satlint:ignore nondet fixture: suppressed on purpose
	return time.Now()
}
`)

	var stdout, stderr bytes.Buffer
	code := run([]string{"satlint", "-json", "./p"}, &stdout, &stderr)
	if code != 2 {
		t.Fatalf("-json run exited %d, want 2 (one live finding); stderr: %s", code, stderr.String())
	}
	var diags []jsonDiagnostic
	if err := json.Unmarshal(stdout.Bytes(), &diags); err != nil {
		t.Fatalf("stdout is not a JSON diagnostic array: %v\n%s", err, stdout.String())
	}
	var live, suppressed int
	for _, d := range diags {
		if d.Analyzer != "nondet" || d.Line == 0 || d.Col == 0 || !strings.HasSuffix(d.File, "p.go") {
			t.Errorf("malformed diagnostic %+v", d)
		}
		if d.Ignored {
			suppressed++
		} else {
			live++
		}
	}
	if live != 1 || suppressed != 1 {
		t.Errorf("got %d live + %d suppressed diagnostics, want 1 + 1:\n%s",
			live, suppressed, stdout.String())
	}

	// Text mode: the suppressed finding stays out of stdout entirely.
	stdout.Reset()
	stderr.Reset()
	if code := run([]string{"satlint", "./p"}, &stdout, &stderr); code != 2 {
		t.Fatalf("text run exited %d, want 2", code)
	}
	if n := strings.Count(stdout.String(), "[nondet]"); n != 1 {
		t.Errorf("text mode printed %d nondet findings, want 1:\n%s", n, stdout.String())
	}

	// A clean package emits [], not null.
	write("q/q.go", "package q\n\nfunc Fine() int { return 1 }\n")
	stdout.Reset()
	if code := run([]string{"satlint", "-json", "./q"}, &stdout, &stderr); code != 0 {
		t.Fatalf("clean -json run exited %d; stderr: %s", code, stderr.String())
	}
	if got := strings.TrimSpace(stdout.String()); got != "[]" {
		t.Errorf("clean -json run printed %q, want []", got)
	}
}

// TestUnknownAnalyzerInIgnoreDirective checks that a whole-suite run
// reports a directive naming an analyzer outside the suite: such a
// directive suppresses nothing, so a misspelt or retired name must not
// pass silently. The misspelt directive leaves its nondet finding live.
func TestUnknownAnalyzerInIgnoreDirective(t *testing.T) {
	write := chdirModule(t)
	write("p/p.go", `package p

import "time"

func Misspelt() time.Time {
	//satlint:ignore nondett fixture: the name has a typo
	return time.Now()
}
`)
	var stdout, stderr bytes.Buffer
	if code := run([]string{"satlint", "./p"}, &stdout, &stderr); code != 2 {
		t.Fatalf("satlint exited %d, want 2; stderr: %s", code, stderr.String())
	}
	out := stdout.String()
	if !strings.Contains(out, "p.go:6:2: [satlint] //satlint:ignore names unknown analyzer(s) nondett") {
		t.Errorf("no [satlint] finding for the unknown analyzer name:\n%s", out)
	}
	if n := strings.Count(out, "[nondet]"); n != 1 {
		t.Errorf("got %d nondet findings, want 1 (the directive suppresses nothing):\n%s", n, out)
	}
}

// chdirModule makes the working directory a fresh module "tmod" for the
// rest of the test and returns a function writing one file into it.
func chdirModule(t *testing.T) func(name, src string) {
	t.Helper()
	root := t.TempDir()
	write := func(name, src string) {
		t.Helper()
		path := filepath.Join(root, filepath.FromSlash(name))
		if err := os.MkdirAll(filepath.Dir(path), 0o777); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, []byte(src), 0o666); err != nil {
			t.Fatal(err)
		}
	}
	write("go.mod", "module tmod\n\ngo 1.22\n")
	cwd, err := os.Getwd()
	if err != nil {
		t.Fatal(err)
	}
	if err := os.Chdir(root); err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { os.Chdir(cwd) })
	return write
}
