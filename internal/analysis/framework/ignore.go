package framework

import (
	"go/ast"
	"go/token"
	"sort"
	"strings"
)

// ignoreDirective is one parsed //satlint:ignore comment.
type ignoreDirective struct {
	pos       token.Pos
	file      string
	line      int
	analyzers map[string]bool
	used      bool
}

// IgnoreSet is every //satlint:ignore directive of one analysis unit.
//
// The directive grammar is
//
//	//satlint:ignore <analyzer>[,<analyzer>...] <reason>
//
// and a directive suppresses the named analyzers' diagnostics on the
// directive's own line (trailing-comment placement) and on the line
// immediately after it (own-line placement above the flagged code). The
// reason is mandatory: a directive without one suppresses nothing and is
// itself reported, so every silenced finding carries its justification
// in the source.
type IgnoreSet struct {
	directives []ignoreDirective
	// Malformed holds one diagnostic (analyzer "satlint") per directive
	// that names no analyzer or gives no reason.
	Malformed []Diagnostic
}

// ParseIgnores extracts the ignore directives from every comment in the
// files.
func ParseIgnores(fset *token.FileSet, files []*ast.File) *IgnoreSet {
	s := &IgnoreSet{}
	for _, f := range files {
		for _, cg := range f.Comments {
			for _, c := range cg.List {
				s.parse(fset, c)
			}
		}
	}
	return s
}

func (s *IgnoreSet) parse(fset *token.FileSet, c *ast.Comment) {
	text, ok := strings.CutPrefix(c.Text, "//")
	if !ok {
		return // block comments cannot carry directives
	}
	text, ok = strings.CutPrefix(strings.TrimSpace(text), "satlint:ignore")
	if !ok {
		return
	}
	names, reason, _ := strings.Cut(strings.TrimSpace(text), " ")
	if names == "" || strings.TrimSpace(reason) == "" {
		s.Malformed = append(s.Malformed, Diagnostic{
			Pos:      c.Pos(),
			Analyzer: "satlint",
			Message:  "malformed //satlint:ignore directive: need analyzer name(s) and a reason",
		})
		return
	}
	d := ignoreDirective{
		pos:       c.Pos(),
		file:      fset.Position(c.Pos()).Filename,
		line:      fset.Position(c.Pos()).Line,
		analyzers: map[string]bool{},
	}
	for _, n := range strings.Split(names, ",") {
		d.analyzers[strings.TrimSpace(n)] = true
	}
	s.directives = append(s.directives, d)
}

// Suppressed reports whether diagnostic d is covered by a directive,
// marking every covering directive as used.
func (s *IgnoreSet) Suppressed(fset *token.FileSet, d Diagnostic) bool {
	pos := fset.Position(d.Pos)
	hit := false
	for i := range s.directives {
		dir := &s.directives[i]
		if dir.file == pos.Filename &&
			(dir.line == pos.Line || dir.line == pos.Line-1) &&
			dir.analyzers[d.Analyzer] {
			dir.used = true
			hit = true
		}
	}
	return hit
}

// Unused returns one diagnostic (analyzer "satlint") per directive that
// suppressed nothing. A directive is only reported when every analyzer
// it names is in the active run set: a single-analyzer run (tests,
// filtered passes) cannot tell whether the other analyzers it names
// would have matched, so it stays silent about such directives.
func (s *IgnoreSet) Unused(active map[string]bool) []Diagnostic {
	var out []Diagnostic
	for i := range s.directives {
		dir := &s.directives[i]
		if dir.used {
			continue
		}
		allActive := true
		names := make([]string, 0, len(dir.analyzers))
		for n := range dir.analyzers {
			names = append(names, n)
			if !active[n] {
				allActive = false
			}
		}
		if !allActive {
			continue
		}
		sort.Strings(names)
		out = append(out, Diagnostic{
			Pos:      dir.pos,
			Analyzer: "satlint",
			Message:  "unused //satlint:ignore directive: no " + strings.Join(names, ", ") + " finding here to suppress",
		})
	}
	return out
}

// Unknown returns one diagnostic (analyzer "satlint") per directive that
// names an analyzer outside known. Such a directive suppresses nothing
// under that name, so a misspelt or retired name would otherwise hide
// silently. Only a run of the whole suite can tell an unknown name from
// one that merely is not running, so only cmd/satlint asks; a
// single-analyzer analysistest run stays silent.
func (s *IgnoreSet) Unknown(known map[string]bool) []Diagnostic {
	var out []Diagnostic
	for _, dir := range s.directives {
		var names []string
		for n := range dir.analyzers {
			if !known[n] {
				names = append(names, n)
			}
		}
		if len(names) == 0 {
			continue
		}
		sort.Strings(names)
		out = append(out, Diagnostic{
			Pos:      dir.pos,
			Analyzer: "satlint",
			Message:  "//satlint:ignore names unknown analyzer(s) " + strings.Join(names, ", ") + ": nothing is suppressed under that name",
		})
	}
	return out
}
