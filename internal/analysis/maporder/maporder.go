// Package maporder defines a satlint analyzer that flags iteration over
// a map when the loop body emits ordered output. Go randomizes map
// iteration order, so a map range that prints, appends to an
// outer-scope slice, concatenates onto an outer string, writes to an
// encoder or table, or publishes obs events produces different bytes on
// every run — exactly the corruption the repo's golden-JSON tests exist
// to catch, except on paths those tests don't pin.
//
// Writing map entries into another map, or folding them with commutative
// arithmetic (+=, counters), is order-insensitive and not flagged; nor
// is the canonical fix, ranging over a sorted slice of keys.
package maporder

import (
	"go/ast"
	"go/token"
	"go/types"

	"repro/internal/analysis/framework"
)

// Analyzer flags map iteration feeding ordered output.
var Analyzer = &framework.Analyzer{
	Name: "maporder",
	Doc: `forbid map iteration that feeds ordered output

Ranging over a map visits keys in randomized order. When the loop body
prints, appends to a slice declared outside the loop, concatenates onto
an outer string, calls Write/Encode/AddRow/Publish on an outer value, or
constructs an obs.Event, the output order changes run to run. Iterate a
sorted slice of the keys instead; accumulating into a map or with
commutative arithmetic is fine.`,
	Run: run,
}

// fmtPrinters write formatted output in argument order.
var fmtPrinters = map[string]bool{
	"Print": true, "Printf": true, "Println": true,
	"Fprint": true, "Fprintf": true, "Fprintln": true,
}

// orderedMethods are method names whose calls emit into an ordered
// stream (writers, encoders, the stats table, the obs bus).
var orderedMethods = map[string]bool{
	"Write": true, "WriteString": true, "WriteByte": true, "WriteRune": true,
	"Encode": true, "AddRow": true, "Publish": true,
}

func run(pass *framework.Pass) error {
	framework.WalkStack(pass.Files, func(n ast.Node, stack []ast.Node) bool {
		rng, ok := n.(*ast.RangeStmt)
		if !ok {
			return true
		}
		t := pass.TypesInfo.TypeOf(rng.X)
		if t == nil {
			return true
		}
		if _, isMap := t.Underlying().(*types.Map); !isMap {
			return true
		}
		sorted := sortedAfter(pass, rng, stack)
		if sink, what := findSink(pass, rng, sorted); sink != token.NoPos {
			pass.Reportf(rng.Pos(),
				"map iteration order is randomized but the loop body %s; range over a sorted slice of the keys instead", what)
		}
		return true
	})
	return nil
}

// sortFuncs are the sort entry points that canonicalize a collected
// slice, making the collect-append-then-sort idiom order-insensitive.
var sortFuncs = map[string]bool{
	"sort.Ints": true, "sort.Strings": true, "sort.Float64s": true,
	"sort.Slice": true, "sort.SliceStable": true, "sort.Sort": true, "sort.Stable": true,
	"slices.Sort": true, "slices.SortFunc": true, "slices.SortStableFunc": true,
}

// sortedAfter collects the (textual) expressions sorted by a statement
// that follows the range loop, or follows a statement enclosing it, in
// any statement list between the loop and its function. Only a sort
// call that is itself such a statement counts: a sort nested in a later
// if, loop or closure may not run. Each expression maps to the start of
// the innermost such list: an append is the canonical collect-then-sort
// idiom, not a finding, when that list lies inside the scope declaring
// the slice (see sortedLater).
func sortedAfter(pass *framework.Pass, rng *ast.RangeStmt, stack []ast.Node) map[string]token.Pos {
	out := map[string]token.Pos{}
	var child ast.Node = rng
	for i := len(stack) - 1; i >= 0; i-- {
		var stmts []ast.Stmt
		switch parent := stack[i].(type) {
		case *ast.FuncDecl, *ast.FuncLit:
			return out
		case *ast.BlockStmt:
			stmts = parent.List
		case *ast.CaseClause:
			stmts = parent.Body
		case *ast.CommClause:
			stmts = parent.Body
		}
		past := false
		for _, s := range stmts {
			if s == child {
				past = true
				continue
			}
			if !past {
				continue
			}
			es, ok := s.(*ast.ExprStmt)
			if !ok {
				continue
			}
			call, ok := ast.Unparen(es.X).(*ast.CallExpr)
			if !ok || len(call.Args) == 0 {
				continue
			}
			fn := framework.CalledFunc(pass.TypesInfo, call)
			if fn == nil || fn.Pkg() == nil {
				continue
			}
			key := types.ExprString(call.Args[0])
			if _, inner := out[key]; !inner && sortFuncs[fn.Pkg().Name()+"."+fn.Name()] &&
				(fn.Pkg().Path() == "sort" || fn.Pkg().Path() == "slices") {
				out[key] = stack[i].Pos()
			}
		}
		child = stack[i]
	}
	return out
}

// sortedLater reports whether slice is sorted after the loop in a
// statement list inside the scope that declares it, so the sort reaches
// the same variable the loop appends to.
func sortedLater(pass *framework.Pass, slice ast.Expr, sorted map[string]token.Pos) bool {
	block, ok := sorted[types.ExprString(slice)]
	if !ok {
		return false
	}
	root := framework.RootIdent(slice)
	if root == nil {
		return false
	}
	// A package-level slice's scope has no position: any later sort in
	// the function counts.
	obj := pass.TypesInfo.Uses[root]
	return obj != nil && obj.Parent() != nil && block >= obj.Parent().Pos()
}

// findSink scans the body of a map-range for an order-sensitive sink and
// returns its position and a description, or token.NoPos. sorted holds
// expressions canonicalized by a sort after the loop; appends to those
// are the accepted collect-then-sort idiom.
func findSink(pass *framework.Pass, rng *ast.RangeStmt, sorted map[string]token.Pos) (token.Pos, string) {
	var pos token.Pos
	var what string
	ast.Inspect(rng.Body, func(n ast.Node) bool {
		if pos != token.NoPos {
			return false
		}
		switch n := n.(type) {
		case *ast.CallExpr:
			if p, w := callSink(pass, rng, n, sorted); p != token.NoPos {
				pos, what = p, w
			}
		case *ast.AssignStmt:
			if p, w := concatSink(pass, rng, n); p != token.NoPos {
				pos, what = p, w
			}
		case *ast.CompositeLit:
			if framework.IsNamedType(pass.TypesInfo.TypeOf(n), "repro/internal/obs", "Event") {
				pos, what = n.Pos(), "constructs an obs.Event (events form an ordered stream)"
			}
		}
		return pos == token.NoPos
	})
	return pos, what
}

func callSink(pass *framework.Pass, rng *ast.RangeStmt, call *ast.CallExpr, sorted map[string]token.Pos) (token.Pos, string) {
	// append to a slice declared outside the loop — unless that slice is
	// sorted after the loop, the canonical deterministic idiom.
	if id, ok := ast.Unparen(call.Fun).(*ast.Ident); ok && id.Name == "append" {
		if _, isBuiltin := pass.TypesInfo.Uses[id].(*types.Builtin); isBuiltin && len(call.Args) > 0 {
			if declaredOutside(pass, rng, call.Args[0]) && !sortedLater(pass, call.Args[0], sorted) {
				return call.Pos(), "appends to a slice declared outside the loop"
			}
		}
		return token.NoPos, ""
	}
	fn := framework.CalledFunc(pass.TypesInfo, call)
	if fn == nil {
		return token.NoPos, ""
	}
	if fn.Pkg() != nil && fn.Pkg().Path() == "fmt" && fmtPrinters[fn.Name()] {
		return call.Pos(), "prints with fmt." + fn.Name()
	}
	if sig, ok := fn.Type().(*types.Signature); ok && sig.Recv() != nil && orderedMethods[fn.Name()] {
		if sel, ok := ast.Unparen(call.Fun).(*ast.SelectorExpr); ok && declaredOutside(pass, rng, sel.X) {
			return call.Pos(), "calls " + fn.Name() + " on a value from outside the loop"
		}
	}
	return token.NoPos, ""
}

// concatSink flags `s += ...` string concatenation onto an outer
// variable: unlike numeric +=, concatenation order is visible.
func concatSink(pass *framework.Pass, rng *ast.RangeStmt, as *ast.AssignStmt) (token.Pos, string) {
	if as.Tok != token.ADD_ASSIGN || len(as.Lhs) != 1 {
		return token.NoPos, ""
	}
	t := pass.TypesInfo.TypeOf(as.Lhs[0])
	if t == nil {
		return token.NoPos, ""
	}
	if b, ok := t.Underlying().(*types.Basic); !ok || b.Info()&types.IsString == 0 {
		return token.NoPos, ""
	}
	if declaredOutside(pass, rng, as.Lhs[0]) {
		return as.Pos(), "concatenates onto a string declared outside the loop"
	}
	return token.NoPos, ""
}

// declaredOutside reports whether the root identifier of e refers to an
// object declared outside the range statement — i.e. state that
// outlives one iteration.
func declaredOutside(pass *framework.Pass, rng *ast.RangeStmt, e ast.Expr) bool {
	root := framework.RootIdent(e)
	if root == nil {
		return false
	}
	obj := pass.TypesInfo.Uses[root]
	if obj == nil {
		obj = pass.TypesInfo.Defs[root]
	}
	if obj == nil {
		return false
	}
	return obj.Pos() < rng.Pos() || obj.Pos() > rng.End()
}
