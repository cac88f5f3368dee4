// Package detrange flags map iteration whose order can reach output in
// determinism-critical packages.
//
// The repository's headline invariant is that results, ledgers, traces and
// heatmaps are byte-identical for any worker count (see the determinism
// pins in internal/mc and internal/core). Go map iteration order is
// deliberately randomized, so a single `for k := range m` feeding a report
// row, a serialized record, or a merged shard silently breaks that — and
// only shows up as a flaky CI diff. detrange therefore treats every range
// over a map in a determinism-critical package as a finding unless the
// loop provably cannot leak order:
//
//   - `for range m` (no variables) only counts; order cannot escape.
//   - A loop whose entire body appends keys/values to slices that are
//     later passed to sort or slices functions in the same function body
//     is the canonical collect-then-sort idiom and is allowed.
//   - A loop whose single statement is `delete(m, k)` on the ranged map
//     (map clearing) is order-independent and is allowed.
//
// Anything else — including genuinely commutative folds the analyzer
// cannot prove commutative — needs a //quest:allow(detrange) directive
// with a reason, which TestModuleClean (internal/lint/questvet) counts.
package detrange

import (
	"go/ast"
	"go/token"
	"go/types"

	"quest/internal/lint/analysis"
)

// Analyzer is the detrange analyzer.
var Analyzer = &analysis.Analyzer{
	Name: "detrange",
	Doc:  "flags map iteration whose order can reach output in determinism-critical packages",
	Run:  run,
}

func run(pass *analysis.Pass) error {
	info := pass.Pkg.Info
	for _, f := range pass.Files {
		// Visit every function body; the sort-idiom search needs the
		// enclosing body, so track it while walking.
		ast.Inspect(f, func(n ast.Node) bool {
			var body *ast.BlockStmt
			switch fn := n.(type) {
			case *ast.FuncDecl:
				body = fn.Body
			case *ast.FuncLit:
				body = fn.Body
			default:
				return true
			}
			if body == nil {
				return true
			}
			checkBody(pass, info, body)
			return true
		})
	}
	return nil
}

func checkBody(pass *analysis.Pass, info *types.Info, body *ast.BlockStmt) {
	ast.Inspect(body, func(n ast.Node) bool {
		if _, ok := n.(*ast.FuncLit); ok {
			return false // visited separately with its own body scope
		}
		rs, ok := n.(*ast.RangeStmt)
		if !ok {
			return true
		}
		t := info.TypeOf(rs.X)
		if t == nil {
			return true
		}
		if _, isMap := t.Underlying().(*types.Map); !isMap {
			return true
		}
		if rangeIsOrderSafe(info, body, rs) {
			return true
		}
		pass.Reportf(rs.Pos(),
			"range over map %s: iteration order is randomized and can reach output; collect and sort keys first, or justify with //quest:allow(detrange) <reason>",
			types.TypeString(t, types.RelativeTo(pass.Pkg.Types)))
		return true
	})
}

// rangeIsOrderSafe reports whether the map range statement matches one of
// the allowed order-independent idioms.
func rangeIsOrderSafe(info *types.Info, funcBody *ast.BlockStmt, rs *ast.RangeStmt) bool {
	// `for range m` — nothing bound, order cannot escape.
	if isBlank(rs.Key) && isBlank(rs.Value) {
		return true
	}
	if rs.Body == nil || len(rs.Body.List) == 0 {
		return true
	}
	// Map clearing: the single statement `delete(m, k)` on the ranged map.
	if len(rs.Body.List) == 1 {
		if es, ok := rs.Body.List[0].(*ast.ExprStmt); ok {
			if call, ok := es.X.(*ast.CallExpr); ok && isBuiltin(info, call.Fun, "delete") &&
				len(call.Args) == 2 && sameObjectExpr(info, call.Args[0], rs.X) {
				return true
			}
		}
	}
	// Collect-then-sort: every statement appends to a slice, and each such
	// slice is sorted later in the same function body.
	targets := appendTargets(info, rs.Body)
	if len(targets) == 0 {
		return false
	}
	for _, obj := range targets {
		if !sortedAfter(info, funcBody, rs.End(), obj) {
			return false
		}
	}
	return true
}

// appendTargets returns the objects assigned by `x = append(x, ...)`
// statements if the whole body consists of such statements (nil otherwise).
func appendTargets(info *types.Info, body *ast.BlockStmt) []types.Object {
	var out []types.Object
	for _, st := range body.List {
		as, ok := st.(*ast.AssignStmt)
		if !ok || len(as.Lhs) != 1 || len(as.Rhs) != 1 {
			return nil
		}
		lhs, ok := as.Lhs[0].(*ast.Ident)
		if !ok {
			return nil
		}
		call, ok := as.Rhs[0].(*ast.CallExpr)
		if !ok || !isBuiltin(info, call.Fun, "append") || len(call.Args) < 1 {
			return nil
		}
		if first, ok := call.Args[0].(*ast.Ident); !ok || info.Uses[first] != info.ObjectOf(lhs) {
			return nil
		}
		out = append(out, info.ObjectOf(lhs))
	}
	return out
}

// sortedAfter reports whether obj is passed to a sort or slices call at a
// position after pos within body.
func sortedAfter(info *types.Info, body *ast.BlockStmt, pos token.Pos, obj types.Object) bool {
	if obj == nil {
		return false
	}
	found := false
	ast.Inspect(body, func(n ast.Node) bool {
		if found {
			return false
		}
		call, ok := n.(*ast.CallExpr)
		if !ok || call.Pos() < pos {
			return true
		}
		sel, ok := call.Fun.(*ast.SelectorExpr)
		if !ok {
			return true
		}
		fn, ok := info.Uses[sel.Sel].(*types.Func)
		if !ok || fn.Pkg() == nil {
			return true
		}
		if p := fn.Pkg().Path(); p != "sort" && p != "slices" {
			return true
		}
		for _, arg := range call.Args {
			if id, ok := arg.(*ast.Ident); ok && info.Uses[id] == obj {
				found = true
				return false
			}
		}
		return true
	})
	return found
}

func isBlank(e ast.Expr) bool {
	if e == nil {
		return true
	}
	id, ok := e.(*ast.Ident)
	return ok && id.Name == "_"
}

func isBuiltin(info *types.Info, fun ast.Expr, name string) bool {
	id, ok := fun.(*ast.Ident)
	if !ok {
		return false
	}
	b, ok := info.Uses[id].(*types.Builtin)
	return ok && b.Name() == name
}

func sameObjectExpr(info *types.Info, a, b ast.Expr) bool {
	ai, aok := ast.Unparen(a).(*ast.Ident)
	bi, bok := ast.Unparen(b).(*ast.Ident)
	if aok && bok {
		ao, bo := info.ObjectOf(ai), info.ObjectOf(bi)
		return ao != nil && ao == bo
	}
	return false
}
