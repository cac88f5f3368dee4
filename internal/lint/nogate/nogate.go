// Package nogate flags observability calls on hot paths that are not
// nil-gated (tracing and heatmap hooks) or whose arguments could allocate
// (metrics instruments).
//
// The pinned allocation budgets — mc.RunBatch 8 allocs/call with observers
// off, the decoder's exact-match path ≤ 6 allocs/op with heat off
// (TestRunAllocs, TestMatchHeatOffAllocs) — hold only because
// every observability hook on a hot path costs exactly one predictable
// branch when disabled. The recorder methods of *tracing.Tracer,
// *heatmap.Collector and the telemetry *events.Sampler are no-ops on a nil
// receiver, but an un-gated call still evaluates its arguments: today those
// are integer conversions,
// tomorrow someone passes fmt.Sprintf and the off path allocates. nogate
// therefore requires every call to a tracing/heatmap method in a hot-path
// package to be dominated by a nil check of the same receiver expression —
// either an enclosing `if recv != nil { ... }` or an earlier
// `if recv == nil { return }` guard in an enclosing block.
//
// Metrics instruments (*metrics.Counter, *metrics.Gauge,
// *metrics.Histogram) are registry-backed and never nil, so they cannot be
// receiver-gated; for them nogate instead requires allocation-free
// arguments: identifiers, selectors, literals, numeric arithmetic,
// conversions, len/cap/min/max, and time.Since. Anything that could
// allocate (other calls, composite or function literals, string
// concatenation) is a finding — hoist it behind an explicit enable check
// or simplify the argument.
package nogate

import (
	"go/ast"
	"go/token"
	"go/types"
	"strings"

	"quest/internal/lint/analysis"
)

// Analyzer is the nogate analyzer.
var Analyzer = &analysis.Analyzer{
	Name: "nogate",
	Doc:  "flags un-nil-gated tracing/heatmap calls and allocation-risky metrics arguments on hot paths",
	Run:  run,
}

// gatedTypes need a dominating nil check of the receiver; instrumentTypes
// need allocation-free arguments. Matching is by package-path suffix so the
// analyzer works both on the real packages and on testdata stubs.
var (
	gatedTypes = map[string][]string{
		"internal/tracing":   {"Tracer"},
		"internal/heatmap":   {"Collector", "Set"},
		"internal/events":    {"Sampler"},
		"internal/bwprofile": {"Recorder"},
	}
	instrumentTypes = map[string][]string{
		"internal/metrics": {"Counter", "Gauge", "Histogram"},
	}
)

func run(pass *analysis.Pass) error {
	info := pass.Pkg.Info
	for _, f := range pass.Files {
		v := &visitor{pass: pass, info: info}
		ast.Walk(v, f)
	}
	return nil
}

type visitor struct {
	pass  *analysis.Pass
	info  *types.Info
	stack []ast.Node
}

func (v *visitor) Visit(n ast.Node) ast.Visitor {
	if n == nil {
		v.stack = v.stack[:len(v.stack)-1]
		return nil
	}
	v.stack = append(v.stack, n)
	if call, ok := n.(*ast.CallExpr); ok {
		v.check(call)
	}
	return v
}

func (v *visitor) check(call *ast.CallExpr) {
	sel, ok := call.Fun.(*ast.SelectorExpr)
	if !ok {
		return
	}
	// Only method calls (not package-qualified function calls).
	if v.info.Selections[sel] == nil {
		return
	}
	recv := sel.X
	rt := v.info.TypeOf(recv)
	if rt == nil {
		return
	}
	pkgSuffix, typeName := namedTypeKey(rt)
	if pkgSuffix == "" {
		return
	}
	if contains(gatedTypes[pkgSuffix], typeName) {
		if !v.nilGated(recv, call) {
			v.pass.Reportf(call.Pos(),
				"call to (*%s.%s).%s is not nil-gated: wrap it in `if %s != nil { ... }` so the observers-off hot path stays allocation-free",
				lastSegment(pkgSuffix), typeName, sel.Sel.Name, types.ExprString(recv))
		}
		return
	}
	if contains(instrumentTypes[pkgSuffix], typeName) {
		for _, arg := range call.Args {
			if risky := allocRisky(v.info, arg); risky != nil {
				v.pass.Reportf(risky.Pos(),
					"argument %s to (*metrics.%s).%s may allocate on the hot path even when metrics are unused; hoist or simplify it",
					types.ExprString(risky), typeName, sel.Sel.Name)
			}
		}
	}
}

func contains(list []string, s string) bool {
	for _, v := range list {
		if v == s {
			return true
		}
	}
	return false
}

func lastSegment(path string) string {
	if i := strings.LastIndex(path, "/"); i >= 0 {
		return path[i+1:]
	}
	return path
}

// namedTypeKey resolves t to a named (possibly pointer) type declared in a
// package whose import path ends in one of the watched suffixes.
func namedTypeKey(t types.Type) (pkgSuffix, name string) {
	if p, ok := t.(*types.Pointer); ok {
		t = p.Elem()
	}
	n, ok := t.(*types.Named)
	if !ok || n.Obj().Pkg() == nil {
		return "", ""
	}
	path := n.Obj().Pkg().Path()
	for suffix := range gatedTypes {
		if path == suffix || strings.HasSuffix(path, "/"+suffix) {
			return suffix, n.Obj().Name()
		}
	}
	for suffix := range instrumentTypes {
		if path == suffix || strings.HasSuffix(path, "/"+suffix) {
			return suffix, n.Obj().Name()
		}
	}
	return "", ""
}

// nilGated reports whether call is dominated by a nil check of recv: an
// enclosing `if <recv> != nil` whose then-branch contains the call, or a
// preceding `if <recv> == nil { return/continue/break/panic }` in an
// enclosing block. Receiver identity is syntactic (the printed expression),
// which matches how the guards are written in this repository.
func (v *visitor) nilGated(recv ast.Expr, call *ast.CallExpr) bool {
	want := types.ExprString(recv)
	// v.stack ends at the CallExpr itself; walk outward.
	for i := len(v.stack) - 1; i > 0; i-- {
		n := v.stack[i]
		parent := v.stack[i-1]
		if ifs, ok := parent.(*ast.IfStmt); ok && n == ifs.Body {
			if condImpliesNonNil(ifs.Cond, want) {
				return true
			}
		}
		// Early-return guard: a previous sibling statement in an enclosing
		// block of the form `if recv == nil { <terminal> }`.
		if blk, ok := parent.(*ast.BlockStmt); ok {
			for _, st := range blk.List {
				if st == n {
					break
				}
				if guardReturnsOnNil(st, want) {
					return true
				}
			}
		}
	}
	return false
}

// condImpliesNonNil reports whether cond, taken true, implies `want != nil`
// (as a conjunct of &&-chains).
func condImpliesNonNil(cond ast.Expr, want string) bool {
	switch e := ast.Unparen(cond).(type) {
	case *ast.BinaryExpr:
		switch e.Op {
		case token.LAND:
			return condImpliesNonNil(e.X, want) || condImpliesNonNil(e.Y, want)
		case token.NEQ:
			return isNilCompare(e, want)
		}
	}
	return false
}

// guardReturnsOnNil matches `if want == nil { ... <terminal> }` with no
// else, where the body ends in return, continue, break, goto, or panic.
func guardReturnsOnNil(st ast.Stmt, want string) bool {
	ifs, ok := st.(*ast.IfStmt)
	if !ok || ifs.Else != nil || ifs.Body == nil || len(ifs.Body.List) == 0 {
		return false
	}
	be, ok := ast.Unparen(ifs.Cond).(*ast.BinaryExpr)
	if !ok || be.Op != token.EQL || !isNilCompare(be, want) {
		return false
	}
	switch last := ifs.Body.List[len(ifs.Body.List)-1].(type) {
	case *ast.ReturnStmt, *ast.BranchStmt:
		return true
	case *ast.ExprStmt:
		if c, ok := last.X.(*ast.CallExpr); ok {
			if id, ok := c.Fun.(*ast.Ident); ok && id.Name == "panic" {
				return true
			}
		}
	}
	return false
}

// isNilCompare reports whether the comparison has `want` on one side and
// the nil identifier on the other.
func isNilCompare(be *ast.BinaryExpr, want string) bool {
	isNil := func(e ast.Expr) bool {
		id, ok := ast.Unparen(e).(*ast.Ident)
		return ok && id.Name == "nil"
	}
	if isNil(be.Y) && types.ExprString(ast.Unparen(be.X)) == want {
		return true
	}
	if isNil(be.X) && types.ExprString(ast.Unparen(be.Y)) == want {
		return true
	}
	return false
}

// allocRisky returns the first sub-expression of e that could allocate, or
// nil if e is provably allocation-free at evaluation time.
func allocRisky(info *types.Info, e ast.Expr) ast.Expr {
	switch x := e.(type) {
	case *ast.BasicLit, *ast.Ident:
		return nil
	case *ast.SelectorExpr:
		return nil // field or package selector; no evaluation cost
	case *ast.ParenExpr:
		return allocRisky(info, x.X)
	case *ast.IndexExpr:
		if r := allocRisky(info, x.X); r != nil {
			return r
		}
		return allocRisky(info, x.Index)
	case *ast.UnaryExpr:
		if x.Op == token.AND {
			return x // taking an address can escape and allocate
		}
		return allocRisky(info, x.X)
	case *ast.BinaryExpr:
		if t := info.TypeOf(x); t != nil {
			if b, ok := t.Underlying().(*types.Basic); ok && b.Info()&types.IsString != 0 {
				return x // string concatenation allocates
			}
		}
		if r := allocRisky(info, x.X); r != nil {
			return r
		}
		return allocRisky(info, x.Y)
	case *ast.CallExpr:
		// Type conversions of safe operands are safe.
		if tv, ok := info.Types[x.Fun]; ok && tv.IsType() {
			if len(x.Args) == 1 {
				return allocRisky(info, x.Args[0])
			}
			return nil
		}
		// Builtins len/cap/min/max of safe operands are safe.
		if id, ok := x.Fun.(*ast.Ident); ok {
			if b, ok := info.Uses[id].(*types.Builtin); ok {
				switch b.Name() {
				case "len", "cap", "min", "max":
					for _, a := range x.Args {
						if r := allocRisky(info, a); r != nil {
							return r
						}
					}
					return nil
				}
			}
		}
		// time.Since is the one whitelisted function call: allocation-free
		// and ubiquitous in latency instruments.
		if sel, ok := x.Fun.(*ast.SelectorExpr); ok {
			if fn, ok := info.Uses[sel.Sel].(*types.Func); ok && fn.Pkg() != nil &&
				fn.Pkg().Path() == "time" && fn.Name() == "Since" {
				return nil
			}
		}
		return x
	}
	return e // composite literals, func literals, anything unrecognized
}
