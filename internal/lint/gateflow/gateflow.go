// Package gateflow defines the gateflow analyzer: on hot paths, an
// observer that is switched off must cost one branch and nothing else.
//
// The runtime allocation pins — mc.RunBatch 8 allocs/call with observers
// off, the decoder's exact-match path ≤ 6 allocs/op with heat off
// (TestRunAllocs, TestMatchHeatOffAllocs) — hold only because every
// observability hook on a hot path costs exactly one predictable branch
// when disabled. The methods of the tracked observer types
// (tracing.Tracer, heatmap.Collector/Set, bwprofile.Recorder) are no-ops on
// a nil receiver, but an ungated call still evaluates its arguments: today
// those are integer conversions, tomorrow someone passes fmt.Sprintf and
// the off path allocates.
//
// gateflow checks a function when a hot root (questvet.GraphConfig lists
// them) reaches it over ungated call-graph edges, and every function of a
// hot package, so the instruction-delivery entry points no root reaches
// are covered too. In a checked function every call to a tracked observer
// method must be dominated by a nil check naming exactly the call's
// receiver expression (callgraph's TrackedCall.GatedOnRecv): `if shards !=
// nil { parent.NewShard() }` proves nothing about parent.
//
// Metrics instruments (*metrics.Counter, *metrics.Gauge,
// *metrics.Histogram) are registry-backed and never nil, so they cannot be
// receiver-gated; in a hot package their arguments must instead be
// allocation-free: identifiers, selectors, literals, numeric arithmetic,
// conversions, len/cap/min/max, and time.Since. Anything that could
// allocate (other calls, composite or function literals, string
// concatenation) is a finding — hoist it behind an explicit enable check
// or simplify the argument.
package gateflow

import (
	"go/ast"
	"go/token"
	"go/types"
	"strings"

	"quest/internal/lint/analysis"
)

// New builds the analyzer over module-root-relative directory prefixes
// (subpackages included): every function in a hot package is checked,
// reached from a root or not; nothing in an excluded package is — the
// observer packages, whose methods call each other past the nil boundary
// by design.
func New(hot, exclude []string) *analysis.Analyzer {
	return &analysis.Analyzer{
		Name: "gateflow",
		Doc: "observer method on a hot path without a dominating nil check " +
			"on its receiver, or an allocation-risky metrics argument",
		Run: func(pass *analysis.Pass) error { return run(pass, hot, exclude) },
	}
}

func run(pass *analysis.Pass, hot, exclude []string) error {
	g := pass.Graph
	if g == nil {
		return nil
	}
	rel := strings.TrimPrefix(strings.TrimPrefix(pass.Pkg.Path, g.Module), "/")
	if under(rel, exclude) {
		return nil
	}
	hotPkg := under(rel, hot)
	for _, n := range g.NodesIn(pass.Pkg) {
		if !hotPkg && !g.Hot(n) {
			continue
		}
		for _, tc := range n.Tracked {
			if tc.GatedOnRecv {
				continue
			}
			where := "in hot package " + rel
			if g.Hot(n) {
				where = "on hot path (" + g.PathString(g.HotPath(n)) + ")"
			}
			detail := "no dominating nil check"
			if tc.Gated {
				detail = "gated, but not on the receiver itself"
			}
			pass.Reportf(tc.Pos,
				"%s.%s.%s %s with %s on %q; wrap in `if %s != nil`",
				tc.PkgSuffix, tc.TypeName, tc.Method, where, detail, tc.Recv, tc.Recv)
		}
	}
	if hotPkg {
		checkInstrumentArgs(pass)
	}
	return nil
}

// under reports whether the module-relative path rel lies in one of dirs.
func under(rel string, dirs []string) bool {
	for _, d := range dirs {
		if rel == d || strings.HasPrefix(rel, d+"/") {
			return true
		}
	}
	return false
}

// checkInstrumentArgs reports every metrics-instrument method argument in
// the package that could allocate.
func checkInstrumentArgs(pass *analysis.Pass) {
	info := pass.Pkg.Info
	for _, f := range pass.Files {
		ast.Inspect(f, func(n ast.Node) bool {
			call, ok := n.(*ast.CallExpr)
			if !ok {
				return true
			}
			sel, ok := call.Fun.(*ast.SelectorExpr)
			if !ok || info.Selections[sel] == nil {
				return true
			}
			typeName := instrument(info.TypeOf(sel.X))
			if typeName == "" {
				return true
			}
			for _, arg := range call.Args {
				if risky := allocRisky(info, arg); risky != nil {
					pass.Reportf(risky.Pos(),
						"argument %s to (*metrics.%s).%s may allocate on the hot path even when metrics are unused; hoist or simplify it",
						types.ExprString(risky), typeName, sel.Sel.Name)
				}
			}
			return true
		})
	}
}

// instrument returns the type name when t is (a pointer to) a metrics
// instrument, "" otherwise. The package path is suffix-matched so the rule
// works on the real module and on testdata fixtures alike.
func instrument(t types.Type) string {
	if p, ok := t.(*types.Pointer); ok {
		t = p.Elem()
	}
	n, ok := t.(*types.Named)
	if !ok || n.Obj().Pkg() == nil {
		return ""
	}
	path := n.Obj().Pkg().Path()
	if path != "internal/metrics" && !strings.HasSuffix(path, "/internal/metrics") {
		return ""
	}
	switch name := n.Obj().Name(); name {
	case "Counter", "Gauge", "Histogram":
		return name
	}
	return ""
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
