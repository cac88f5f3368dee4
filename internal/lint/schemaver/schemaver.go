// Package schemaver enforces single-sourced, exported schema version
// constants for the repository's serialized artifact formats
// ("quest-ledger/1", "quest-heatmap/1", "quest-bw/1", ...).
//
// Validators (tools/questcheck, tools/bwreport), CI smoke
// jobs and external replay tooling all check these strings; a duplicated
// literal lets a format change in one place silently desynchronize from the
// checker in another. (Chrome trace files carry no schema string, so
// tools/questcheck recognises them by shape.) schemaver requires every
// schema-shaped string literal (`quest-<name>/<version>`) to appear exactly
// once, as the value of an exported const; all other code must reference
// that constant. Within a package it additionally flags a second exported
// const carrying the same literal; across packages tools/questvet repeats
// the check globally (Duplicates).
package schemaver

import (
	"go/ast"
	"go/token"
	"regexp"
	"strconv"

	"quest/internal/lint/analysis"
	"quest/internal/lint/loader"
)

// Analyzer is the schemaver analyzer.
var Analyzer = &analysis.Analyzer{
	Name: "schemaver",
	Doc:  "requires schema version strings to be exported constants defined in exactly one place",
	Run:  run,
}

// Pattern matches the schema identifiers this repository uses:
// quest-<artifact>/<version>.
var Pattern = regexp.MustCompile(`^quest-[a-z0-9-]+/[0-9]+$`)

func run(pass *analysis.Pass) error {
	defined := map[string][]token.Pos{} // literal -> exported const positions in this package
	for _, f := range pass.Files {
		constLits := map[*ast.BasicLit]string{} // schema literals in allowed positions -> const name
		for _, decl := range f.Decls {
			gd, ok := decl.(*ast.GenDecl)
			if !ok || gd.Tok != token.CONST {
				continue
			}
			for _, spec := range gd.Specs {
				vs, ok := spec.(*ast.ValueSpec)
				if !ok {
					continue
				}
				for i, name := range vs.Names {
					if i >= len(vs.Values) {
						continue
					}
					lit, ok := vs.Values[i].(*ast.BasicLit)
					if !ok || lit.Kind != token.STRING {
						continue
					}
					s, err := strconv.Unquote(lit.Value)
					if err != nil || !Pattern.MatchString(s) {
						continue
					}
					constLits[lit] = name.Name
					if !name.IsExported() {
						pass.Reportf(name.Pos(),
							"schema string %q is declared by unexported const %s; export it so validators and writers share one definition", s, name.Name)
						continue
					}
					defined[s] = append(defined[s], name.Pos())
				}
			}
		}
		ast.Inspect(f, func(n ast.Node) bool {
			lit, ok := n.(*ast.BasicLit)
			if !ok || lit.Kind != token.STRING {
				return true
			}
			if _, inConst := constLits[lit]; inConst {
				return true
			}
			s, err := strconv.Unquote(lit.Value)
			if err != nil || !Pattern.MatchString(s) {
				return true
			}
			pass.Reportf(lit.Pos(),
				"inline schema string %q duplicates the exported schema constant; reference the constant instead", s)
			return true
		})
	}
	for s, positions := range defined {
		if len(positions) > 1 {
			for _, pos := range positions[1:] {
				pass.Reportf(pos, "schema string %q is defined by more than one exported const in this package; keep a single source of truth", s)
			}
		}
	}
	return nil
}

// Duplicates is the cross-package companion check the questvet driver runs
// after the per-package analyzers: it reports every exported schema const
// whose literal is also defined in another package. pkgs must be the whole
// module, fset the program's file set.
func Duplicates(fset *token.FileSet, pkgs []*loader.Package) []analysis.Diagnostic {
	type site struct {
		pkg  string
		name string
		pos  token.Pos
	}
	byLiteral := map[string][]site{}
	var order []string
	for _, p := range pkgs {
		for _, f := range p.Files {
			for _, decl := range f.Decls {
				gd, ok := decl.(*ast.GenDecl)
				if !ok || gd.Tok != token.CONST {
					continue
				}
				for _, spec := range gd.Specs {
					vs, ok := spec.(*ast.ValueSpec)
					if !ok {
						continue
					}
					for i, name := range vs.Names {
						if i >= len(vs.Values) || !name.IsExported() {
							continue
						}
						lit, ok := vs.Values[i].(*ast.BasicLit)
						if !ok || lit.Kind != token.STRING {
							continue
						}
						s, err := strconv.Unquote(lit.Value)
						if err != nil || !Pattern.MatchString(s) {
							continue
						}
						if len(byLiteral[s]) == 0 {
							order = append(order, s)
						}
						byLiteral[s] = append(byLiteral[s], site{p.Path, name.Name, name.Pos()})
					}
				}
			}
		}
	}
	var out []analysis.Diagnostic
	for _, s := range order {
		sites := byLiteral[s]
		if len(sites) < 2 {
			continue
		}
		for _, st := range sites[1:] {
			out = append(out, analysis.Diagnostic{
				Analyzer: Analyzer.Name,
				Pos:      fset.Position(st.pos),
				Message: "schema string " + strconv.Quote(s) + " is also defined as " +
					sites[0].pkg + "." + sites[0].name + "; schema versions must have a single defining constant",
			})
		}
	}
	return out
}
