// Package questvet assembles the repository's analyzer suite — the
// machine-checked invariants behind the paper reproduction's determinism
// claims — and scopes each analyzer to the packages where its invariant is
// load-bearing:
//
//   - detrange (determinism-critical packages, checker tools, commands): no
//     map iteration whose order can reach results, ledgers, traces,
//     heatmaps, or reports.
//   - seedsrc (simulation/MC packages): no wall clock, pid, or global
//     math/rand source; all entropy flows from the experiment seed through
//     the SplitMix64 mixers.
//   - errsink (everywhere): error results from ledger/bwprofile/cli calls
//     are never discarded.
//
// Each analyzer inspects one package at a time. A scope directory that
// matches no package in the module is itself a finding, so a rename cannot
// silently drop code out of an audit. The nil-gating and schema-constant
// invariants are held by runtime tests, not here (see CONTRIBUTING.md).
//
// TestModuleClean runs the suite over the module under `go test ./...`: it
// wants zero findings and pins the //quest:allow count, logging each
// suppression with its reason (`go test -v -run TestModuleClean
// ./internal/lint/questvet` lists them).
package questvet

import (
	"fmt"
	"slices"
	"sort"
	"strings"

	"quest/internal/lint/analysis"
	"quest/internal/lint/detrange"
	"quest/internal/lint/errsink"
	"quest/internal/lint/loader"
	"quest/internal/lint/seedsrc"
)

// A ScopedAnalyzer pairs an analyzer with the module-root-relative
// directory prefixes it applies to (subpackages included). An empty Dirs
// list means every package in the module.
type ScopedAnalyzer struct {
	Analyzer *analysis.Analyzer
	Dirs     []string
}

// Suite returns the analyzers with their package scopes.
func Suite() []ScopedAnalyzer {
	return []ScopedAnalyzer{
		// Packages whose map-iteration order can reach serialized output or
		// report rows — including the checker tool and every command, whose
		// stdout and artifacts the cmd tests compare byte for byte.
		{detrange.Analyzer, []string{
			"internal/mc", "internal/core", "internal/decoder", "internal/noc",
			"internal/ledger", "internal/heatmap", "internal/tracing",
			"internal/metrics", "internal/chart",
			"tools", "cmd",
		}},
		// Simulation/Monte-Carlo packages where ambient entropy would break
		// (config, seed) replayability.
		{seedsrc.Analyzer, []string{
			"internal/mc", "internal/core", "internal/mce", "internal/master",
			"internal/decoder", "internal/noc", "internal/dram",
			"internal/noise", "internal/clifford", "internal/surface",
			"internal/distill", "internal/concat",
		}},
		// Dropped writer errors break byte identity wherever they happen.
		{errsink.Analyzer, nil},
	}
}

// Names returns the analyzer names of the suite, sorted.
func Names() []string {
	var out []string
	for _, sa := range Suite() {
		out = append(out, sa.Analyzer.Name)
	}
	sort.Strings(out)
	return out
}

// Applies reports whether the scoped analyzer runs on importPath within
// module.
func (sa ScopedAnalyzer) Applies(module, importPath string) bool {
	if len(sa.Dirs) == 0 {
		return true
	}
	rel := strings.TrimPrefix(strings.TrimPrefix(importPath, module), "/")
	if rel == importPath && importPath != module {
		return false // not under this module at all
	}
	for _, d := range sa.Dirs {
		if rel == d || strings.HasPrefix(rel, d+"/") {
			return true
		}
	}
	return false
}

// unresolvedDirs returns the dirs that match no package in pkgs.
func unresolvedDirs(module string, pkgs []*loader.Package, dirs []string) []string {
	var out []string
	for _, d := range dirs {
		scope := ScopedAnalyzer{Dirs: []string{d}}
		if !slices.ContainsFunc(pkgs, func(p *loader.Package) bool { return scope.Applies(module, p.Path) }) {
			out = append(out, d)
		}
	}
	return out
}

// Run loads every package of prog's module, checks each with its
// applicable analyzers, and returns the findings and suppressions of all of
// them.
func Run(prog *loader.Program) (analysis.Result, error) {
	var rep analysis.Result
	suite := Suite()
	known := Names()

	pkgs, err := prog.LoadModule()
	if err != nil {
		return analysis.Result{}, fmt.Errorf("loading module: %w", err)
	}
	// A renamed package must fail loudly: a scope directory that matches
	// nothing silently drops out of its analyzer's reach.
	for _, sa := range suite {
		for _, d := range unresolvedDirs(prog.Module, pkgs, sa.Dirs) {
			rep.Active = append(rep.Active, analysis.Diagnostic{
				Analyzer: sa.Analyzer.Name,
				Message:  fmt.Sprintf("scope directory %q matches no package; update questvet.Suite", d),
			})
		}
	}

	for _, pkg := range pkgs {
		var sel []*analysis.Analyzer
		for _, sa := range suite {
			if sa.Applies(prog.Module, pkg.Path) {
				sel = append(sel, sa.Analyzer)
			}
		}
		res, err := analysis.Check(pkg, prog.Fset, sel, known)
		if err != nil {
			return analysis.Result{}, err
		}
		rep.Active = append(rep.Active, res.Active...)
		rep.Suppressed = append(rep.Suppressed, res.Suppressed...)
	}
	return rep, nil
}
