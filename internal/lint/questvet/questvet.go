// Package questvet assembles the repository's analyzer suite — the
// machine-checked invariants behind the paper reproduction's determinism
// and zero-overhead-observability claims — and scopes each analyzer to the
// packages where its invariant is load-bearing:
//
//   - detrange (determinism-critical packages, checker tools, commands): no
//     map iteration whose order can reach results, ledgers, traces,
//     heatmaps, or reports.
//   - seedsrc (simulation/MC packages): no wall clock, pid, or global
//     math/rand source; all entropy flows from the experiment seed through
//     the SplitMix64 mixers.
//   - schemaver (everywhere): serialized-artifact schema strings
//     ("quest-ledger/1", ...) defined once, as exported constants.
//   - gateflow (interprocedural; functions a hot root reaches, plus every
//     function of the hot-path packages): every observer method call
//     nil-gated on its receiver, and in the hot-path packages every
//     metrics argument allocation-free, protecting the runtime allocation
//     pins (TestRunAllocs: mc.RunBatch 8 allocs/call;
//     TestMatchHeatOffAllocs: decoder exact-match ≤ 6 allocs/op, observers
//     off).
//   - errsink (everywhere): error results from ledger/bwprofile/cli calls
//     are never discarded.
//
// gateflow reasons over one whole-module call graph
// (internal/lint/callgraph) built per run; its hot roots, declared in
// GraphConfig, are the Monte-Carlo engines' entry points and trial
// closures, the global decoder's match path, and the MCE/master cycle
// loops. A hot root or scope directory that matches nothing in the module
// is itself a finding, so a rename cannot silently drop code out of an
// audit.
//
// The tools/questvet binary drives this suite over the module; the Run
// helper here is shared with its tests.
package questvet

import (
	"fmt"
	"io"
	"slices"
	"sort"
	"strings"

	"quest/internal/lint/analysis"
	"quest/internal/lint/callgraph"
	"quest/internal/lint/detrange"
	"quest/internal/lint/errsink"
	"quest/internal/lint/gateflow"
	"quest/internal/lint/loader"
	"quest/internal/lint/schemaver"
	"quest/internal/lint/seedsrc"
)

// A ScopedAnalyzer pairs an analyzer with the module-root-relative
// directory prefixes it applies to (subpackages included). An empty Dirs
// list means every package in the module.
type ScopedAnalyzer struct {
	Analyzer *analysis.Analyzer
	Dirs     []string
}

// hotDirs are the hot-path packages, where gateflow checks every function:
// that covers the instruction-delivery entry points no hot root reaches
// (master.(*Master).Dispatch, SendSync, LoadCache,
// mce.(*MCE).LoadCacheSlot).
var hotDirs = []string{
	"internal/mce", "internal/master", "internal/decoder",
	"internal/noc", "internal/dram",
}

// observerDirs are the observer packages themselves: their methods run
// past the nil boundary by design, so gateflow has nothing to check there.
var observerDirs = []string{
	"internal/tracing", "internal/heatmap", "internal/metrics",
	"internal/bwprofile",
}

// Suite returns the analyzers with their package scopes.
func Suite() []ScopedAnalyzer {
	return []ScopedAnalyzer{
		// Packages whose map-iteration order can reach serialized output or
		// report rows — including every checker tool and command, whose
		// stdout is diffed by CI smoke jobs.
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
		// Schema constants are a whole-module concern.
		{schemaver.Analyzer, nil},
		// Interprocedural hot-path contract: gate flow.
		{gateflow.New(hotDirs, observerDirs), nil},
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

// GraphConfig declares the hot roots and observer vocabulary of the
// module's call graph: the Monte-Carlo engines (and the per-trial closures
// handed to them), the global decoder's match path, and the MCE/master
// cycle loops.
func GraphConfig() callgraph.Config {
	const mcEntry = "internal/mc.RunBatch"
	return callgraph.Config{
		Roots: []string{
			mcEntry,
			"internal/decoder.(*GlobalDecoder).Match",
			"internal/mce.(*MCE).StepCycle",
			"internal/master.(*Master).StepCycle",
		},
		ClosureRoots: []string{mcEntry},
		ObserverPkgs: []string{
			"internal/tracing", "internal/heatmap",
			"internal/bwprofile", "internal/metrics", "internal/ledger",
		},
		TrackedTypes: map[string][]string{
			"internal/tracing":   {"Tracer"},
			"internal/heatmap":   {"Collector", "Set"},
			"internal/bwprofile": {"Recorder"},
		},
	}
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

// Report aggregates a run over many packages.
type Report struct {
	// Root is the module root directory; baselines relativize file paths
	// against it.
	Root string
	// Module is the module import path.
	Module     string
	Active     []analysis.Diagnostic
	Suppressed []analysis.Suppressed
}

// Run checks every package in pkgs with its applicable analyzers over a
// whole-module call graph, then runs the cross-package schema-duplication
// check. pkgs is typically the result of prog.LoadModule(); the graph is
// always built over the full module so interprocedural reachability does
// not depend on the package selection.
func Run(prog *loader.Program, pkgs []*loader.Package) (Report, error) {
	rep := Report{Root: prog.Root, Module: prog.Module}
	suite := Suite()
	known := Names()

	all, err := prog.LoadModule()
	if err != nil {
		return Report{}, fmt.Errorf("loading module for call graph: %w", err)
	}
	g := callgraph.Build(prog, all, GraphConfig())
	// A renamed entry point must fail loudly: a spec that resolves to
	// nothing silently disables its audit.
	for _, spec := range g.UnresolvedRoots() {
		rep.Active = append(rep.Active, analysis.Diagnostic{
			Analyzer: "gateflow",
			Message:  fmt.Sprintf("hot-path root %q matches no function; update questvet.GraphConfig", spec),
		})
	}
	// So must a renamed package: a scope directory that matches nothing
	// silently drops out of its analyzer's reach.
	missing := func(analyzer string, dirs []string) {
		for _, d := range unresolvedDirs(prog.Module, all, dirs) {
			rep.Active = append(rep.Active, analysis.Diagnostic{
				Analyzer: analyzer,
				Message:  fmt.Sprintf("scope directory %q matches no package; update questvet.Suite", d),
			})
		}
	}
	for _, sa := range suite {
		missing(sa.Analyzer.Name, sa.Dirs)
	}
	missing("gateflow", slices.Concat(hotDirs, observerDirs))

	for _, pkg := range pkgs {
		var sel []*analysis.Analyzer
		for _, sa := range suite {
			if sa.Applies(prog.Module, pkg.Path) {
				sel = append(sel, sa.Analyzer)
			}
		}
		res, err := analysis.CheckGraph(pkg, prog.Fset, g, sel, known)
		if err != nil {
			return Report{}, err
		}
		rep.Active = append(rep.Active, res.Active...)
		rep.Suppressed = append(rep.Suppressed, res.Suppressed...)
	}
	rep.Active = append(rep.Active, schemaver.Duplicates(prog.Fset, pkgs)...)
	return rep, nil
}

// Write prints the report: active diagnostics (if any), then a one-line
// suppression summary; with verbose, each suppression and its reason.
// It returns the number of active diagnostics.
func (r Report) Write(w io.Writer, verbose bool) int {
	for _, d := range r.Active {
		fmt.Fprintln(w, d)
	}
	if verbose {
		for _, s := range r.Suppressed {
			fmt.Fprintf(w, "%s: [%s] suppressed: %s (reason: %s)\n", s.Pos, s.Analyzer, s.Message, s.Reason)
		}
	}
	fmt.Fprintf(w, "questvet: %d diagnostic(s), %d suppression(s) in force\n", len(r.Active), len(r.Suppressed))
	return len(r.Active)
}
