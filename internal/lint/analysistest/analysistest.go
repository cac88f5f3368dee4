// Package analysistest runs questvet analyzers over small testdata packages
// and checks their findings against expectation comments, mirroring (a small
// subset of) golang.org/x/tools/go/analysis/analysistest without the
// dependency.
//
// Expectations are written in the testdata source itself:
//
//	for k, v := range m { // want "range over map"
//
// A `// want "re"` comment expects an *active* diagnostic on its line whose
// message matches the regexp; several patterns may follow one want. A
// `// suppressed "re"` comment expects a finding on its line that was
// silenced by a //quest:allow directive — use it to prove the suppression
// engaged rather than the analyzer simply not firing. Lines without
// expectation comments must produce nothing. Directive-policing diagnostics
// (analyzer "quest:allow") are matched by `// want` like any other finding.
package analysistest

import (
	"regexp"
	"strings"
	"testing"

	"quest/internal/lint/analysis"
	"quest/internal/lint/loader"
)

var expectRe = regexp.MustCompile(`//\s*(want|suppressed)((?:\s+"[^"]*")+)\s*$`)
var patRe = regexp.MustCompile(`"([^"]*)"`)

type expectation struct {
	kind string // "want" or "suppressed"
	re   *regexp.Regexp
	file string
	line int
	hit  bool
}

// Run loads dir (relative to the calling test's working directory) as one
// package — module-internal imports resolve against the enclosing module —
// runs the analyzers through analysis.Check, and reports every mismatch
// between the result and the package's want/suppressed comments as a test
// error.
func Run(t *testing.T, dir string, analyzers ...*analysis.Analyzer) {
	t.Helper()
	root, err := loader.FindRoot(".")
	if err != nil {
		t.Fatal(err)
	}
	prog, err := loader.NewProgram(root)
	if err != nil {
		t.Fatal(err)
	}
	pkg, err := prog.LoadDir(dir, "a")
	if err != nil {
		t.Fatal(err)
	}
	known := make([]string, 0, len(analyzers))
	for _, a := range analyzers {
		known = append(known, a.Name)
	}
	res, err := analysis.Check(pkg, prog.Fset, analyzers, known)
	if err != nil {
		t.Fatal(err)
	}

	expects := collect(t, prog, pkg)
	verify(t, expects, res)
}

// RunTree loads dir as its own module — the fixture carries a go.mod, and
// its packages import each other through the fixture module path — runs
// the analyzers over every package through analysis.Check, and matches the
// combined result against want/suppressed comments across all packages.
// This is the harness for analyzers keyed on import paths, where the
// caller sits in package a and the callee it names in package b.
func RunTree(t *testing.T, dir string, analyzers ...*analysis.Analyzer) {
	t.Helper()
	prog, err := loader.NewProgram(dir)
	if err != nil {
		t.Fatal(err)
	}
	pkgs, err := prog.LoadModule()
	if err != nil {
		t.Fatal(err)
	}
	known := make([]string, 0, len(analyzers))
	for _, a := range analyzers {
		known = append(known, a.Name)
	}
	var combined analysis.Result
	var expects []*expectation
	for _, pkg := range pkgs {
		res, err := analysis.Check(pkg, prog.Fset, analyzers, known)
		if err != nil {
			t.Fatal(err)
		}
		combined.Active = append(combined.Active, res.Active...)
		combined.Suppressed = append(combined.Suppressed, res.Suppressed...)
		expects = append(expects, collect(t, prog, pkg)...)
	}
	verify(t, expects, combined)
}

// verify matches a result against the collected expectations, reporting
// every unexpected finding and every unmet expectation.
func verify(t *testing.T, expects []*expectation, res analysis.Result) {
	t.Helper()
	match := func(kind, file string, line int, msg string) bool {
		for _, e := range expects {
			if e.kind == kind && e.file == file && e.line == line && !e.hit && e.re.MatchString(msg) {
				e.hit = true
				return true
			}
		}
		return false
	}
	for _, d := range res.Active {
		if !match("want", d.Pos.Filename, d.Pos.Line, d.Message) {
			t.Errorf("unexpected diagnostic %s", d)
		}
	}
	for _, s := range res.Suppressed {
		if !match("suppressed", s.Pos.Filename, s.Pos.Line, s.Message) {
			t.Errorf("unexpected suppressed finding %s (reason: %s)", s.Diagnostic, s.Reason)
		}
	}
	for _, e := range expects {
		if !e.hit {
			t.Errorf("%s:%d: expected %s diagnostic matching %q, got none", e.file, e.line, e.kind, e.re)
		}
	}
}

// collect parses the want/suppressed comments out of the package's files.
func collect(t *testing.T, prog *loader.Program, pkg *loader.Package) []*expectation {
	t.Helper()
	var out []*expectation
	for _, f := range pkg.Files {
		for _, cg := range f.Comments {
			for _, c := range cg.List {
				m := expectRe.FindStringSubmatch(c.Text)
				if m == nil {
					if strings.Contains(c.Text, "// want") || strings.Contains(c.Text, "// suppressed") {
						t.Fatalf("%s: unparseable expectation comment %q", prog.Fset.Position(c.Pos()), c.Text)
					}
					continue
				}
				pos := prog.Fset.Position(c.Pos())
				for _, pm := range patRe.FindAllStringSubmatch(m[2], -1) {
					re, err := regexp.Compile(pm[1])
					if err != nil {
						t.Fatalf("%s: bad expectation regexp %q: %v", pos, pm[1], err)
					}
					out = append(out, &expectation{kind: m[1], re: re, file: pos.Filename, line: pos.Line})
				}
			}
		}
	}
	if len(out) == 0 {
		t.Log("analysistest: package declares no expectations; asserting a clean result")
	}
	return out
}
