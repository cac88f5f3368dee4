// Package analysis is the minimal analyzer framework behind the questvet
// suite (internal/lint/questvet): a stdlib-only stand-in for the parts of
// golang.org/x/tools/go/analysis this repository needs. An Analyzer
// inspects one type-checked package through a Pass and reports
// Diagnostics; the driver (Check) matches diagnostics against
// //quest:allow suppression directives and polices the directives
// themselves — a suppression must name a known analyzer, carry a reason,
// and actually suppress something, or it becomes a diagnostic in its own
// right. TestModuleClean pins the count of surviving suppressions, so every
// escape hatch from the repo's determinism, seed-discipline and
// error-checking invariants is visible and justified in one grep:
// `//quest:allow`.
package analysis

import (
	"fmt"
	"go/ast"
	"go/token"
	"regexp"
	"sort"
	"strings"

	"quest/internal/lint/loader"
)

// An Analyzer is one named check, run once per package.
type Analyzer struct {
	// Name identifies the analyzer in diagnostics and in
	// //quest:allow(<name>) directives. Lower-case, no spaces.
	Name string
	// Doc is a one-paragraph description of the invariant enforced.
	Doc string
	// Run inspects the package behind pass and reports findings via
	// pass.Reportf. A returned error aborts the whole suite run
	// (reserved for internal failures, not findings).
	Run func(pass *Pass) error
}

// A Pass carries one package's syntax and type information to an
// Analyzer's Run function.
type Pass struct {
	Analyzer *Analyzer
	Fset     *token.FileSet
	Files    []*ast.File
	Pkg      *loader.Package

	diags *[]Diagnostic
}

// Reportf records a finding at pos.
func (p *Pass) Reportf(pos token.Pos, format string, args ...any) {
	*p.diags = append(*p.diags, Diagnostic{
		Analyzer: p.Analyzer.Name,
		Pos:      p.Fset.Position(pos),
		Message:  fmt.Sprintf(format, args...),
	})
}

// A Diagnostic is one finding, positioned in the source.
type Diagnostic struct {
	Analyzer string
	Pos      token.Position
	Message  string
}

func (d Diagnostic) String() string {
	return fmt.Sprintf("%s: [%s] %s", d.Pos, d.Analyzer, d.Message)
}

// A Suppressed pairs a finding with the //quest:allow directive that
// silenced it, so drivers can count and list the escape hatches in force.
type Suppressed struct {
	Diagnostic
	Reason string
}

// DirectiveAnalyzer is the pseudo-analyzer name under which problems with
// //quest:allow directives themselves are reported (missing reason, unknown
// analyzer, nothing suppressed). These meta-diagnostics cannot be
// suppressed.
const DirectiveAnalyzer = "quest:allow"

// directiveRe matches the full text of a suppression comment:
// //quest:allow(<analyzer>) <reason>. The reason is everything after the
// closing parenthesis.
var directiveRe = regexp.MustCompile(`^quest:allow\(([a-zA-Z0-9_-]*)\)\s*(.*)$`)

// allow is one parsed //quest:allow directive.
type allow struct {
	analyzer string
	reason   string
	pos      token.Position
	used     bool
}

// Result is the outcome of running a set of analyzers over one package (or,
// summed by questvet.Run, over a module).
type Result struct {
	// Active are the findings that must be fixed (or suppressed with a
	// reason): unsuppressed analyzer diagnostics plus directive problems.
	Active []Diagnostic
	// Suppressed are analyzer findings silenced by a well-formed
	// //quest:allow directive, with its reason.
	Suppressed []Suppressed
}

// Check runs the analyzers over pkg and applies //quest:allow suppression:
// a directive on the finding's line, or alone on the line directly above
// it, silences findings of the named analyzer. known lists every analyzer
// name the caller's suite defines (not just those scoped to this package),
// so directives for out-of-scope analyzers are tolerated while misspelled
// ones are flagged.
func Check(pkg *loader.Package, fset *token.FileSet, analyzers []*Analyzer, known []string) (Result, error) {
	var diags []Diagnostic
	for _, a := range analyzers {
		pass := &Pass{Analyzer: a, Fset: fset, Files: pkg.Files, Pkg: pkg, diags: &diags}
		if err := a.Run(pass); err != nil {
			return Result{}, fmt.Errorf("%s: %s: %w", a.Name, pkg.Path, err)
		}
	}

	allows, malformed := collectAllows(pkg, fset)
	res := Result{Active: malformed}

	ran := make(map[string]bool, len(analyzers))
	for _, a := range analyzers {
		ran[a.Name] = true
	}
	knownSet := make(map[string]bool, len(known))
	for _, n := range known {
		knownSet[n] = true
	}

	// Index allows by (file, line) for the two recognised placements.
	type key struct {
		file string
		line int
	}
	byLine := make(map[key][]*allow)
	for i := range allows {
		al := &allows[i]
		byLine[key{al.pos.Filename, al.pos.Line}] = append(byLine[key{al.pos.Filename, al.pos.Line}], al)
	}
	match := func(d Diagnostic) *allow {
		for _, line := range []int{d.Pos.Line, d.Pos.Line - 1} {
			for _, al := range byLine[key{d.Pos.Filename, line}] {
				if al.analyzer == d.Analyzer && al.reason != "" {
					return al
				}
			}
		}
		return nil
	}

	for _, d := range diags {
		if al := match(d); al != nil {
			al.used = true
			res.Suppressed = append(res.Suppressed, Suppressed{Diagnostic: d, Reason: al.reason})
			continue
		}
		res.Active = append(res.Active, d)
	}

	// Police the directives themselves.
	for i := range allows {
		al := &allows[i]
		switch {
		case al.reason == "":
			res.Active = append(res.Active, Diagnostic{
				Analyzer: DirectiveAnalyzer,
				Pos:      al.pos,
				Message:  fmt.Sprintf("suppression //quest:allow(%s) has no reason; justify it or remove it", al.analyzer),
			})
		case !knownSet[al.analyzer]:
			res.Active = append(res.Active, Diagnostic{
				Analyzer: DirectiveAnalyzer,
				Pos:      al.pos,
				Message:  fmt.Sprintf("suppression names unknown analyzer %q (known: %s)", al.analyzer, strings.Join(known, ", ")),
			})
		case ran[al.analyzer] && !al.used:
			res.Active = append(res.Active, Diagnostic{
				Analyzer: DirectiveAnalyzer,
				Pos:      al.pos,
				Message:  fmt.Sprintf("suppression //quest:allow(%s) matches no diagnostic here; remove it", al.analyzer),
			})
		}
	}

	sortDiags(res.Active)
	sort.SliceStable(res.Suppressed, func(i, j int) bool {
		return lessPos(res.Suppressed[i].Pos, res.Suppressed[j].Pos)
	})
	return res, nil
}

// collectAllows scans every comment of the package for //quest:allow
// directives. Comments that start with "quest:allow" but do not parse get a
// malformed-directive diagnostic instead of being silently inert.
func collectAllows(pkg *loader.Package, fset *token.FileSet) (allows []allow, malformed []Diagnostic) {
	for _, f := range pkg.Files {
		for _, cg := range f.Comments {
			for _, c := range cg.List {
				text, ok := strings.CutPrefix(c.Text, "//")
				if !ok {
					continue // block comments are never directives
				}
				if !strings.HasPrefix(strings.TrimSpace(text), "quest:allow") {
					continue
				}
				m := directiveRe.FindStringSubmatch(strings.TrimSpace(text))
				if m == nil || m[1] == "" {
					malformed = append(malformed, Diagnostic{
						Analyzer: DirectiveAnalyzer,
						Pos:      fset.Position(c.Pos()),
						Message:  "malformed suppression; use //quest:allow(<analyzer>) <reason>",
					})
					continue
				}
				allows = append(allows, allow{
					analyzer: m[1],
					reason:   strings.TrimSpace(m[2]),
					pos:      fset.Position(c.Pos()),
				})
			}
		}
	}
	return allows, malformed
}

func sortDiags(ds []Diagnostic) {
	sort.SliceStable(ds, func(i, j int) bool { return lessPos(ds[i].Pos, ds[j].Pos) })
}

func lessPos(a, b token.Position) bool {
	if a.Filename != b.Filename {
		return a.Filename < b.Filename
	}
	if a.Line != b.Line {
		return a.Line < b.Line
	}
	return a.Column < b.Column
}
