package questvet

import (
	"go/token"
	"os"
	"path/filepath"
	"slices"
	"strings"
	"testing"

	"quest/internal/lint/analysis"
	"quest/internal/lint/loader"
)

func TestSuiteNamesAndScopes(t *testing.T) {
	suite := Suite()
	if len(suite) != 3 {
		t.Fatalf("suite has %d analyzers, want 3", len(suite))
	}
	got := strings.Join(Names(), ",")
	if got != "detrange,errsink,seedsrc" {
		t.Fatalf("Names() = %s", got)
	}
	for _, sa := range suite {
		if sa.Analyzer.Doc == "" {
			t.Errorf("%s has no doc", sa.Analyzer.Name)
		}
	}
}

func TestAppliesScoping(t *testing.T) {
	byName := map[string]ScopedAnalyzer{}
	for _, sa := range Suite() {
		byName[sa.Analyzer.Name] = sa
	}
	cases := []struct {
		analyzer, path string
		want           bool
	}{
		{"detrange", "quest/internal/mc", true},
		{"detrange", "quest/internal/noc", true},
		{"detrange", "quest/internal/mce", false},
		// Checker tools and commands emit CI-diffed output, so detrange
		// covers them now.
		{"detrange", "quest/tools/bwreport", true},
		{"detrange", "quest/cmd/questsim", true},
		{"seedsrc", "quest/internal/mce", true},
		{"seedsrc", "quest/internal/noise", true},
		{"seedsrc", "quest/internal/chart", false},
		{"seedsrc", "quest/internal/ledger", false},
		// Subpackages inherit their parent directory's scope.
		{"seedsrc", "quest/internal/decoder/sub", true},
		// Whole-module analyzers apply everywhere, tools included.
		{"errsink", "quest/tools/questcheck", true},
		{"errsink", "quest", true},
		{"errsink", "quest/internal/core", true},
	}
	for _, c := range cases {
		sa, ok := byName[c.analyzer]
		if !ok {
			t.Fatalf("no analyzer %s", c.analyzer)
		}
		if got := sa.Applies("quest", c.path); got != c.want {
			t.Errorf("%s.Applies(%q) = %v, want %v", c.analyzer, c.path, got, c.want)
		}
	}
}

// TestUnresolvedDirs pins the resolver behind the scope check in Run: a
// directory resolves when some package lies at or under it, and a renamed
// one is reported rather than silently matching nothing.
func TestUnresolvedDirs(t *testing.T) {
	pkgs := []*loader.Package{{Path: "quest/internal/mc"}, {Path: "quest/internal/decoder/sub"}, {Path: "quest/tools/bwreport"}}
	got := unresolvedDirs("quest", pkgs, []string{"internal/mc", "internal/decoder", "tools", "internal/nosuch", "internal/m"})
	if want := []string{"internal/nosuch", "internal/m"}; !slices.Equal(got, want) {
		t.Errorf("unresolvedDirs = %q, want %q", got, want)
	}
}

func TestReportWriteCounts(t *testing.T) {
	rep := Report{
		Active: []analysis.Diagnostic{{Analyzer: "detrange", Message: "x"}},
		Suppressed: []analysis.Suppressed{
			{Diagnostic: analysis.Diagnostic{Analyzer: "seedsrc", Message: "y"}, Reason: "z"},
		},
	}
	var b strings.Builder
	if n := rep.Write(&b, true); n != 1 {
		t.Fatalf("Write returned %d, want 1", n)
	}
	out := b.String()
	for _, want := range []string{"questvet: 1 diagnostic(s), 1 suppression(s) in force", "suppressed: y (reason: z)"} {
		if !strings.Contains(out, want) {
			t.Errorf("output missing %q:\n%s", want, out)
		}
	}
}

func testReport() Report {
	return Report{
		Root:   "/mod",
		Module: "quest",
		Active: []analysis.Diagnostic{
			{Analyzer: "errsink", Pos: token.Position{Filename: "/mod/a/a.go", Line: 10, Column: 2}, Message: "dropped"},
		},
		Suppressed: []analysis.Suppressed{
			{Diagnostic: analysis.Diagnostic{Analyzer: "seedsrc"}, Reason: "ok"},
		},
	}
}

func TestBaselineDiff(t *testing.T) {
	rep := testReport()
	base := rep.MakeBaseline()
	if base.Suppressions != 1 || len(base.Findings) != 1 {
		t.Fatalf("baseline = %+v", base)
	}
	if base.Findings[0].File != "a/a.go" {
		t.Fatalf("baseline file %q, want module-relative a/a.go", base.Findings[0].File)
	}

	// A report matching its own baseline diffs clean.
	if probs := rep.Diff(base); len(probs) != 0 {
		t.Fatalf("self-diff problems: %v", probs)
	}

	// A new finding (not in the baseline) is a problem even when the old
	// one still matches.
	grown := rep
	grown.Active = append(grown.Active, analysis.Diagnostic{
		Analyzer: "detrange", Pos: token.Position{Filename: "/mod/b/b.go", Line: 3}, Message: "range over map",
	})
	probs := grown.Diff(base)
	if len(probs) != 1 || !strings.Contains(probs[0], "new finding") {
		t.Fatalf("grown diff = %v, want one new-finding problem", probs)
	}

	// Line moves do not churn the diff: the key has no line number.
	moved := testReport()
	moved.Active[0].Pos.Line = 99
	if probs := moved.Diff(base); len(probs) != 0 {
		t.Fatalf("moved-line diff problems: %v", probs)
	}

	// A fixed finding leaves a stale baseline entry, which must also fail
	// (the file stays honest).
	fixed := testReport()
	fixed.Active = nil
	probs = fixed.Diff(base)
	if len(probs) != 1 || !strings.Contains(probs[0], "stale baseline entry") {
		t.Fatalf("fixed diff = %v, want one stale-entry problem", probs)
	}

	// Suppression drift in either direction is a problem: the count is an
	// exact pin, not a maximum.
	for _, n := range []int{0, 2} {
		drift := testReport()
		drift.Suppressed = make([]analysis.Suppressed, n)
		probs := drift.Diff(base)
		if len(probs) != 1 || !strings.Contains(probs[0], "suppression count") {
			t.Fatalf("suppressions=%d diff = %v, want one count problem", n, probs)
		}
	}
}

func TestBaselineRoundTrip(t *testing.T) {
	base := testReport().MakeBaseline()
	var b strings.Builder
	if err := base.Write(&b); err != nil {
		t.Fatal(err)
	}
	got, err := ParseBaseline([]byte(b.String()))
	if err != nil {
		t.Fatal(err)
	}
	if got.Suppressions != base.Suppressions || len(got.Findings) != len(base.Findings) {
		t.Fatalf("round trip %+v != %+v", got, base)
	}
	if _, err := ParseBaseline([]byte(`{"schema":"quest-lint-baseline/999"}`)); err == nil {
		t.Fatal("wrong schema accepted")
	}
}

// TestModuleCleanAgainstBaseline is the tier-1 pin of the lint gate: the
// full suite over the real module, diffed against the committed baseline,
// reports zero problems.
func TestModuleCleanAgainstBaseline(t *testing.T) {
	if testing.Short() {
		t.Skip("loads and type-checks the whole module")
	}
	root, err := loader.FindRoot(".")
	if err != nil {
		t.Fatal(err)
	}
	baseData, err := os.ReadFile(filepath.Join(root, "questvet-baseline.json"))
	if err != nil {
		t.Fatal(err)
	}
	base, err := ParseBaseline(baseData)
	if err != nil {
		t.Fatal(err)
	}

	prog, err := loader.NewProgram(root)
	if err != nil {
		t.Fatal(err)
	}
	pkgs, err := prog.LoadModule()
	if err != nil {
		t.Fatal(err)
	}
	rep, err := Run(prog, pkgs)
	if err != nil {
		t.Fatal(err)
	}
	for _, p := range rep.Diff(base) {
		t.Errorf("baseline drift: %s", p)
	}
}
