package questvet

import (
	"encoding/json"
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
	suite := Suite(nil)
	if len(suite) != 6 {
		t.Fatalf("suite has %d analyzers, want 6", len(suite))
	}
	got := strings.Join(Names(), ",")
	if got != "detrange,errsink,gateflow,hotalloc,schemaver,seedsrc" {
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
	for _, sa := range Suite(nil) {
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
		{"schemaver", "quest/tools/questcheck", true},
		{"schemaver", "quest", true},
		{"errsink", "quest/internal/core", true},
		{"gateflow", "quest/internal/mc", true},
		{"hotalloc", "quest/internal/decoder", true},
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
		Analyzer: "gateflow", Pos: token.Position{Filename: "/mod/b/b.go", Line: 3}, Message: "ungated",
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

func TestParseBudgets(t *testing.T) {
	good := `{"schema":"quest-lint-budget/1","budgets":[{"root":"internal/mc.RunBatch","max_sites":9,"bench_allocs":8}]}`
	budgets, err := ParseBudgets([]byte(good))
	if err != nil || len(budgets) != 1 || budgets[0].MaxSites != 9 || budgets[0].BenchAllocs != 8 {
		t.Fatalf("ParseBudgets = %+v, %v", budgets, err)
	}
	for _, bad := range []string{
		`{"schema":"quest-ledger/1","budgets":[]}`,
		`{"schema":"quest-lint-budget/1","budgets":[{"root":"","max_sites":8}]}`,
		`{"schema":"quest-lint-budget/1","budgets":[{"root":"x.F","max_sites":0}]}`,
	} {
		if _, err := ParseBudgets([]byte(bad)); err == nil {
			t.Errorf("accepted bad budgets %s", bad)
		}
	}
}

func TestWriteJSONShape(t *testing.T) {
	var b strings.Builder
	if err := testReport().WriteJSON(&b); err != nil {
		t.Fatal(err)
	}
	var doc struct {
		Schema      string `json:"schema"`
		Diagnostics []struct {
			Analyzer, File, Message string
			Line                    int
		} `json:"diagnostics"`
		Suppressions []struct{ Reason string } `json:"suppressions"`
	}
	if err := json.Unmarshal([]byte(b.String()), &doc); err != nil {
		t.Fatal(err)
	}
	if doc.Schema != ReportSchema {
		t.Fatalf("schema %q", doc.Schema)
	}
	if len(doc.Diagnostics) != 1 || doc.Diagnostics[0].File != "a/a.go" || doc.Diagnostics[0].Line != 10 {
		t.Fatalf("diagnostics %+v", doc.Diagnostics)
	}
	if len(doc.Suppressions) != 1 || doc.Suppressions[0].Reason != "ok" {
		t.Fatalf("suppressions %+v", doc.Suppressions)
	}
}

func TestWriteSARIFShape(t *testing.T) {
	var b strings.Builder
	if err := testReport().WriteSARIF(&b); err != nil {
		t.Fatal(err)
	}
	var doc struct {
		Version string `json:"version"`
		Runs    []struct {
			Tool struct {
				Driver struct {
					Name  string
					Rules []struct{ ID string }
				}
			}
			Results []struct {
				RuleID    string `json:"ruleId"`
				Locations []struct {
					PhysicalLocation struct {
						ArtifactLocation struct{ URI string }
					}
				}
			}
		}
	}
	if err := json.Unmarshal([]byte(b.String()), &doc); err != nil {
		t.Fatal(err)
	}
	if doc.Version != "2.1.0" || len(doc.Runs) != 1 {
		t.Fatalf("sarif shape: %s", b.String())
	}
	run := doc.Runs[0]
	if run.Tool.Driver.Name != "questvet" || len(run.Results) != 1 {
		t.Fatalf("sarif run: %+v", run)
	}
	if got := run.Results[0].Locations[0].PhysicalLocation.ArtifactLocation.URI; got != "a/a.go" {
		t.Fatalf("sarif uri %q", got)
	}
}

// TestModuleCleanAgainstBaseline is the tier-1 pin for the ISSUE's
// acceptance bullet: the full suite over the real module, diffed against
// the committed baseline, reports zero problems; and the committed budget
// file cross-checks the runtime bench pins (mc.RunBatch 8 allocs/call,
// decoder exact-match ≤ 6 allocs/op).
func TestModuleCleanAgainstBaseline(t *testing.T) {
	if testing.Short() {
		t.Skip("loads and type-checks the whole module")
	}
	root, err := loader.FindRoot(".")
	if err != nil {
		t.Fatal(err)
	}
	budgetData, err := os.ReadFile(filepath.Join(root, "questvet-budgets.json"))
	if err != nil {
		t.Fatal(err)
	}
	budgets, err := ParseBudgets(budgetData)
	if err != nil {
		t.Fatal(err)
	}
	// The budget file must carry the two bench-pinned entry points with the
	// pins' exact values (TestRunAllocs in internal/mc,
	// TestMatchHeatOffAllocs in internal/decoder). If a pin changes, both
	// files change together, in review.
	pins := map[string]int{
		"internal/mc.RunBatch":                    8,
		"internal/decoder.(*GlobalDecoder).Match": 6,
	}
	for root, want := range pins {
		found := false
		for _, b := range budgets {
			if b.Root == root {
				found = true
				if b.BenchAllocs != want {
					t.Errorf("budget %s bench_allocs = %d, want %d (the runtime pin)", root, b.BenchAllocs, want)
				}
			}
		}
		if !found {
			t.Errorf("questvet-budgets.json has no entry for bench-pinned root %s", root)
		}
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
	rep, err := Run(prog, pkgs, Options{Budgets: budgets})
	if err != nil {
		t.Fatal(err)
	}
	for _, p := range rep.Diff(base) {
		t.Errorf("baseline drift: %s", p)
	}
}
