package questvet

import (
	"os"
	"path/filepath"
	"slices"
	"strings"
	"testing"

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
		// The checker tool and the commands emit byte-compared output, so
		// detrange covers them.
		{"detrange", "quest/tools/questcheck", true},
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
	pkgs := []*loader.Package{{Path: "quest/internal/mc"}, {Path: "quest/internal/decoder/sub"}, {Path: "quest/tools/questcheck"}}
	got := unresolvedDirs("quest", pkgs, []string{"internal/mc", "internal/decoder", "tools", "internal/nosuch", "internal/m"})
	if want := []string{"internal/nosuch", "internal/m"}; !slices.Equal(got, want) {
		t.Errorf("unresolvedDirs = %q, want %q", got, want)
	}
}

// skeleton writes a minimal module under dir with an empty package in every
// directory the suite's scopes name, so each scope resolves, plus the given
// extra files (path -> content).
func skeleton(t *testing.T, dir string, extra map[string]string) {
	t.Helper()
	files := map[string]string{"go.mod": "module tmpmod\n\ngo 1.22\n"}
	for _, sa := range Suite() {
		for _, d := range sa.Dirs {
			files[d+"/doc.go"] = "package " + filepath.Base(d) + "\n"
		}
	}
	for path, content := range extra {
		files[path] = content
	}
	for path, content := range files {
		full := filepath.Join(dir, filepath.FromSlash(path))
		if err := os.MkdirAll(filepath.Dir(full), 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(full, []byte(content), 0o644); err != nil {
			t.Fatal(err)
		}
	}
}

const sinkSrc = `package ledger

type W struct{}

func (w *W) Write() error { return nil }
`

// TestRunOnSkeletonModule pins Run's verdicts on small modules: a clean
// tree reports nothing; a dropped ledger write is one errsink finding, or
// one counted suppression under a reasoned //quest:allow; and a scope
// directory that matches no package (as after a rename) is a finding.
func TestRunOnSkeletonModule(t *testing.T) {
	for _, tc := range []struct {
		name           string
		extra          map[string]string
		remove         string // scope directory deleted after the skeleton is written
		want           string // substring of the one finding; "" = none
		wantSuppressed int
	}{
		{name: "clean tree"},
		{
			name: "finding",
			extra: map[string]string{"internal/ledger/ledger.go": sinkSrc, "app/app.go": `package app

import "tmpmod/internal/ledger"

func Use(w *ledger.W) { w.Write() }
`},
			want: "[errsink]",
		},
		{
			name: "suppressed finding",
			extra: map[string]string{"internal/ledger/ledger.go": sinkSrc, "app/app.go": `package app

import "tmpmod/internal/ledger"

func Use(w *ledger.W) {
	//quest:allow(errsink) the test drops this write on purpose
	w.Write()
}
`},
			wantSuppressed: 1,
		},
		{name: "scope directory matches no package", remove: "internal/dram", want: `scope directory "internal/dram" matches no package`},
	} {
		t.Run(tc.name, func(t *testing.T) {
			dir := t.TempDir()
			skeleton(t, dir, tc.extra)
			if tc.remove != "" {
				if err := os.RemoveAll(filepath.Join(dir, tc.remove)); err != nil {
					t.Fatal(err)
				}
			}
			prog, err := loader.NewProgram(dir)
			if err != nil {
				t.Fatal(err)
			}
			rep, err := Run(prog)
			if err != nil {
				t.Fatal(err)
			}
			switch {
			case tc.want == "" && len(rep.Active) != 0:
				t.Errorf("findings %v, want none", rep.Active)
			case tc.want != "" && (len(rep.Active) != 1 || !strings.Contains(rep.Active[0].String(), tc.want)):
				t.Errorf("findings %v, want one containing %q", rep.Active, tc.want)
			}
			if len(rep.Suppressed) != tc.wantSuppressed {
				t.Errorf("%d suppression(s), want %d", len(rep.Suppressed), tc.wantSuppressed)
			}
		})
	}
}

// allowCount is the number of //quest:allow suppressions in force in the
// module. The change that adds one raises it and says why; the change that
// removes one lowers it.
const allowCount = 15

// TestModuleClean is the lint gate: the suite over the whole module reports
// no finding and exactly allowCount suppressions. It logs each suppression
// with its reason; `go test -v -run TestModuleClean ./internal/lint/questvet`
// lists them.
func TestModuleClean(t *testing.T) {
	if testing.Short() {
		t.Skip("loads and type-checks the whole module")
	}
	root, err := loader.FindRoot(".")
	if err != nil {
		t.Fatal(err)
	}
	prog, err := loader.NewProgram(root)
	if err != nil {
		t.Fatal(err)
	}
	rep, err := Run(prog)
	if err != nil {
		t.Fatal(err)
	}
	for _, d := range rep.Active {
		t.Errorf("%s; fix it, or add //quest:allow(<analyzer>) <reason> and raise allowCount", d)
	}
	for _, s := range rep.Suppressed {
		t.Logf("%s: [%s] suppressed: %s (reason: %s)", s.Pos, s.Analyzer, s.Message, s.Reason)
	}
	if n := len(rep.Suppressed); n != allowCount {
		t.Errorf("%d //quest:allow suppression(s) in force, allowCount pins %d: set allowCount in the change that adds or removes one, and say why", n, allowCount)
	}
}
