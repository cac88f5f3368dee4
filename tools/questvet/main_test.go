package main

import (
	"bytes"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// writeTree lays out a file tree under dir from path -> content.
func writeTree(t *testing.T, dir string, files map[string]string) {
	t.Helper()
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

// scopeDirs are the directories questvet's analyzer scopes name. A run
// fails on any of them that matches no package, so the skeleton gives each
// an empty one.
var scopeDirs = []string{
	"cmd", "tools",
	"internal/chart", "internal/clifford", "internal/concat", "internal/core",
	"internal/decoder", "internal/distill", "internal/dram", "internal/heatmap",
	"internal/ledger", "internal/master", "internal/mc", "internal/mce",
	"internal/metrics", "internal/noc", "internal/noise", "internal/surface",
	"internal/tracing",
}

// skeleton returns a minimal module with a package in every scope
// directory, so the scopes resolve and a clean tree really exits 0.
func skeleton() map[string]string {
	files := map[string]string{"go.mod": "module tmpmod\n\ngo 1.22\n"}
	for _, d := range scopeDirs {
		files[d+"/doc.go"] = "package " + filepath.Base(d) + "\n"
	}
	return files
}

const sinkSrc = `package ledger

type W struct{}

func (w *W) Write() error { return nil }
`

const dropSrc = `package app

import "tmpmod/internal/ledger"

func Use(w *ledger.W) { w.Write() }
`

const dropSrc2 = `package app

import "tmpmod/internal/ledger"

func Use2(w *ledger.W) { w.Write() }
`

func execIn(t *testing.T, dir string, args ...string) (int, string, string) {
	t.Helper()
	t.Chdir(dir)
	var out, errw bytes.Buffer
	code := command().Execute(args, &out, &errw)
	return code, out.String(), errw.String()
}

// TestQuestvetExitCodeContract pins the binary to the tools/internal/cli
// contract: 0 clean (or baseline-covered), 1 findings (or baseline drift),
// 2 could not run.
func TestQuestvetExitCodeContract(t *testing.T) {
	clean := t.TempDir()
	writeTree(t, clean, skeleton())

	dirty := t.TempDir()
	writeTree(t, dirty, skeleton())
	writeTree(t, dirty, map[string]string{
		"internal/ledger/ledger.go": sinkSrc,
		"app/app.go":                dropSrc,
	})

	// A renamed package leaves its scope directory matching nothing.
	renamed := t.TempDir()
	writeTree(t, renamed, skeleton())
	if err := os.RemoveAll(filepath.Join(renamed, "internal", "dram")); err != nil {
		t.Fatal(err)
	}

	cases := []struct {
		name string
		dir  string
		args []string
		want int
	}{
		{"clean tree", clean, nil, 0},
		{"scope directory matches no package", renamed, nil, 1},
		{"finding", dirty, nil, 1},
		{"finding in selected package", dirty, []string{"./app/..."}, 1},
		{"finding outside selection", dirty, []string{"./internal/mc"}, 0},
		{"pattern matches nothing", clean, []string{"./nonexistent"}, 2},
		{"missing baseline file", clean, []string{"-baseline", "absent.json"}, 2},
		{"unknown flag", clean, []string{"-nope"}, 2},
	}
	for _, tc := range cases {
		code, _, errw := execIn(t, tc.dir, tc.args...)
		if code != tc.want {
			t.Errorf("%s: exit %d, want %d (stderr: %s)", tc.name, code, tc.want, errw)
		}
	}
}

// TestQuestvetBaselineFlow pins the diff-aware gate end to end: regenerate
// a baseline over a dirty tree (exit 0), diff clean against it (exit 0),
// introduce a synthetic new finding (exit 1), fix the accepted finding so
// the baseline goes stale (exit 1).
func TestQuestvetBaselineFlow(t *testing.T) {
	dir := t.TempDir()
	writeTree(t, dir, skeleton())
	writeTree(t, dir, map[string]string{
		"internal/ledger/ledger.go": sinkSrc,
		"app/app.go":                dropSrc,
	})

	if code, _, errw := execIn(t, dir, "-write-baseline", "questvet-baseline.json"); code != 0 {
		t.Fatalf("write-baseline: exit %d, stderr: %s", code, errw)
	}
	if code, _, errw := execIn(t, dir, "-baseline", "questvet-baseline.json"); code != 0 {
		t.Fatalf("baseline-covered run: exit %d, stderr: %s", code, errw)
	}

	// A synthetic new finding fails the baseline run.
	writeTree(t, dir, map[string]string{"app/app2.go": dropSrc2})
	code, out, _ := execIn(t, dir, "-baseline", "questvet-baseline.json")
	if code != 1 {
		t.Fatalf("new finding vs baseline: exit %d, want 1", code)
	}
	if !strings.Contains(out, "new finding") {
		t.Errorf("output does not name the new finding:\n%s", out)
	}

	// Fixing the accepted finding leaves the baseline stale, which must
	// also fail until it is regenerated.
	if err := os.Remove(filepath.Join(dir, "app", "app2.go")); err != nil {
		t.Fatal(err)
	}
	writeTree(t, dir, map[string]string{"app/app.go": `package app
`})
	code, out, _ = execIn(t, dir, "-baseline", "questvet-baseline.json")
	if code != 1 || !strings.Contains(out, "stale baseline entry") {
		t.Fatalf("stale baseline: exit %d, output:\n%s", code, out)
	}
}
