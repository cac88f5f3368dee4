package main

import (
	"bytes"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"quest/internal/bwprofile"
	"quest/internal/events"
	"quest/internal/ledger"
	"quest/internal/tracing"
)

// writeFile writes data to dir/name and returns its path.
func writeFile(t *testing.T, dir, name string, data []byte) string {
	t.Helper()
	path := filepath.Join(dir, name)
	if err := os.WriteFile(path, data, 0o644); err != nil {
		t.Fatal(err)
	}
	return path
}

// validLedger writes two cells of three trial records each through the
// ledger writer.
func validLedger(t *testing.T) []byte {
	t.Helper()
	var buf bytes.Buffer
	w, err := ledger.NewWriter(&buf, "questcheck-test", map[string]string{"trials": "3"}, ledger.ShardInfo{})
	if err != nil {
		t.Fatal(err)
	}
	for c := 0; c < 2; c++ {
		cell := fmt.Sprintf("cell-%d", c)
		for i := 0; i < 3; i++ {
			if err := w.WriteTrial(ledger.Trial{Cell: cell, Trial: i, Seed: ledger.SeedString(uint64(10*c + i))}); err != nil {
				t.Fatal(err)
			}
		}
		if err := w.WriteCell(ledger.Cell{
			Cell: cell, Seed: ledger.SeedString(uint64(c)), Budget: 3, Trials: 3, WilsonHi: 0.5,
		}); err != nil {
			t.Fatal(err)
		}
	}
	if err := w.Flush(); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// validTrace writes three events on two component tracks through the
// tracer's Chrome trace-event export.
func validTrace(t *testing.T) []byte {
	t.Helper()
	tr := tracing.New(16)
	tr.Span("master", 0, "step", 0, 1)
	tr.Span("master", 0, "step", 1, 1)
	tr.Instant("mce", 0, "tick", 1)
	var buf bytes.Buffer
	if err := tr.WriteJSON(&buf); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

type exitCase struct {
	name string
	argv []string
	want int
}

// otherArtifacts writes an empty file, a quest-events/1 stream and a
// quest-bw/1 profile: files neither a ledger nor a trace.
func otherArtifacts(t *testing.T, dir string) (empty, stream, profile string) {
	t.Helper()
	var ev bytes.Buffer
	if err := events.NewWriter(&ev, nil).WriteHeader(events.Header{Experiment: "x", StartMs: 1}); err != nil {
		t.Fatal(err)
	}
	var bw bytes.Buffer
	r := bwprofile.New(4)
	r.Observe(0, bwprofile.BusLogical, bwprofile.ClassPrep, 1, 2)
	if err := r.WriteJSONL(&bw, "x", nil); err != nil {
		t.Fatal(err)
	}
	return writeFile(t, dir, "empty", nil), writeFile(t, dir, "events.jsonl", ev.Bytes()), writeFile(t, dir, "bw.jsonl", bw.Bytes())
}

// runExitCases extends the tools/internal/cli exit-code contract to this
// binary: 0 valid (with the OK line), 1 findings (invalid artifact, a floor
// not met), 2 unusable input (missing file, wrong arity, unknown flag, a
// floor for the other format).
func runExitCases(t *testing.T, cases []exitCase) {
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			var out, errw strings.Builder
			if got := command().Execute(tc.argv, &out, &errw); got != tc.want {
				t.Fatalf("exit %d, want %d (stderr: %s)", got, tc.want, errw.String())
			}
			if ok := strings.Contains(out.String(), " OK — "); ok != (tc.want == 0) {
				t.Errorf("stdout %q: OK line printed = %v, want %v", out.String(), ok, tc.want == 0)
			}
		})
	}
}

// TestQuestcheckLedgerExitCodeContract pins the exit codes around a valid
// ledger and its floors.
func TestQuestcheckLedgerExitCodeContract(t *testing.T) {
	dir := t.TempDir()
	good := writeFile(t, dir, "good.jsonl", validLedger(t))
	empty, stream, profile := otherArtifacts(t, dir)
	runExitCases(t, []exitCase{
		{"valid ledger", []string{good}, 0},
		{"floors met", []string{"-min-cells", "2", "-min-trials", "6", good}, 0},
		{"min-cells above count", []string{"-min-cells", "3", good}, 1},
		{"min-trials above count", []string{"-min-trials", "7", good}, 1},
		{"empty file", []string{empty}, 1},
		{"quest-events/1 stream", []string{stream}, 1},
		{"quest-bw/1 profile", []string{profile}, 1},
		{"missing file", []string{filepath.Join(dir, "absent.jsonl")}, 2},
		{"no arguments", nil, 2},
		{"two arguments", []string{good, good}, 2},
		{"unknown flag", []string{"-nope", good}, 2},
		{"trace floor on a ledger", []string{"-min-procs", "1", good}, 2},
	})
}

// TestQuestcheckTraceExitCodeContract pins the exit codes around a valid
// trace and its floors.
func TestQuestcheckTraceExitCodeContract(t *testing.T) {
	dir := t.TempDir()
	good := writeFile(t, dir, "good.json", validTrace(t))
	empty, stream, profile := otherArtifacts(t, dir)
	runExitCases(t, []exitCase{
		{"valid trace", []string{good}, 0},
		{"floors met", []string{"-min-procs", "2", "-min-events", "3", good}, 0},
		{"min-procs above count", []string{"-min-procs", "3", good}, 1},
		{"min-events above count", []string{"-min-events", "4", good}, 1},
		{"empty file", []string{empty}, 1},
		{"quest-events/1 stream", []string{stream}, 1},
		{"quest-bw/1 profile", []string{profile}, 1},
		{"missing file", []string{filepath.Join(dir, "absent.json")}, 2},
		{"no arguments", nil, 2},
		{"two arguments", []string{good, good}, 2},
		{"unknown flag", []string{"-nope", good}, 2},
		{"ledger floor on a trace", []string{"-min-cells", "1", good}, 2},
	})
}
