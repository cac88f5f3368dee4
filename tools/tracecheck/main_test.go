package main

import (
	"bytes"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"quest/internal/bwprofile"
	"quest/internal/events"
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

// TestTracecheckExitCodeContract extends the tools/internal/cli exit-code
// contract to this binary: 0 valid (with the OK line), 1 findings (invalid
// trace, a -min-* floor not met), 2 unusable input (missing file, wrong
// arity, unknown flag).
func TestTracecheckExitCodeContract(t *testing.T) {
	dir := t.TempDir()
	good := writeFile(t, dir, "good.json", validTrace(t))
	empty := writeFile(t, dir, "empty.json", nil)

	var ev bytes.Buffer
	if err := events.NewWriter(&ev, nil).WriteHeader(events.Header{Experiment: "x", StartMs: 1}); err != nil {
		t.Fatal(err)
	}
	stream := writeFile(t, dir, "events.jsonl", ev.Bytes())

	var bw bytes.Buffer
	r := bwprofile.New(4)
	r.Observe(0, bwprofile.BusLogical, bwprofile.ClassPrep, 1, 2)
	if err := r.WriteJSONL(&bw, "x", nil); err != nil {
		t.Fatal(err)
	}
	profile := writeFile(t, dir, "bw.jsonl", bw.Bytes())

	for _, tc := range []struct {
		name string
		argv []string
		want int
	}{
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
	} {
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
