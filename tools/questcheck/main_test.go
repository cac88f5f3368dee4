package main

import (
	"bytes"
	"fmt"
	"os"
	"path/filepath"
	"slices"
	"strings"
	"testing"

	"quest/internal/bwprofile"
	"quest/internal/heatmap"
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
	w, err := ledger.NewWriter(&buf, "questcheck-test", map[string]string{"trials": "3"})
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

// validProfile writes a quest-bw/1 profile through the recorder: a prep
// dispatch, a Clifford burst of peak bytes and seven µops replayed from
// cache, with the design in the header config when one is given.
func validProfile(t *testing.T, experiment, design string, peak uint64) []byte {
	t.Helper()
	r := bwprofile.New(4)
	r.Observe(0, bwprofile.BusLogical, bwprofile.ClassPrep, 1, 2)
	r.Observe(5, bwprofile.BusLogical, bwprofile.ClassClifford, peak/2, peak)
	r.Observe(6, bwprofile.BusReplay, bwprofile.ClassReplay, 7, 0)
	config := map[string]string{}
	if design != "" {
		config["design"] = design
	}
	var buf bytes.Buffer
	if err := r.WriteJSONL(&buf, experiment, config); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// validHeatmap writes a one-grid quest-heatmap/1 document through the set's
// JSON export.
func validHeatmap(t *testing.T) []byte {
	t.Helper()
	s := heatmap.NewSet()
	c := s.Collector(heatmap.GridName(3, 3), 3, 3)
	c.Defect(1, 1)
	c.MatchedBoundary(1, 1, 1)
	var buf bytes.Buffer
	if err := s.WriteJSON(&buf); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// otherArtifacts writes an empty file, a quest-events/1 stream (the retired
// telemetry schema, as older builds wrote its header line) and a valid
// quest-bw/1 profile: files that are neither a ledger nor a trace.
func otherArtifacts(t *testing.T, dir string) (empty, stream, profile string) {
	t.Helper()
	ev := []byte(`{"record":"header","schema":"quest-events/1","experiment":"x","go_version":"","host":"","pid":0,"start_ms":1}` + "\n")
	return writeFile(t, dir, "empty", nil), writeFile(t, dir, "events.jsonl", ev),
		writeFile(t, dir, "bw.jsonl", validProfile(t, "x", "", 8))
}

// runExitCases extends the tools/internal/cli exit-code contract to this
// binary: 0 valid (with an OK line), 1 findings (an invalid artifact, a
// floor not met), 2 unusable input (missing file, no file, unknown flag, a
// floor for a format no file has). A run that exits non-zero prints no OK
// line, even for the files that passed.
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
// ledger and its floors, and around what a run stopped mid-write leaves:
// the last cell's trial records with no summary, and a last line torn
// mid-record. A ledger floor on a file that is not a ledger is a usage
// error.
func TestQuestcheckLedgerExitCodeContract(t *testing.T) {
	dir := t.TempDir()
	data := validLedger(t)
	good := writeFile(t, dir, "good.jsonl", data)
	last := bytes.LastIndexByte(data[:len(data)-1], '\n') + 1 // start of the last cell's summary
	open := writeFile(t, dir, "open.jsonl", data[:last])
	torn := writeFile(t, dir, "torn.jsonl", data[:last+(len(data)-last)/2])
	empty, stream, profile := otherArtifacts(t, dir)
	runExitCases(t, []exitCase{
		{"valid ledger", []string{good}, 0},
		{"floors met", []string{"-min-cells", "2", "-min-trials", "6", good}, 0},
		{"min-cells above count", []string{"-min-cells", "3", good}, 1},
		{"min-trials above count", []string{"-min-trials", "7", good}, 1},
		{"last cell without summary", []string{open}, 1},
		{"torn last line", []string{torn}, 1},
		{"empty file", []string{empty}, 1},
		{"quest-events/1 stream", []string{stream}, 1},
		{"quest-bw/1 profile", []string{"-min-cells", "1", profile}, 2},
		{"missing file", []string{filepath.Join(dir, "absent.jsonl")}, 2},
		{"no arguments", nil, 2},
		{"two arguments", []string{good, good}, 0},
		{"unknown flag", []string{"-nope", good}, 2},
		{"trace floor on a ledger", []string{"-min-procs", "1", good}, 2},
	})
}

// TestQuestcheckTraceExitCodeContract pins the exit codes around a valid
// trace and its floors.
// A trace floor on a file that is not a trace is a usage error.
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
		{"quest-bw/1 profile", []string{"-min-events", "1", profile}, 2},
		{"missing file", []string{filepath.Join(dir, "absent.json")}, 2},
		{"no arguments", nil, 2},
		{"two arguments", []string{good, good}, 0},
		{"unknown flag", []string{"-nope", good}, 2},
		{"ledger floor on a trace", []string{"-min-cells", "1", good}, 2},
	})
}

// TestQuestcheckBWExitCodeContract pins the exit codes around a quest-bw/1
// profile: valid, one naming another schema, one cut before its summary,
// and the usage errors.
func TestQuestcheckBWExitCodeContract(t *testing.T) {
	dir := t.TempDir()
	data := validProfile(t, "questsim", "ram", 40)
	good := writeFile(t, dir, "good.jsonl", data)
	corrupt := writeFile(t, dir, "corrupt.jsonl", []byte(`{"record":"header","schema":"quest-other/9"}`+"\n"))
	last := bytes.LastIndexByte(data[:len(data)-1], '\n') + 1 // start of the summary
	cut := writeFile(t, dir, "cut.jsonl", data[:last])
	runExitCases(t, []exitCase{
		{"valid profile", []string{good}, 0},
		{"invalid schema", []string{corrupt}, 1},
		{"no summary", []string{cut}, 1},
		{"missing file", []string{filepath.Join(dir, "absent.jsonl")}, 2},
		{"no arguments", nil, 2},
		{"unknown flag", []string{"-nope", good}, 2},
	})
}

// TestQuestcheckBWComparisonLines pins the comparison questcheck prints for
// profiles of three designs: one OK line per file, in argument order, each
// with its burstiness and the µops the tile caches replayed, and each
// file's line the same bytes whatever the order of the arguments.
func TestQuestcheckBWComparisonLines(t *testing.T) {
	dir := t.TempDir()
	ram := writeFile(t, dir, "ram.jsonl", validProfile(t, "questsim", "ram", 40))
	fifo := writeFile(t, dir, "fifo.jsonl", validProfile(t, "questsim", "fifo", 20))
	unit := writeFile(t, dir, "unitcell.jsonl", validProfile(t, "questsim", "unitcell", 10))
	run := func(argv ...string) []string {
		t.Helper()
		var out, errw strings.Builder
		if code := command().Execute(argv, &out, &errw); code != 0 {
			t.Fatalf("exit %d, stderr:\n%s", code, errw.String())
		}
		return strings.Split(strings.TrimSuffix(out.String(), "\n"), "\n")
	}
	got := run(unit, ram, fifo)
	if len(got) != 3 {
		t.Fatalf("%d line(s), want 3:\n%s", len(got), strings.Join(got, "\n"))
	}
	for i, design := range []string{"unitcell", "ram", "fifo"} {
		if !strings.Contains(got[i], `bandwidth profile of design "`+design+`"`) {
			t.Errorf("line %d does not name design %q: %s", i, design, got[i])
		}
		for _, want := range []string{", burstiness ", ", 7 µop(s) replayed from cache"} {
			if !strings.Contains(got[i], want) {
				t.Errorf("line %d has no %q: %s", i, want, got[i])
			}
		}
	}
	reordered := run(ram, fifo, unit)
	if want := []string{got[1], got[2], got[0]}; !slices.Equal(reordered, want) {
		t.Errorf("reordered run:\n%s\nwant the same lines in argument order:\n%s",
			strings.Join(reordered, "\n"), strings.Join(want, "\n"))
	}
}

// TestQuestcheckBWLineNamesDesign pins a profile's OK line: keyed by the
// microcode design when the header carries one and by the experiment
// otherwise, with the window statistics, the burstiness and the µops the
// tile caches replayed.
func TestQuestcheckBWLineNamesDesign(t *testing.T) {
	dir := t.TempDir()
	ram := writeFile(t, dir, "ram.jsonl", validProfile(t, "questsim", "ram", 40))
	plain := writeFile(t, dir, "plain.jsonl", validProfile(t, "questbench", "", 8))
	var out, errw strings.Builder
	if code := command().Execute([]string{ram, plain}, &out, &errw); code != 0 {
		t.Fatalf("exit %d, stderr:\n%s", code, errw.String())
	}
	want := []string{
		"questcheck: " + ram + ` OK — bandwidth profile of design "ram", 2 window(s), 42 B total, 40 B peak, 21.0 B sustained, p50 2 B, p99 40 B, burstiness 1.90, 7 µop(s) replayed from cache`,
		"questcheck: " + plain + ` OK — bandwidth profile of experiment "questbench", 2 window(s), 10 B total, 8 B peak, 5.0 B sustained, p50 2 B, p99 8 B, burstiness 1.60, 7 µop(s) replayed from cache`,
	}
	if got := strings.Split(strings.TrimSuffix(out.String(), "\n"), "\n"); !slices.Equal(got, want) {
		t.Errorf("stdout:\n%s\nwant:\n%s", strings.Join(got, "\n"), strings.Join(want, "\n"))
	}
}

// TestQuestcheckHeatmapExitCodeContract pins the exit codes around a
// quest-heatmap/1 document: valid with a grid or with none (a run whose
// sweep recorded no lattice), and invalid under another schema version or
// cut short.
func TestQuestcheckHeatmapExitCodeContract(t *testing.T) {
	dir := t.TempDir()
	data := validHeatmap(t)
	var none bytes.Buffer
	if err := heatmap.NewSet().WriteJSON(&none); err != nil {
		t.Fatal(err)
	}
	good := writeFile(t, dir, "heat.json", data)
	runExitCases(t, []exitCase{
		{"valid heatmap", []string{good}, 0},
		{"no grids", []string{writeFile(t, dir, "none.json", none.Bytes())}, 0},
		{"other schema version", []string{writeFile(t, dir, "v9.json", []byte(`{"schema":"quest-heatmap/9","grids":[]}`))}, 1},
		{"cut short", []string{writeFile(t, dir, "cut.json", data[:len(data)/2])}, 1},
		{"ledger floor on a heatmap", []string{"-min-trials", "1", good}, 2},
	})
}

// TestQuestcheckManyFiles pins a run over one file of each kind: each is
// validated by its own format, every floor applies to the files of its
// format, and one invalid file fails the run before any OK line prints.
func TestQuestcheckManyFiles(t *testing.T) {
	dir := t.TempDir()
	ledgerPath := writeFile(t, dir, "run.jsonl", validLedger(t))
	trace := writeFile(t, dir, "trace.json", validTrace(t))
	heat := writeFile(t, dir, "heat.json", validHeatmap(t))
	profile := writeFile(t, dir, "bw.jsonl", validProfile(t, "questbench", "", 8))
	empty, _, _ := otherArtifacts(t, dir)
	all := []string{ledgerPath, trace, heat, profile}
	runExitCases(t, []exitCase{
		{"one of each", all, 0},
		{"every floor met", append([]string{"-min-cells", "2", "-min-trials", "6", "-min-procs", "2", "-min-events", "3"}, all...), 0},
		{"a ledger floor not met", append([]string{"-min-cells", "3"}, all...), 1},
		{"one invalid file", append(all, empty), 1},
		{"trace floor with no trace", []string{"-min-procs", "1", ledgerPath, heat, profile}, 2},
	})
	var out, errw strings.Builder
	if code := command().Execute(all, &out, &errw); code != 0 {
		t.Fatalf("exit %d, stderr:\n%s", code, errw.String())
	}
	for _, want := range []string{" OK — ledger of experiment ", " OK — trace, 3 event(s)", " OK — heatmap, 1 grid(s)", " OK — bandwidth profile of "} {
		if !strings.Contains(out.String(), want) {
			t.Errorf("stdout has no %q:\n%s", want, out.String())
		}
	}
}
