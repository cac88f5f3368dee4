package main

import (
	"bytes"
	"fmt"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"quest/internal/events"
)

// writeEventStream fabricates one shard's event stream: a header with the
// given identity and two snapshots over the named cells (the second marks
// every cell half done with a live rate), and returns its path.
func writeEventStream(t *testing.T, dir, name, experiment string, index, count int, cells ...string) string {
	t.Helper()
	var buf bytes.Buffer
	w := events.NewWriter(&buf, nil)
	if err := w.WriteHeader(events.Header{
		Experiment: experiment, GoVersion: "go-test", Host: "host-" + name, PID: 100 + index,
		ShardIndex: index, ShardCount: count, StartMs: 1_000,
	}); err != nil {
		t.Fatal(err)
	}
	for seq, frac := range []int{0, 50} {
		snap := events.Snapshot{Seq: seq + 1, Ms: int64(seq) * 250}
		for _, cell := range cells {
			snap.Cells = append(snap.Cells, events.CellProgress{
				Cell: cell, Completed: frac, Budget: 100, Failures: frac / 10,
				WilsonLo: 0.05, WilsonHi: 0.05 + 0.01*float64(index+1),
				RatePerSec: float64(200 * (index + 1)), EtaMs: 500,
			})
		}
		if err := w.WriteSnapshot(snap); err != nil {
			t.Fatal(err)
		}
	}
	path := filepath.Join(dir, name+".jsonl")
	if err := os.WriteFile(path, buf.Bytes(), 0o644); err != nil {
		t.Fatal(err)
	}
	return path
}

// TestQuesttopExitCodeContract extends the tools/internal/cli exit-code
// contract to this binary: 0 clean, 1 findings (invalid stream, incoherent
// fleet), 2 unusable input (missing file, no arguments, unknown flag).
func TestQuesttopExitCodeContract(t *testing.T) {
	dir := t.TempDir()
	s0 := writeEventStream(t, dir, "shard0", "exit-test", 0, 2, "cell-a")
	s1 := writeEventStream(t, dir, "shard1", "exit-test", 1, 2, "cell-b")
	otherExp := writeEventStream(t, dir, "other-exp", "different", 1, 2, "cell-b")
	otherCount := writeEventStream(t, dir, "other-count", "exit-test", 1, 3, "cell-b")

	badSchema := filepath.Join(dir, "bad-schema.jsonl")
	if err := os.WriteFile(badSchema,
		[]byte(`{"record":"header","schema":"quest-events/99","experiment":"exit-test","start_ms":1}`+"\n"), 0o644); err != nil {
		t.Fatal(err)
	}
	torn := filepath.Join(dir, "torn.jsonl")
	data, err := os.ReadFile(s0)
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(torn, append(data, []byte(`{"record":"snapsh`)...), 0o644); err != nil {
		t.Fatal(err)
	}

	cases := []struct {
		name string
		argv []string
		want int
	}{
		// Every run checks its inputs; a clean fleet passes that check
		// whichever shard comes first and so serves as the reference.
		{"clean check", []string{s1, s0}, 0},
		{"clean aggregate", []string{s0, s1}, 0},
		{"single stream", []string{s0}, 0},
		{"torn final line tolerated", []string{torn, s1}, 0},
		{"wrong schema", []string{badSchema}, 1},
		{"mismatched experiment", []string{s0, otherExp}, 1},
		{"mismatched shard count", []string{s0, otherCount}, 1},
		{"duplicate shard index", []string{s0, s0}, 1},
		{"missing file", []string{filepath.Join(dir, "nope.jsonl")}, 2},
		{"no arguments", nil, 2},
		{"unknown flag", []string{"-nope", s0}, 2},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			var out, errw strings.Builder
			if got := command().Execute(tc.argv, &out, &errw); got != tc.want {
				t.Errorf("exit %d, want %d (stderr: %s)", got, tc.want, errw.String())
			}
		})
	}
}

// TestQuesttopArrivalOrderDeterminism pins the acceptance invariant: the
// aggregate view is byte-identical for any ordering of the same shard
// streams, because rows sort by shard identity rather than argv position.
func TestQuesttopArrivalOrderDeterminism(t *testing.T) {
	dir := t.TempDir()
	s0 := writeEventStream(t, dir, "shard0", "order-test", 0, 3, "cell-a", "cell-b")
	s1 := writeEventStream(t, dir, "shard1", "order-test", 1, 3, "cell-c")
	s2 := writeEventStream(t, dir, "shard2", "order-test", 2, 3, "cell-d")

	orders := [][]string{{s0, s1, s2}, {s2, s0, s1}, {s1, s2, s0}}
	var first string
	for i, argv := range orders {
		var out, errw strings.Builder
		if got := command().Execute(argv, &out, &errw); got != 0 {
			t.Fatalf("order %d: exit %d (stderr: %s)", i, got, errw.String())
		}
		if i == 0 {
			first = out.String()
			continue
		}
		if out.String() != first {
			t.Errorf("order %d renders different bytes:\n--- first ---\n%s--- got ---\n%s", i, first, out.String())
		}
	}

	// The fleet totals sum across shards: rates are 200/400/600 trials/s per
	// cell, shard 0 carries two cells, so the total is 2*200+400+600.
	if !strings.Contains(first, "1400.0") {
		t.Errorf("aggregate %q does not sum the fleet rate to 1400.0", first)
	}
	// The CI frontier is the widest unfinished interval: shard 2's cells have
	// width 0.03.
	if !strings.Contains(first, `ci frontier:  "cell-d"`) || !strings.Contains(first, "width 0.0300") {
		t.Errorf("aggregate %q does not surface shard 2's cell as the CI frontier", first)
	}
	// The slowest unfinished cell is one of shard 0's 200 trials/s cells.
	if !strings.Contains(first, `slowest cell: "cell-a"`) {
		t.Errorf("aggregate %q does not surface shard 0's cell-a as slowest", first)
	}
}

// TestQuesttopReadsSSEURL pins the http source path: an /events endpoint
// serving SSE frames is unwrapped back to JSONL and validated like a file.
func TestQuesttopReadsSSEURL(t *testing.T) {
	dir := t.TempDir()
	path := writeEventStream(t, dir, "shard0", "sse-test", 0, 1, "cell-a")
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Content-Type", "text/event-stream")
		for _, line := range strings.Split(strings.TrimSpace(string(data)), "\n") {
			fmt.Fprintf(w, "data: %s\n\n", line)
		}
	}))
	defer srv.Close()

	var out, errw strings.Builder
	if got := command().Execute([]string{"-for", "2s", srv.URL}, &out, &errw); got != 0 {
		t.Fatalf("exit %d (stderr: %s)", got, errw.String())
	}
	if !strings.Contains(out.String(), `experiment "sse-test"`) {
		t.Errorf("output %q does not name the experiment", out.String())
	}

	unreachable := "http://127.0.0.1:1/events"
	var out2, errw2 strings.Builder
	if got := command().Execute([]string{"-for", "100ms", unreachable}, &out2, &errw2); got != 2 {
		t.Errorf("unreachable URL: exit %d, want 2 (stderr: %s)", got, errw2.String())
	}
}

// TestQuesttopLateSSEJoinValidatesAsTail pins the live-source semantics: a
// subscriber joining mid-run sees the replayed header but snapshots from
// the current seq (with gaps where the broadcaster dropped frames). That
// capture must validate as a URL source, while the same bytes read from a
// file fail the stricter gap-free-from-1 invariant.
func TestQuesttopLateSSEJoinValidatesAsTail(t *testing.T) {
	lines := []string{
		`{"record":"header","schema":"quest-events/1","experiment":"late-join","start_ms":1}`,
		`{"record":"snapshot","seq":33,"ms":8000,"runtime":{}}`,
		`{"record":"snapshot","seq":36,"ms":8750,"runtime":{}}`,
	}
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Content-Type", "text/event-stream")
		for _, line := range lines {
			fmt.Fprintf(w, "data: %s\n\n", line)
		}
	}))
	defer srv.Close()

	var out, errw strings.Builder
	if got := command().Execute([]string{"-for", "2s", srv.URL}, &out, &errw); got != 0 {
		t.Errorf("late-join URL: exit %d, want 0 (stderr: %s)", got, errw.String())
	}

	path := filepath.Join(t.TempDir(), "tail.jsonl")
	if err := os.WriteFile(path, []byte(strings.Join(lines, "\n")+"\n"), 0o644); err != nil {
		t.Fatal(err)
	}
	var out2, errw2 strings.Builder
	if got := command().Execute([]string{path}, &out2, &errw2); got != 1 {
		t.Errorf("mid-run capture as file: exit %d, want 1 (stderr: %s)", got, errw2.String())
	}
}

// TestQuesttopAllDone pins the fully-converged rendering: when every cell
// is done there is no slowest cell or CI frontier to report.
func TestQuesttopAllDone(t *testing.T) {
	dir := t.TempDir()
	var buf bytes.Buffer
	w := events.NewWriter(&buf, nil)
	if err := w.WriteHeader(events.Header{Experiment: "done-test", StartMs: 1}); err != nil {
		t.Fatal(err)
	}
	if err := w.WriteSnapshot(events.Snapshot{Seq: 1, Ms: 10, Cells: []events.CellProgress{
		{Cell: "cell-a", Completed: 100, Budget: 100, Failures: 3, WilsonLo: 0.01, WilsonHi: 0.09, Done: true},
	}}); err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(dir, "done.jsonl")
	if err := os.WriteFile(path, buf.Bytes(), 0o644); err != nil {
		t.Fatal(err)
	}

	var out, errw strings.Builder
	if got := command().Execute([]string{path}, &out, &errw); got != 0 {
		t.Fatalf("exit %d (stderr: %s)", got, errw.String())
	}
	if !strings.Contains(out.String(), "all 1 cell(s) done") {
		t.Errorf("output %q does not report completion", out.String())
	}
}

func TestQuesttopRendersFleetBandwidth(t *testing.T) {
	dir := t.TempDir()
	write := func(name string, index int, logicalBytes uint64, rate float64) string {
		var buf bytes.Buffer
		w := events.NewWriter(&buf, nil)
		if err := w.WriteHeader(events.Header{
			Experiment: "bw-test", GoVersion: "go-test", Host: name, PID: 1,
			ShardIndex: index, ShardCount: 2, StartMs: 1_000,
		}); err != nil {
			t.Fatal(err)
		}
		snap := events.Snapshot{Seq: 1, Ms: 0, BW: []events.BusRate{
			{Bus: "logical", Instrs: logicalBytes / 2, Bytes: logicalBytes, RatePerSec: rate},
			{Bus: "sync", Instrs: 1, Bytes: 2, RatePerSec: 1},
		}}
		if err := w.WriteSnapshot(snap); err != nil {
			t.Fatal(err)
		}
		path := filepath.Join(dir, name+".jsonl")
		if err := os.WriteFile(path, buf.Bytes(), 0o644); err != nil {
			t.Fatal(err)
		}
		return path
	}
	s0 := write("shard0", 0, 600, 30)
	s1 := write("shard1", 1, 400, 20)
	var out, errw bytes.Buffer
	if code := command().Execute([]string{s0, s1}, &out, &errw); code != 0 {
		t.Fatalf("exit %d, stderr:\n%s", code, errw.String())
	}
	// Buses aggregate across shards: 600+400 logical bytes at 50 B/s.
	if !strings.Contains(out.String(), "logical 1000 B @ 50 B/s") {
		t.Errorf("missing aggregated logical bus line:\n%s", out.String())
	}
	if !strings.Contains(out.String(), "sync 4 B @ 2 B/s") {
		t.Errorf("missing aggregated sync bus line:\n%s", out.String())
	}
}

func TestQuesttopNoBandwidthLineWithoutBW(t *testing.T) {
	dir := t.TempDir()
	s0 := writeEventStream(t, dir, "shard0", "nobw", 0, 0, "cell-a")
	var out, errw bytes.Buffer
	if code := command().Execute([]string{s0}, &out, &errw); code != 0 {
		t.Fatalf("exit %d, stderr:\n%s", code, errw.String())
	}
	if strings.Contains(out.String(), "bus bandwidth") {
		t.Errorf("bandwidth line rendered for a stream without BW telemetry:\n%s", out.String())
	}
}
