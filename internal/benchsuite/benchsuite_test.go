package benchsuite

import (
	"bytes"
	"flag"
	"fmt"
	"testing"

	"quest/internal/metrics"
)

// TestRunProducesWellFormedReport runs the whole suite at one iteration per
// case — a smoke test that every case executes and the report round-trips
// through its JSON encoding with the schema intact.
func TestRunProducesWellFormedReport(t *testing.T) {
	rep := Run(Options{Benchtime: "1x"})
	if rep.Schema != Schema {
		t.Errorf("schema = %q, want %q", rep.Schema, Schema)
	}
	if want := len(Cases(metrics.New())); len(rep.Results) != want {
		t.Errorf("got %d cases, want %d", len(rep.Results), want)
	}
	seen := map[string]bool{}
	for _, r := range rep.Results {
		if seen[r.Name] {
			t.Errorf("duplicate case name %q", r.Name)
		}
		seen[r.Name] = true
		if r.Iterations < 1 || r.NsPerOp <= 0 {
			t.Errorf("case %q has implausible measurement %+v", r.Name, r)
		}
	}
	// The decode cases record into the report's registry.
	found := false
	for _, h := range rep.Metrics.Histograms {
		if h.Name == "decoder.match.ns" && h.Summary.Count > 0 {
			found = true
		}
	}
	if !found {
		t.Error("report metrics missing a populated decoder.match.ns histogram")
	}

	var buf bytes.Buffer
	if err := rep.WriteJSON(&buf); err != nil {
		t.Fatalf("WriteJSON: %v", err)
	}
	back, err := ReadReport(buf.Bytes())
	if err != nil {
		t.Fatalf("ReadReport: %v", err)
	}
	if back.Schema != rep.Schema || len(back.Results) != len(rep.Results) {
		t.Errorf("round-trip mismatch: %+v vs %+v", back.Schema, rep.Schema)
	}
}

// TestEventsOffObserveZeroAllocs pins the suite's events-off-observe case at
// zero allocations per op: when -events is off the sampler is nil and the
// progress hook must cost one branch, nothing more.
func TestEventsOffObserveZeroAllocs(t *testing.T) {
	for _, c := range Cases(metrics.New()) {
		if c.Name != "events-off-observe" {
			continue
		}
		if r := benchmarkAt(t, allocPinIters, c.Fn); r.AllocsPerOp() != 0 {
			t.Errorf("events-off-observe: %d allocs/op, want 0", r.AllocsPerOp())
		}
		return
	}
	t.Fatal("suite is missing the events-off-observe case")
}

// TestBWOffObserveZeroAllocs pins the suite's bw-off-observe case at zero
// allocations per op: when -bw is off the recorder is nil and every
// dispatch-site observe must cost one branch, nothing more.
func TestBWOffObserveZeroAllocs(t *testing.T) {
	for _, c := range Cases(metrics.New()) {
		if c.Name != "bw-off-observe" {
			continue
		}
		if r := benchmarkAt(t, allocPinIters, c.Fn); r.AllocsPerOp() != 0 {
			t.Errorf("bw-off-observe: %d allocs/op, want 0", r.AllocsPerOp())
		}
		return
	}
	t.Fatal("suite is missing the bw-off-observe case")
}

// allocPinIters is the iteration count the zero-alloc pins measure at. Like
// testing.AllocsPerRun's run count, it keeps a malloc made by another
// goroutine during the measurement (the runtime's or the test framework's)
// from being charged to the op: at one iteration, the count Run and
// -benchtime=1x leave behind, such a stray malloc reads as allocs/op >= 1.
const allocPinIters = 100_000

// benchmarkAt runs fn under testing.Benchmark at exactly n iterations and
// restores the caller's -test.benchtime when the test ends.
func benchmarkAt(t *testing.T, n int, fn func(*testing.B)) testing.BenchmarkResult {
	t.Helper()
	bt := flag.Lookup("test.benchtime")
	prev := bt.Value.String()
	t.Cleanup(func() { _ = bt.Value.Set(prev) })
	if err := bt.Value.Set(fmt.Sprintf("%dx", n)); err != nil {
		t.Fatal(err)
	}
	return testing.Benchmark(fn)
}
