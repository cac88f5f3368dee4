package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"testing"

	"quest/internal/metrics"
)

func TestRecorderNestsSpansAndProbesRegistry(t *testing.T) {
	reg := metrics.New()
	rec := NewRecorder(reg)
	rec.StartTrace("memory trial=0", "d3x1")
	rec.Begin("trial", false)
	rec.Do("core.machine_reset", func() {})
	rec.DoProbed("master.step_cycle", func() {
		reg.Histogram("mce.cycle.ns", nil).Observe(700)
		reg.Histogram("decoder.window.flush.ns", nil).Observe(40)
		reg.Histogram("decoder.match.ns", nil).Observe(30) // inside the flush: not counted again
	})
	rec.End()
	rec.StartTrace("memory trial=1", "d3x1")
	rec.Do("trial", func() {})

	spans, traces := rec.Spans(), rec.Traces()
	if len(spans) != 4 || len(traces) != 2 {
		t.Fatalf("%d spans, %d traces", len(spans), len(traces))
	}
	root, reset, step, next := spans[0], spans[1], spans[2], spans[3]
	if root.Parent != 0 || reset.Parent != root.ID || step.Parent != root.ID || next.Parent != 0 {
		t.Errorf("parents: %d %d %d %d", root.Parent, reset.Parent, step.Parent, next.Parent)
	}
	if root.Trace != 1 || step.Trace != 1 || next.Trace != 2 || traces[1].Shape != "d3x1" {
		t.Errorf("trace ids: %d %d %d", root.Trace, step.Trace, next.Trace)
	}
	for _, s := range spans {
		if s.End < s.Start {
			t.Errorf("span %s ends before it starts", s.Name)
		}
	}
	if step.Nested["mce"] != 700 || step.Nested["decoder"] != 40 || reset.Nested != nil {
		t.Errorf("nested registry time: step %v, reset %v", step.Nested, reset.Nested)
	}
	if step.Start < reset.End || root.Probe <= 0 {
		t.Errorf("probe reads must fall outside the probed span and be charged to its parent (probe %d ns)", root.Probe)
	}
	var buf bytes.Buffer
	if err := writeTrace(&buf, "memory-sweep", traces, spans); err != nil {
		t.Fatal(err)
	}
	sc := bufio.NewScanner(&buf)
	var kinds []string
	for sc.Scan() {
		var rec struct{ Kind, Workload string }
		if err := json.Unmarshal(sc.Bytes(), &rec); err != nil || rec.Workload != "memory-sweep" {
			t.Fatalf("trace line %q: %v", sc.Text(), err)
		}
		kinds = append(kinds, rec.Kind)
	}
	if len(kinds) != 6 || kinds[0] != "trace" || kinds[2] != "span" {
		t.Errorf("trace.jsonl kinds = %v", kinds)
	}
}

// A span fixture with known times: a memory-sweep trial whose master step
// ran 500 ns of MCE cycles and 200 ns of decodes (with decoder.match inside
// them), around a nested probed span.
func TestAccountSplitsSelfTime(t *testing.T) {
	spans := []Span{
		{ID: 1, Trace: 1, Name: "trial", Start: 0, End: 1000, Probe: 10},
		{ID: 2, Parent: 1, Trace: 1, Name: "core.machine_reset", Start: 20, End: 70},
		{ID: 3, Parent: 1, Trace: 1, Name: "master.run_until_drained", Start: 100, End: 900,
			Nested: map[string]int64{"mce": 500, "decoder": 200}, Probe: 5},
		{ID: 4, Parent: 3, Trace: 1, Name: "master.step_cycle", Start: 110, End: 400,
			Nested: map[string]int64{"mce": 150, "decoder": 100}},
		{ID: 5, Parent: 0, Trace: 2, Name: "trial", Start: 1000, End: 1100},
		{ID: 6, Parent: 5, Trace: 2, Name: "clifford.new", Start: 1010, End: 1090},
	}
	layers, total := account(spans)
	want := map[string]int64{
		"core":         50,
		"master":       (800 - 290 - 5 - (350 + 100)) + (290 - (150 + 100)), // each span less its own nested time
		"mce":          500,
		"decoder":      200,
		"clifford":     80,
		"unattributed": (1000 - 10 - 50 - 800) + (100 - 80),
	}
	for k, v := range want {
		if layers[k] != v {
			t.Errorf("layer %s = %d, want %d", k, layers[k], v)
		}
	}
	if len(layers) != len(want) {
		t.Errorf("layers = %v", layers)
	}
	if total != 1100-10-5 {
		t.Errorf("total = %d, want the roots' 1100 ns less 15 ns of probes", total)
	}
	var sum int64
	for _, v := range layers {
		sum += v
	}
	if sum != total {
		t.Errorf("layers sum to %d, total %d", sum, total)
	}
}

func TestMoveNoise(t *testing.T) {
	traces := []Trace{{ID: 1, Shape: "d3"}}
	spans := []Span{
		{ID: 1, Trace: 1, Name: "trial", Start: 0, End: 1000},
		{ID: 2, Parent: 1, Trace: 1, Name: "awg.cycle_clean", Start: 0, End: 100},
		{ID: 3, Parent: 1, Trace: 1, Name: "awg.cycle_clean", Start: 100, End: 220},
		{ID: 4, Parent: 1, Trace: 1, Name: "awg.cycle_noisy", Start: 220, End: 350},
		{ID: 5, Parent: 1, Trace: 1, Name: "awg.cycle_noisy", Start: 350, End: 490},
	}
	layers, _ := account(spans)
	moveNoise(layers, traces, spans)
	// Noisy cycles took 270 ns against a clean mean of 110 ns each.
	if layers["noise"] != 50 || layers["awg"] != 440 {
		t.Errorf("awg %d, noise %d; want 440, 50", layers["awg"], layers["noise"])
	}
}
