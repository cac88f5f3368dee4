package core

import (
	"bytes"
	"testing"

	"quest/internal/tracing"
)

// TestMachineTraceCoversComponentTracks is the acceptance check for the
// tracing tentpole at the machine level: a traced distillation run must
// produce a valid Chrome trace with at least the master, MCE, decoder and
// network tracks, all cycle-aligned.
func TestMachineTraceCoversComponentTracks(t *testing.T) {
	tr := tracing.New(1 << 16)
	cfg := DefaultMachineConfig()
	cfg.Tracer = tr
	m := NewMachine(cfg)
	rep, err := m.RunDistillationCached(3, 0)
	if err != nil {
		t.Fatal(err)
	}
	if !rep.Drained {
		t.Fatal("machine did not drain")
	}
	var buf bytes.Buffer
	if err := tr.WriteJSON(&buf); err != nil {
		t.Fatal(err)
	}
	vrep, err := tracing.Validate(buf.Bytes())
	if err != nil {
		t.Fatalf("machine trace invalid: %v", err)
	}
	if vrep.Procs < 4 {
		t.Errorf("trace has %d processes, want >= 4 (master, mce, decoder, noc)", vrep.Procs)
	}
	procs := map[string]bool{}
	var maxTs int64
	for _, ev := range tr.Events() {
		procs[ev.Proc] = true
		if ev.Ts+ev.Dur > maxTs {
			maxTs = ev.Ts + ev.Dur
		}
	}
	for _, want := range []string{"master", "mce", "decoder", "noc"} {
		if !procs[want] {
			t.Errorf("trace missing %q track; has %v", want, procs)
		}
	}
	// Cycle alignment: no event may extend past the cycles the machine ran
	// (RunDistillationCached steps one settle cycle before the report).
	if limit := int64(rep.Cycles) + 1; maxTs > limit {
		t.Errorf("trace extends to cycle %d, but machine ran %d cycles", maxTs, limit)
	}
}

// TestMachineTraceDeterministic pins that two identically configured machines
// produce byte-identical traces — the property that makes traces diffable
// artifacts of (config, seed).
func TestMachineTraceDeterministic(t *testing.T) {
	run := func() []byte {
		tr := tracing.New(1 << 16)
		cfg := DefaultMachineConfig()
		cfg.Tracer = tr
		m := NewMachine(cfg)
		if _, err := m.RunDistillationCached(2, 0); err != nil {
			t.Fatal(err)
		}
		var buf bytes.Buffer
		if err := tr.WriteJSON(&buf); err != nil {
			t.Fatal(err)
		}
		return buf.Bytes()
	}
	if !bytes.Equal(run(), run()) {
		t.Fatal("identical runs produced different traces")
	}
}

// TestMachineUntracedRecordsNothing pins the off switch at machine level: a
// nil Tracer (and nil tracing.Default) must leave no trace state behind.
func TestMachineUntracedRecordsNothing(t *testing.T) {
	if tracing.Default != nil {
		t.Fatal("test requires tracing.Default to be nil")
	}
	cfg := DefaultMachineConfig()
	m := NewMachine(cfg)
	if _, err := m.RunDistillationCached(2, 0); err != nil {
		t.Fatal(err)
	}
	// Nothing to assert beyond "no panic": recording methods are nil no-ops.
	// The zero-alloc property is pinned by tracing.TestNilTracerIsFreeAndSafe
	// and decoder.TestMatchHeatOffAllocs, and the machine cycle's own count
	// by TestIdleCycleAllocs and TestNoisyCycleAllocs, which an ungated
	// observer call that builds its arguments would fail.
}
