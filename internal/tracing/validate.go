package tracing

import (
	"encoding/json"
	"fmt"
)

// ValidateReport summarizes a validated trace file.
type ValidateReport struct {
	// Events counts non-metadata trace events.
	Events int
	// Procs counts distinct processes (component classes) carrying events.
	Procs int
	// Tracks counts distinct (pid, tid) pairs carrying events.
	Tracks int
}

// jsonEvent is the subset of the Chrome trace-event schema the validator
// cares about. Pointer fields distinguish "absent" from zero.
type jsonEvent struct {
	Ph   string   `json:"ph"`
	Name string   `json:"name"`
	Pid  *int64   `json:"pid"`
	Tid  *int64   `json:"tid"`
	Ts   *float64 `json:"ts"`
	Dur  *float64 `json:"dur"`
}

// Validate checks data against the trace-event JSON schema as this package
// emits it (and as Perfetto requires it): a top-level object with a
// traceEvents array; every event carries ph and name; every non-metadata
// event carries pid, tid and a non-negative ts; span durations are
// non-negative; and within each (pid, tid) track the ts sequence is
// non-decreasing in file order. tools/questcheck runs it on a trace file,
// and cmd/questsim's TestTraceValidates on a real traced run.
func Validate(data []byte) (ValidateReport, error) {
	var rep ValidateReport
	var file struct {
		TraceEvents []json.RawMessage `json:"traceEvents"`
	}
	if err := json.Unmarshal(data, &file); err != nil {
		return rep, fmt.Errorf("tracing: not a JSON trace object: %w", err)
	}
	if file.TraceEvents == nil {
		return rep, fmt.Errorf("tracing: missing traceEvents array")
	}
	type track struct{ pid, tid int64 }
	lastTs := map[track]float64{}
	procs := map[int64]bool{}
	for i, raw := range file.TraceEvents {
		var ev jsonEvent
		if err := json.Unmarshal(raw, &ev); err != nil {
			return rep, fmt.Errorf("tracing: event %d malformed: %w", i, err)
		}
		if ev.Ph == "" {
			return rep, fmt.Errorf("tracing: event %d has no ph", i)
		}
		if ev.Name == "" {
			return rep, fmt.Errorf("tracing: event %d has no name", i)
		}
		if ev.Ph == "M" {
			continue // metadata carries no timestamp
		}
		if ev.Pid == nil || ev.Tid == nil {
			return rep, fmt.Errorf("tracing: event %d (%s) lacks pid/tid", i, ev.Name)
		}
		if ev.Ts == nil || *ev.Ts < 0 {
			return rep, fmt.Errorf("tracing: event %d (%s) has no non-negative ts", i, ev.Name)
		}
		if ev.Ph == "X" && (ev.Dur == nil || *ev.Dur < 0) {
			return rep, fmt.Errorf("tracing: span %d (%s) has no non-negative dur", i, ev.Name)
		}
		k := track{*ev.Pid, *ev.Tid}
		if prev, ok := lastTs[k]; ok && *ev.Ts < prev {
			return rep, fmt.Errorf("tracing: track (%d,%d) ts not monotone at event %d (%s): %g after %g",
				k.pid, k.tid, i, ev.Name, *ev.Ts, prev)
		}
		lastTs[k] = *ev.Ts
		procs[*ev.Pid] = true
		rep.Events++
	}
	rep.Procs = len(procs)
	rep.Tracks = len(lastTs)
	if rep.Events == 0 {
		return rep, fmt.Errorf("tracing: trace contains no events")
	}
	return rep, nil
}
