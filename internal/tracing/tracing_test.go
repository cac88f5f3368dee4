package tracing

import (
	"bytes"
	"fmt"
	"strings"
	"sync"
	"testing"
)

// TestNilTracerIsFreeAndSafe pins the off switch: every recording method on
// a nil *Tracer must be a no-op and allocation-free, because that is the
// state every instrumented hot path runs in when tracing is disabled.
func TestNilTracerIsFreeAndSafe(t *testing.T) {
	var tr *Tracer
	allocs := testing.AllocsPerRun(1000, func() {
		tr.Span("mce", 0, "busy", 1, 1)
		tr.SpanArg("mce", 0, "busy", 1, 1, "uops", 7)
		tr.Instant("master", 0, "dispatch", 2)
		tr.InstantArg("master", 0, "dispatch", 2, "tile", 3)
		tr.Merge(nil)
	})
	if allocs != 0 {
		t.Fatalf("nil tracer allocated %v per run, want 0", allocs)
	}
	if tr.Len() != 0 || tr.Dropped() != 0 || tr.Capacity() != 0 {
		t.Fatal("nil tracer reports non-zero state")
	}
	if tr.Events() != nil || tr.Summaries() != nil {
		t.Fatal("nil tracer returned events")
	}
	var buf bytes.Buffer
	if err := tr.Summarize(&buf); err != nil {
		t.Fatal(err)
	}
}

func TestRingOverflowDropsOldest(t *testing.T) {
	tr := New(4)
	for i := 0; i < 10; i++ {
		tr.Span("p", 0, "busy", int64(i), 1)
	}
	if tr.Len() != 4 {
		t.Fatalf("Len = %d, want 4", tr.Len())
	}
	if tr.Dropped() != 6 {
		t.Fatalf("Dropped = %d, want 6", tr.Dropped())
	}
	evs := tr.Events()
	for i, ev := range evs {
		if want := int64(6 + i); ev.Ts != want {
			t.Errorf("event %d ts = %d, want %d (oldest must be dropped first)", i, ev.Ts, want)
		}
	}
}

func TestMergeAccumulatesEventsAndDrops(t *testing.T) {
	a, b := New(16), New(2)
	a.Span("x", 0, "busy", 0, 1)
	for i := 0; i < 5; i++ {
		b.Span("y", 1, "busy", int64(i), 1)
	}
	a.Merge(b)
	if a.Len() != 3 {
		t.Fatalf("merged Len = %d, want 3 (1 + ring of 2)", a.Len())
	}
	if a.Dropped() != 3 {
		t.Fatalf("merged Dropped = %d, want 3 (inherited from shard)", a.Dropped())
	}
	a.Merge(a) // self-merge must not deadlock or duplicate
	if a.Len() != 3 {
		t.Fatalf("self-merge changed Len to %d", a.Len())
	}
}

// TestWriteJSONDeterministicAcrossInsertionOrder is the canonical-sort
// contract: tracers holding the same event multiset in different insertion
// orders serialize byte-identically, on every export, with the processes
// numbered and named in name order.
func TestWriteJSONDeterministicAcrossInsertionOrder(t *testing.T) {
	evs := []Event{
		{Proc: "mce", Tid: 1, Name: "busy", Ph: PhaseSpan, Ts: 3, Dur: 1},
		{Proc: "mce", Tid: 0, Name: "stall", Ph: PhaseSpan, Ts: 3, Dur: 1, ArgKey: "uops", Arg: 0},
		{Proc: "master", Tid: 0, Name: "dispatch", Ph: PhaseInstant, Ts: 1, ArgKey: "tile", Arg: 1},
		{Proc: "decoder", Tid: 0, Name: "window", Ph: PhaseSpan, Ts: 0, Dur: 3, ArgKey: "applied", Arg: 2},
		{Proc: "mce", Tid: 0, Name: "busy", Ph: PhaseSpan, Ts: 4, Dur: 1},
	}
	fwd, rev := New(0), New(0)
	for _, ev := range evs {
		fwd.record(ev)
	}
	for i := len(evs) - 1; i >= 0; i-- {
		rev.record(evs[i])
	}
	var bf, br bytes.Buffer
	if err := fwd.WriteJSON(&bf); err != nil {
		t.Fatal(err)
	}
	if err := rev.WriteJSON(&br); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(bf.Bytes(), br.Bytes()) {
		t.Fatalf("insertion order leaked into export:\n%s\nvs\n%s", bf.String(), br.String())
	}
	for i := 0; i < 10; i++ {
		for _, tr := range []*Tracer{fwd, rev} {
			var b bytes.Buffer
			if err := tr.WriteJSON(&b); err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(b.Bytes(), bf.Bytes()) {
				t.Fatalf("export %d differs from the first:\n%s\nvs\n%s", i, b.String(), bf.String())
			}
		}
	}
	for pid, proc := range []string{"decoder", "master", "mce"} {
		want := fmt.Sprintf(`{"ph":"M","pid":%d,"tid":0,"name":"process_name","args":{"name":%q}}`, pid+1, proc)
		if !strings.Contains(bf.String(), want) {
			t.Errorf("export has no %s", want)
		}
	}
	rep, err := Validate(bf.Bytes())
	if err != nil {
		t.Fatalf("exported trace invalid: %v", err)
	}
	if rep.Procs != 3 {
		t.Errorf("Procs = %d, want 3", rep.Procs)
	}
	if rep.Tracks != 4 {
		t.Errorf("Tracks = %d, want 4", rep.Tracks)
	}
	if rep.Events != len(evs) {
		t.Errorf("Events = %d, want %d", rep.Events, len(evs))
	}
}

func TestSummariesClassifyBusyStallIdle(t *testing.T) {
	tr := New(0)
	tr.Span("mce", 0, "busy", 0, 3)
	tr.Span("mce", 0, "stall", 3, 2)
	tr.Span("mce", 0, "idle", 5, 5)
	tr.Instant("mce", 0, "cache.replay", 6)
	tr.Span("mce", 1, "busy", 0, 1)
	sums := tr.Summaries()
	if len(sums) != 2 {
		t.Fatalf("tracks = %d, want 2", len(sums))
	}
	s := sums[0]
	if s.Proc != "mce" || s.Tid != 0 {
		t.Fatalf("first track = %s/%d", s.Proc, s.Tid)
	}
	if s.Busy != 3 || s.Stall != 2 || s.Idle != 5 {
		t.Errorf("busy/stall/idle = %d/%d/%d, want 3/2/5", s.Busy, s.Stall, s.Idle)
	}
	if s.Spans != 3 || s.Instants != 1 {
		t.Errorf("spans/instants = %d/%d, want 3/1", s.Spans, s.Instants)
	}
	if s.First != 0 || s.Last != 10 {
		t.Errorf("range = [%d,%d), want [0,10)", s.First, s.Last)
	}
	var buf bytes.Buffer
	if err := tr.Summarize(&buf); err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{"mce/0", "mce/1", "busy%"} {
		if !strings.Contains(buf.String(), want) {
			t.Errorf("summary missing %q:\n%s", want, buf.String())
		}
	}
}

func TestSummarizeReportsDrops(t *testing.T) {
	tr := New(1)
	tr.Span("p", 0, "busy", 0, 1)
	tr.Span("p", 0, "busy", 1, 1)
	var buf bytes.Buffer
	if err := tr.Summarize(&buf); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(buf.String(), "dropped 1 event(s)") {
		t.Errorf("summary does not surface drops:\n%s", buf.String())
	}
}

func TestValidateRejectsMalformed(t *testing.T) {
	cases := map[string]string{
		"not JSON":          `{"traceEvents":`,
		"no traceEvents":    `{"otherEvents":[]}`,
		"empty":             `{"traceEvents":[]}`,
		"missing ph":        `{"traceEvents":[{"name":"x","pid":1,"tid":0,"ts":1}]}`,
		"missing name":      `{"traceEvents":[{"ph":"X","pid":1,"tid":0,"ts":1,"dur":1}]}`,
		"missing ts":        `{"traceEvents":[{"ph":"i","name":"x","pid":1,"tid":0}]}`,
		"span without dur":  `{"traceEvents":[{"ph":"X","name":"x","pid":1,"tid":0,"ts":1}]}`,
		"negative ts":       `{"traceEvents":[{"ph":"i","name":"x","pid":1,"tid":0,"ts":-1}]}`,
		"non-monotone ts":   `{"traceEvents":[{"ph":"i","name":"a","pid":1,"tid":0,"ts":5},{"ph":"i","name":"b","pid":1,"tid":0,"ts":4}]}`,
		"missing pid":       `{"traceEvents":[{"ph":"i","name":"x","tid":0,"ts":1}]}`,
		"event not objects": `{"traceEvents":[42]}`,
	}
	for label, data := range cases {
		if _, err := Validate([]byte(data)); err == nil {
			t.Errorf("%s: Validate accepted %s", label, data)
		}
	}
	// Separate tracks may interleave timestamps; only per-track order matters.
	ok := `{"traceEvents":[
		{"ph":"M","name":"process_name","args":{"name":"a"}},
		{"ph":"i","name":"a","pid":1,"tid":0,"ts":5},
		{"ph":"i","name":"b","pid":1,"tid":1,"ts":1},
		{"ph":"X","name":"c","pid":2,"tid":0,"ts":0,"dur":0}]}`
	rep, err := Validate([]byte(ok))
	if err != nil {
		t.Fatalf("Validate rejected valid interleaving: %v", err)
	}
	if rep.Procs != 2 || rep.Tracks != 3 || rep.Events != 3 {
		t.Errorf("report = %+v, want 2 procs, 3 tracks, 3 events", rep)
	}
}

// TestConcurrentRecording hammers one tracer from many goroutines; run under
// -race (make race) this pins the locking of record/Events/Merge/Summarize.
func TestConcurrentRecording(t *testing.T) {
	tr := New(1 << 12)
	dst := New(1 << 14)
	var wg sync.WaitGroup
	for w := 0; w < 8; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			shard := New(256)
			for i := 0; i < 400; i++ {
				tr.SpanArg("mce", w, "busy", int64(i), 1, "uops", int64(i))
				shard.Instant("master", w, "dispatch", int64(i))
			}
			dst.Merge(shard)
		}(w)
	}
	done := make(chan struct{})
	go func() {
		defer close(done)
		for i := 0; i < 50; i++ {
			_ = tr.Events()
			_ = tr.Summaries()
		}
	}()
	wg.Wait()
	<-done
	if got := tr.Len() + int(tr.Dropped()); got != 8*400 {
		t.Errorf("events+drops = %d, want %d", got, 8*400)
	}
	if dst.Len() != 8*256 {
		t.Errorf("merged len = %d, want %d", dst.Len(), 8*256)
	}
}

func BenchmarkSpanRecord(b *testing.B) {
	tr := New(1 << 16)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		tr.SpanArg("mce", 0, "busy", int64(i), 1, "uops", 42)
	}
}

func BenchmarkSpanNil(b *testing.B) {
	var tr *Tracer
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		tr.SpanArg("mce", 0, "busy", int64(i), 1, "uops", 42)
	}
}
