package events

import (
	"bufio"
	"bytes"
	"fmt"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"
	"time"

	"quest/internal/bwprofile"
	"quest/internal/mc"
	"quest/internal/metrics"
)

// fakeClock is the injectable clock for deterministic rate/ETA tests.
type fakeClock struct {
	mu sync.Mutex
	t  time.Time
}

func newFakeClock() *fakeClock {
	return &fakeClock{t: time.Unix(1700000000, 0)}
}

func (c *fakeClock) now() time.Time {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.t
}

func (c *fakeClock) advance(d time.Duration) {
	c.mu.Lock()
	c.t = c.t.Add(d)
	c.mu.Unlock()
}

// testSampler builds a file-only sampler on a fake clock, with the ticker
// goroutine suppressed (interval does not matter; tests call Sample
// directly and Stop emits the final snapshot).
func testSampler(t *testing.T, reg *metrics.Registry) (*Sampler, *bytes.Buffer, *fakeClock) {
	t.Helper()
	var buf bytes.Buffer
	clk := newFakeClock()
	s := NewSampler(NewWriter(&buf, nil), reg)
	s.now = clk.now
	if err := s.Start(Header{Experiment: "test"}, time.Hour); err != nil {
		t.Fatalf("Start: %v", err)
	}
	return s, &buf, clk
}

func TestSamplerStreamRoundTrip(t *testing.T) {
	reg := metrics.New()
	s, buf, clk := testSampler(t, reg)

	reg.Counter("mc.trials").Add(100)
	s.ObserveCell("p=0.0100", mc.Progress{Completed: 100, Failures: 3, Budget: 400, WilsonLo: 0.01, WilsonHi: 0.08})
	clk.advance(time.Second)
	if err := s.Sample(); err != nil {
		t.Fatalf("Sample: %v", err)
	}

	reg.Counter("mc.trials").Add(50)
	s.ObserveCell("p=0.0100", mc.Progress{Completed: 150, Failures: 4, Budget: 400, WilsonLo: 0.01, WilsonHi: 0.06})
	s.ObserveCell("p=0.0050", mc.Progress{Completed: 20, Failures: 0, Budget: 400, WilsonLo: 0, WilsonHi: 0.16})
	clk.advance(time.Second)
	if err := s.Stop(); err != nil {
		t.Fatalf("Stop: %v", err)
	}

	st, err := ParseStream(buf.Bytes())
	if err != nil {
		t.Fatalf("ParseStream: %v", err)
	}
	if st.Header.Schema != Schema || st.Header.Experiment != "test" {
		t.Fatalf("header = %+v", st.Header)
	}
	if len(st.Snapshots) != 2 {
		t.Fatalf("got %d snapshots, want 2", len(st.Snapshots))
	}

	first := st.Snapshots[0]
	if first.Seq != 1 || first.Ms != 1000 {
		t.Fatalf("first snapshot seq/ms = %d/%d, want 1/1000", first.Seq, first.Ms)
	}
	if len(first.Cells) != 1 {
		t.Fatalf("first snapshot has %d cells, want 1", len(first.Cells))
	}
	c := first.Cells[0]
	// 100 trials in the 1s since the cell appeared: 100 trials/sec, and
	// (400-100)/100 = 3s to budget.
	if c.RatePerSec != 100 {
		t.Errorf("rate = %v, want 100", c.RatePerSec)
	}
	if c.EtaMs != 3000 {
		t.Errorf("eta = %dms, want 3000", c.EtaMs)
	}
	if first.Deltas == nil || len(first.Deltas.Counters) != 1 || first.Deltas.Counters[0].Value != 100 {
		t.Errorf("first deltas = %+v, want mc.trials=100", first.Deltas)
	}
	if first.Runtime.HeapBytes == 0 || first.Runtime.Goroutines == 0 {
		t.Errorf("runtime stats not populated: %+v", first.Runtime)
	}

	final := st.Snapshots[1]
	if len(final.Cells) != 2 {
		t.Fatalf("final snapshot has %d cells, want 2", len(final.Cells))
	}
	// Sorted by cell name: p=0.0050 before p=0.0100.
	if final.Cells[0].Cell != "p=0.0050" || final.Cells[1].Cell != "p=0.0100" {
		t.Errorf("cells not sorted: %q, %q", final.Cells[0].Cell, final.Cells[1].Cell)
	}
	// 50 more trials over the second interval.
	if got := final.Cells[1].RatePerSec; got != 50 {
		t.Errorf("second-interval rate = %v, want 50", got)
	}
	// Deltas carry only the change: 50 more mc.trials.
	if final.Deltas == nil || final.Deltas.Counters[0].Value != 50 {
		t.Errorf("final deltas = %+v, want mc.trials=50", final.Deltas)
	}

	if _, err := Validate(buf.Bytes()); err != nil {
		t.Fatalf("Validate rejects a sampler-produced stream: %v", err)
	}
}

func TestSamplerIdleIntervalOmitsDeltas(t *testing.T) {
	reg := metrics.New()
	s, buf, clk := testSampler(t, reg)
	clk.advance(time.Second)
	if err := s.Sample(); err != nil {
		t.Fatalf("Sample: %v", err)
	}
	if err := s.Stop(); err != nil {
		t.Fatalf("Stop: %v", err)
	}
	st, err := ParseStream(buf.Bytes())
	if err != nil {
		t.Fatalf("ParseStream: %v", err)
	}
	for i, snap := range st.Snapshots {
		if snap.Deltas != nil {
			t.Errorf("snapshot %d: idle interval has deltas %+v", i, snap.Deltas)
		}
	}
}

func TestSamplerDoneCellHasNoEta(t *testing.T) {
	s, buf, clk := testSampler(t, nil)
	s.ObserveCell("cell", mc.Progress{Completed: 400, Failures: 9, Budget: 400, Done: true})
	clk.advance(time.Second)
	if err := s.Stop(); err != nil {
		t.Fatalf("Stop: %v", err)
	}
	st, err := ParseStream(buf.Bytes())
	if err != nil {
		t.Fatalf("ParseStream: %v", err)
	}
	c := st.Snapshots[0].Cells[0]
	if !c.Done || c.EtaMs != 0 {
		t.Errorf("done cell = %+v, want Done with no ETA", c)
	}
}

// TestObserveCellNilAllocs pins the events-off contract: a nil sampler's
// ObserveCell is free — no allocation, so the progress plumbing can call it
// unconditionally.
func TestObserveCellNilAllocs(t *testing.T) {
	var s *Sampler
	p := mc.Progress{Completed: 10, Failures: 1, Budget: 100}
	allocs := testing.AllocsPerRun(100, func() {
		s.ObserveCell("cell", p)
	})
	if allocs != 0 {
		t.Fatalf("nil sampler ObserveCell allocates %.1f/op, want 0", allocs)
	}
}

func TestNilSamplerLifecycleNoOps(t *testing.T) {
	var s *Sampler
	if err := s.Start(Header{Experiment: "x"}, time.Second); err != nil {
		t.Fatalf("nil Start: %v", err)
	}
	if err := s.Sample(); err != nil {
		t.Fatalf("nil Sample: %v", err)
	}
	if err := s.Stop(); err != nil {
		t.Fatalf("nil Stop: %v", err)
	}
	if n := s.Snapshots(); n != 0 {
		t.Fatalf("nil Snapshots = %d", n)
	}
}

func TestWriterOrderingErrors(t *testing.T) {
	w := NewWriter(&bytes.Buffer{}, nil)
	if err := w.WriteSnapshot(Snapshot{Seq: 1}); err == nil {
		t.Error("snapshot before header accepted")
	}
	if err := w.WriteHeader(Header{Experiment: "x"}); err != nil {
		t.Fatalf("WriteHeader: %v", err)
	}
	if err := w.WriteHeader(Header{Experiment: "x"}); err == nil {
		t.Error("second header accepted")
	}
}

func TestValidateRejections(t *testing.T) {
	header := `{"record":"header","schema":"quest-events/1","experiment":"e","start_ms":1}`
	cases := []struct {
		name string
		in   string
		want string // substring of the error
	}{
		{"empty", "", "empty"},
		{"wrong schema", `{"record":"header","schema":"quest-events/2","experiment":"e"}`, "schema"},
		{"missing experiment", `{"record":"header","schema":"quest-events/1"}`, "experiment"},
		{"unknown kind", header + "\n" + `{"record":"mystery"}`, "unknown record kind"},
		{"snapshot first", `{"record":"snapshot","seq":1}`, "before header"},
		{"duplicate header", header + "\n" + header, "duplicate header"},
		{"seq gap", header + "\n" + `{"record":"snapshot","seq":2,"ms":1,"runtime":{}}`, "seq"},
		{"ms backwards", header + "\n" +
			`{"record":"snapshot","seq":1,"ms":10,"runtime":{}}` + "\n" +
			`{"record":"snapshot","seq":2,"ms":5,"runtime":{}}`, "backwards"},
		{"cells unsorted", header + "\n" +
			`{"record":"snapshot","seq":1,"ms":1,"cells":[{"cell":"b"},{"cell":"a"}],"runtime":{}}`, "sorted"},
		{"failures exceed completed", header + "\n" +
			`{"record":"snapshot","seq":1,"ms":1,"cells":[{"cell":"a","completed":5,"failures":6}],"runtime":{}}`, "failures"},
		{"completed exceeds budget", header + "\n" +
			`{"record":"snapshot","seq":1,"ms":1,"cells":[{"cell":"a","completed":9,"budget":5}],"runtime":{}}`, "budget"},
		{"wilson inverted", header + "\n" +
			`{"record":"snapshot","seq":1,"ms":1,"cells":[{"cell":"a","wilson_lo":0.5,"wilson_hi":0.1}],"runtime":{}}`, "Wilson"},
		{"bad shard index", `{"record":"header","schema":"quest-events/1","experiment":"e","shard_index":3,"shard_count":2}`, "shard index"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			_, err := Validate([]byte(tc.in))
			if err == nil {
				t.Fatalf("accepted %q", tc.in)
			}
			if !strings.Contains(err.Error(), tc.want) {
				t.Fatalf("error %q does not mention %q", err, tc.want)
			}
		})
	}
}

func TestValidateReportCounts(t *testing.T) {
	in := `{"record":"header","schema":"quest-events/1","experiment":"e","shard_index":1,"shard_count":2,"start_ms":1}
{"record":"snapshot","seq":1,"ms":100,"cells":[{"cell":"a","completed":10},{"cell":"b","completed":5}],"runtime":{}}
{"record":"snapshot","seq":2,"ms":200,"cells":[{"cell":"a","completed":20,"done":true},{"cell":"b","completed":9}],"runtime":{}}
`
	rep, err := Validate([]byte(in))
	if err != nil {
		t.Fatalf("Validate: %v", err)
	}
	want := ValidateReport{Experiment: "e", ShardIndex: 1, ShardCount: 2, Snapshots: 2, Cells: 2, DoneCells: 1, LastMs: 200}
	if rep != want {
		t.Fatalf("report = %+v, want %+v", rep, want)
	}
}

func TestValidateTailAcceptsMidRunCaptures(t *testing.T) {
	header := `{"record":"header","schema":"quest-events/1","experiment":"e","start_ms":1}`
	// A late SSE subscriber: first seq far from 1, then a dropped-frame gap.
	in := header + "\n" +
		`{"record":"snapshot","seq":35,"ms":100,"runtime":{}}` + "\n" +
		`{"record":"snapshot","seq":37,"ms":200,"runtime":{}}` + "\n"
	rep, err := ValidateTail([]byte(in))
	if err != nil {
		t.Fatalf("ValidateTail rejected a mid-run capture: %v", err)
	}
	if rep.Snapshots != 2 || rep.LastMs != 200 {
		t.Errorf("report = %+v, want 2 snapshots to ms 200", rep)
	}
	// The same stream is NOT a valid file: Validate demands gap-free from 1.
	if _, err := Validate([]byte(in)); err == nil {
		t.Error("Validate accepted a stream starting at seq 35")
	}
	// Non-increasing seq fails both.
	dup := header + "\n" +
		`{"record":"snapshot","seq":5,"ms":100,"runtime":{}}` + "\n" +
		`{"record":"snapshot","seq":5,"ms":200,"runtime":{}}` + "\n"
	if _, err := ValidateTail([]byte(dup)); err == nil {
		t.Error("ValidateTail accepted a repeated seq")
	}
}

func TestParseStreamToleratesTornFinalLine(t *testing.T) {
	in := `{"record":"header","schema":"quest-events/1","experiment":"e","start_ms":1}
{"record":"snapshot","seq":1,"ms":100,"runtime":{}}
{"record":"snapsh`
	st, err := ParseStream([]byte(in))
	if err != nil {
		t.Fatalf("torn final line rejected: %v", err)
	}
	if len(st.Snapshots) != 1 {
		t.Fatalf("got %d snapshots, want 1", len(st.Snapshots))
	}
	// The same garbage mid-stream is an error.
	bad := `{"record":"header","schema":"quest-events/1","experiment":"e","start_ms":1}
{"record":"snapsh
{"record":"snapshot","seq":1,"ms":100,"runtime":{}}
`
	if _, err := ParseStream([]byte(bad)); err == nil {
		t.Fatal("mid-stream garbage accepted")
	}
}

func TestSSEBroadcast(t *testing.T) {
	b := NewBroadcaster()
	w := NewWriter(nil, b) // broadcast-only stream
	if err := w.WriteHeader(Header{Experiment: "sse"}); err != nil {
		t.Fatalf("WriteHeader: %v", err)
	}

	srv := httptest.NewServer(b)
	defer srv.Close()

	resp, err := srv.Client().Get(srv.URL)
	if err != nil {
		t.Fatalf("GET: %v", err)
	}
	defer resp.Body.Close()
	if ct := resp.Header.Get("Content-Type"); ct != "text/event-stream" {
		t.Fatalf("Content-Type = %q", ct)
	}

	sc := bufio.NewScanner(resp.Body)
	readFrame := func() string {
		t.Helper()
		for sc.Scan() {
			line := sc.Text()
			if strings.HasPrefix(line, "data: ") {
				return strings.TrimPrefix(line, "data: ")
			}
		}
		t.Fatalf("stream ended: %v", sc.Err())
		return ""
	}

	// Late subscriber still gets the header first.
	hdr := readFrame()
	if !strings.Contains(hdr, `"record":"header"`) || !strings.Contains(hdr, `"sse"`) {
		t.Fatalf("first frame = %q, want replayed header", hdr)
	}

	if err := w.WriteSnapshot(Snapshot{Seq: 1, Ms: 5}); err != nil {
		t.Fatalf("WriteSnapshot: %v", err)
	}
	snap := readFrame()
	if !strings.Contains(snap, `"record":"snapshot"`) || !strings.Contains(snap, `"seq":1`) {
		t.Fatalf("second frame = %q, want snapshot seq 1", snap)
	}
}

func TestSSESlowSubscriberDrops(t *testing.T) {
	b := NewBroadcaster()
	ch := b.subscribe()
	line := []byte(`{"record":"snapshot"}`)
	for i := 0; i < subBuffer+5; i++ {
		b.publish(line)
	}
	if got := b.Dropped(); got != 5 {
		t.Fatalf("dropped = %d, want 5", got)
	}
	if len(ch) != subBuffer {
		t.Fatalf("buffered = %d, want %d", len(ch), subBuffer)
	}
	b.unsubscribe(ch)
	b.publish(line) // must not panic or block after unsubscribe
}

func TestHealthz(t *testing.T) {
	rr := httptest.NewRecorder()
	Healthz(nil).ServeHTTP(rr, httptest.NewRequest("GET", "/healthz", nil))
	if got := rr.Body.String(); !strings.Contains(got, `"events":false`) {
		t.Fatalf("nil-sampler healthz = %q", got)
	}

	s, _, clk := testSampler(t, nil)
	clk.advance(time.Second)
	if err := s.Stop(); err != nil {
		t.Fatalf("Stop: %v", err)
	}
	rr = httptest.NewRecorder()
	Healthz(s).ServeHTTP(rr, httptest.NewRequest("GET", "/healthz", nil))
	got := rr.Body.String()
	if !strings.Contains(got, `"events":true`) || !strings.Contains(got, `"snapshots":1`) {
		t.Fatalf("healthz = %q", got)
	}
}

// TestSamplerTicker exercises the real ticker path end to end (real clock,
// no injected time): snapshots accumulate and the stream stays valid.
func TestSamplerTicker(t *testing.T) {
	var buf bytes.Buffer
	s := NewSampler(NewWriter(&buf, nil), nil)
	if err := s.Start(Header{Experiment: "tick"}, time.Millisecond); err != nil {
		t.Fatalf("Start: %v", err)
	}
	s.ObserveCell("cell", mc.Progress{Completed: 1, Budget: 10})
	deadline := time.Now().Add(5 * time.Second)
	for s.Snapshots() < 3 && time.Now().Before(deadline) {
		time.Sleep(time.Millisecond)
	}
	if err := s.Stop(); err != nil {
		t.Fatalf("Stop: %v", err)
	}
	if n := s.Snapshots(); n < 4 {
		t.Fatalf("snapshots = %d, want >= 4 (3 ticks + final)", n)
	}
	if _, err := Validate(buf.Bytes()); err != nil {
		t.Fatalf("ticker stream invalid: %v", err)
	}
}

// TestSamplerConcurrentObserve drives ObserveCell from many goroutines
// while the ticker samples — the -race configuration this plumbing runs
// under in a real sweep.
func TestSamplerConcurrentObserve(t *testing.T) {
	var buf bytes.Buffer
	s := NewSampler(NewWriter(&buf, nil), metrics.New())
	if err := s.Start(Header{Experiment: "race"}, time.Millisecond); err != nil {
		t.Fatalf("Start: %v", err)
	}
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			cell := fmt.Sprintf("cell-%d", g)
			for i := 1; i <= 200; i++ {
				s.ObserveCell(cell, mc.Progress{Completed: i, Budget: 200})
			}
		}(g)
	}
	wg.Wait()
	if err := s.Stop(); err != nil {
		t.Fatalf("Stop: %v", err)
	}
	rep, err := Validate(buf.Bytes())
	if err != nil {
		t.Fatalf("Validate: %v", err)
	}
	if rep.Cells != 8 {
		t.Fatalf("cells = %d, want 8", rep.Cells)
	}
}

func TestSamplerBWSection(t *testing.T) {
	var buf bytes.Buffer
	clk := newFakeClock()
	s := NewSampler(NewWriter(&buf, nil), nil)
	s.now = clk.now
	rec := bwprofile.New(8)
	s.SetBW(rec)
	if err := s.Start(Header{Experiment: "test"}, time.Hour); err != nil {
		t.Fatalf("Start: %v", err)
	}
	rec.Observe(0, bwprofile.BusLogical, bwprofile.ClassPrep, 3, 6)
	rec.Observe(1, bwprofile.BusSync, bwprofile.ClassSync, 1, 2)
	clk.advance(2 * time.Second)
	if err := s.Sample(); err != nil {
		t.Fatalf("Sample: %v", err)
	}
	if err := s.Stop(); err != nil {
		t.Fatalf("Stop: %v", err)
	}
	st, err := ParseStream(buf.Bytes())
	if err != nil {
		t.Fatalf("ParseStream: %v", err)
	}
	if _, err := Validate(buf.Bytes()); err != nil {
		t.Fatalf("Validate: %v", err)
	}
	bw := st.Snapshots[0].BW
	if len(bw) != 2 {
		t.Fatalf("BW = %+v, want 2 buses", bw)
	}
	// Sorted by bus name: logical before sync.
	if bw[0].Bus != "logical" || bw[0].Instrs != 3 || bw[0].Bytes != 6 || bw[0].RatePerSec != 3 {
		t.Errorf("logical = %+v, want 3 instrs, 6 B, 3 B/s over 2s", bw[0])
	}
	if bw[1].Bus != "sync" || bw[1].Bytes != 2 || bw[1].RatePerSec != 1 {
		t.Errorf("sync = %+v, want 2 B at 1 B/s", bw[1])
	}
}

func TestValidateRejectsBadBW(t *testing.T) {
	header := `{"record":"header","schema":"quest-events/1","experiment":"e","go_version":"go","host":"h","pid":1,"start_ms":5}`
	for name, lines := range map[string][]string{
		"unsorted buses": {
			header,
			`{"record":"snapshot","seq":1,"ms":0,"bw":[{"bus":"sync","bytes":1},{"bus":"logical","bytes":1}],"runtime":{}}`,
		},
		"unnamed bus": {
			header,
			`{"record":"snapshot","seq":1,"ms":0,"bw":[{"bus":"","bytes":1}],"runtime":{}}`,
		},
		"negative rate": {
			header,
			`{"record":"snapshot","seq":1,"ms":0,"bw":[{"bus":"logical","rate_per_sec":-1}],"runtime":{}}`,
		},
		"cumulative bytes backwards": {
			header,
			`{"record":"snapshot","seq":1,"ms":0,"bw":[{"bus":"logical","bytes":9}],"runtime":{}}`,
			`{"record":"snapshot","seq":2,"ms":1,"bw":[{"bus":"logical","bytes":4}],"runtime":{}}`,
		},
	} {
		if _, err := Validate([]byte(strings.Join(lines, "\n") + "\n")); err == nil {
			t.Errorf("%s: accepted", name)
		}
	}
}
