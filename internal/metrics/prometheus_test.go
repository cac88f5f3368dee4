package metrics

import (
	"bytes"
	"fmt"
	"math"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"
)

func TestPrometheusName(t *testing.T) {
	cases := map[string]string{
		"master.decode.ns":  "quest_master_decode_ns",
		"mc.trials_per_sec": "quest_mc_trials_per_sec",
		"noc.hops/max":      "quest_noc_hops_max",
		"weird-name.2":      "quest_weird_name_2",
		"UPPER.case":        "quest_UPPER_case",
		"colon:ok":          "quest_colon:ok",
	}
	for in, want := range cases {
		if got := PrometheusName(in); got != want {
			t.Errorf("PrometheusName(%q) = %q, want %q", in, got, want)
		}
	}
}

// TestWritePrometheusExposition pins the exposition shape: every counter,
// gauge and histogram appears with a TYPE line; histogram buckets are
// cumulative and end at +Inf; output is sorted and deterministic.
func TestWritePrometheusExposition(t *testing.T) {
	r := New()
	r.Counter("master.dispatched").Add(7)
	r.Gauge("mc.trials_per_sec").Set(1234.5)
	h := r.Histogram("decode.ns", []float64{10, 20, 40})
	for _, v := range []float64{5, 15, 15, 100} {
		h.Observe(v)
	}
	var buf bytes.Buffer
	if err := r.WritePrometheus(&buf); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	for _, want := range []string{
		"# TYPE quest_master_dispatched counter\nquest_master_dispatched 7\n",
		"# TYPE quest_mc_trials_per_sec gauge\nquest_mc_trials_per_sec 1234.5\n",
		"# TYPE quest_decode_ns histogram\n",
		`quest_decode_ns_bucket{le="10"} 1`,
		`quest_decode_ns_bucket{le="20"} 3`,
		`quest_decode_ns_bucket{le="40"} 3`,
		`quest_decode_ns_bucket{le="+Inf"} 4`,
		"quest_decode_ns_sum 135\n",
		"quest_decode_ns_count 4\n",
	} {
		if !strings.Contains(out, want) {
			t.Errorf("exposition missing %q:\n%s", want, out)
		}
	}
	var buf2 bytes.Buffer
	if err := r.WritePrometheus(&buf2); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(buf.Bytes(), buf2.Bytes()) {
		t.Error("two scrapes of identical state differ")
	}
}

// TestWritePrometheusCoversEveryInstrument is the acceptance-criterion check
// in miniature: every registered instrument name must appear in the scrape.
func TestWritePrometheusCoversEveryInstrument(t *testing.T) {
	r := New()
	var names []string
	for i := 0; i < 20; i++ {
		c := fmt.Sprintf("c.%d", i)
		g := fmt.Sprintf("g.%d", i)
		h := fmt.Sprintf("h.%d", i)
		r.Counter(c).Inc()
		r.Gauge(g).Set(float64(i))
		r.Histogram(h, nil).Observe(float64(i))
		names = append(names, c, g, h)
	}
	var buf bytes.Buffer
	if err := r.WritePrometheus(&buf); err != nil {
		t.Fatal(err)
	}
	for _, n := range names {
		if !strings.Contains(buf.String(), PrometheusName(n)) {
			t.Errorf("scrape missing instrument %q", n)
		}
	}
}

func TestPrometheusHandler(t *testing.T) {
	r := New()
	r.Counter("x.y").Add(3)
	r.Gauge("nan.gauge").Set(math.NaN())
	srv := httptest.NewServer(Handler(r))
	defer srv.Close()
	resp, err := srv.Client().Get(srv.URL)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var buf bytes.Buffer
	if _, err := buf.ReadFrom(resp.Body); err != nil {
		t.Fatal(err)
	}
	if ct := resp.Header.Get("Content-Type"); !strings.Contains(ct, "version=0.0.4") {
		t.Errorf("content type %q lacks exposition version", ct)
	}
	if !strings.Contains(buf.String(), "quest_x_y 3") {
		t.Errorf("handler response missing counter:\n%s", buf.String())
	}
	if !strings.Contains(buf.String(), "quest_nan_gauge NaN") {
		t.Errorf("handler response missing NaN gauge:\n%s", buf.String())
	}
}

// TestSnapshotDeterministicUnderConcurrentRegistration registers instruments
// from many goroutines (racing registration order), then pins that WriteText,
// WriteJSON and WritePrometheus all render name-sorted, identical output on
// repeated calls — the satellite-3 determinism contract.
func TestSnapshotDeterministicUnderConcurrentRegistration(t *testing.T) {
	r := New()
	var wg sync.WaitGroup
	for w := 0; w < 8; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < 50; i++ {
				r.Counter(fmt.Sprintf("c.%02d", i)).Inc()
				r.Gauge(fmt.Sprintf("g.%02d", i)).Set(float64(i))
				r.Histogram(fmt.Sprintf("h.%02d", i), []float64{1, 2}).Observe(1)
			}
		}(w)
	}
	wg.Wait()
	render := func() (string, string, string) {
		var text, js, prom bytes.Buffer
		s := r.Snapshot()
		if err := s.WriteText(&text); err != nil {
			t.Fatal(err)
		}
		if err := s.WriteJSON(&js); err != nil {
			t.Fatal(err)
		}
		if err := r.WritePrometheus(&prom); err != nil {
			t.Fatal(err)
		}
		return text.String(), js.String(), prom.String()
	}
	t1, j1, p1 := render()
	t2, j2, p2 := render()
	if t1 != t2 || j1 != j2 || p1 != p2 {
		t.Fatal("repeated renders of identical state differ")
	}
	// Sorted order: counter c.00 precedes c.49 in every format.
	for _, out := range []string{t1, j1, p1} {
		a := strings.Index(out, "c_00")
		if a < 0 {
			a = strings.Index(out, "c.00")
		}
		b := strings.Index(out, "c_49")
		if b < 0 {
			b = strings.Index(out, "c.49")
		}
		if a < 0 || b < 0 || a > b {
			t.Errorf("output not name-sorted (c.00 at %d, c.49 at %d)", a, b)
		}
	}
}

// TestWriteTextSortsHandBuiltSnapshot pins the defensive re-sort: a Snapshot
// assembled out of order still renders sorted.
func TestWriteTextSortsHandBuiltSnapshot(t *testing.T) {
	s := Snapshot{
		Counters: []CounterSnapshot{{Name: "z.last", Value: 1}, {Name: "a.first", Value: 2}},
	}
	var text, js bytes.Buffer
	if err := s.WriteText(&text); err != nil {
		t.Fatal(err)
	}
	if err := s.WriteJSON(&js); err != nil {
		t.Fatal(err)
	}
	for _, out := range []string{text.String(), js.String()} {
		if strings.Index(out, "a.first") > strings.Index(out, "z.last") {
			t.Errorf("hand-built snapshot rendered unsorted:\n%s", out)
		}
	}
	if len(s.Counters) != 2 || s.Counters[0].Name != "z.last" {
		t.Error("WriteText mutated the caller's snapshot")
	}
}

// TestQuantileAtBucketBoundariesAfterMerge pins Quantile behaviour at exact
// bucket boundaries for a histogram assembled by merging disjoint shards —
// the shape every mc.RunBatch aggregation produces.
func TestQuantileAtBucketBoundariesAfterMerge(t *testing.T) {
	bounds := []float64{10, 20, 30, 40}
	a, b := New(), New()
	ha := a.Histogram("lat", bounds)
	hb := b.Histogram("lat", bounds)
	// Shard a fills only the first bucket with the boundary value itself;
	// shard b fills only the third. Disjoint buckets merge by addition.
	for i := 0; i < 50; i++ {
		ha.Observe(10) // v == bounds[0]: must land in bucket 0 (le="10")
	}
	for i := 0; i < 50; i++ {
		hb.Observe(30) // v == bounds[2]
	}
	m := New()
	m.Merge(a)
	m.Merge(b)
	h := m.Histogram("lat", bounds)
	if h.Count() != 100 {
		t.Fatalf("merged count = %d, want 100", h.Count())
	}
	got := h.BucketCounts()
	want := []uint64{50, 0, 50, 0, 0}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("merged buckets = %v, want %v", got, want)
		}
	}
	// Quantiles are deterministic functions of the merged buckets, clamped to
	// the observed [min, max] = [10, 30].
	if q := h.Quantile(0.25); q < 10 || q > 10+1e-9 {
		t.Errorf("p25 = %v, want 10 (inside first bucket, clamped to min)", q)
	}
	if q := h.Quantile(0.5); q != 10 {
		t.Errorf("p50 = %v, want exactly 10 (rank lands on bucket-0 boundary)", q)
	}
	if q := h.Quantile(0.75); q < 20 || q > 30 {
		t.Errorf("p75 = %v, want inside (20,30]", q)
	}
	if q := h.Quantile(0.99); q > 30 {
		t.Errorf("p99 = %v, want ≤ 30 (clamped to observed max)", q)
	}
	// Merge order must not matter.
	m2 := New()
	m2.Merge(b)
	m2.Merge(a)
	h2 := m2.Histogram("lat", bounds)
	for _, q := range []float64{0.25, 0.5, 0.75, 0.95, 0.99} {
		if h.Quantile(q) != h2.Quantile(q) {
			t.Errorf("quantile %v depends on merge order: %v vs %v", q, h.Quantile(q), h2.Quantile(q))
		}
	}
}
