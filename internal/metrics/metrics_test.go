package metrics

import (
	"bytes"
	"encoding/json"
	"fmt"
	"math"
	"strings"
	"sync"
	"testing"
)

// TestHistogramBucketBoundaries pins the binning convention: bucket i counts
// bounds[i-1] < v <= bounds[i], with one overflow bucket above the last
// bound. Off-by-one here would silently shift every quantile.
func TestHistogramBucketBoundaries(t *testing.T) {
	h := NewHistogram([]float64{10, 20, 40})
	cases := []struct {
		v    float64
		want int
	}{
		{-1, 0}, {0, 0}, {5, 0}, {10, 0}, // at the bound: inclusive below
		{10.0001, 1}, {20, 1},
		{20.5, 2}, {40, 2},
		{40.5, 3}, {1e9, 3}, // overflow bucket
	}
	for _, c := range cases {
		if got := h.bucketIndex(c.v); got != c.want {
			t.Errorf("bucketIndex(%v) = %d, want %d", c.v, got, c.want)
		}
	}
	for _, c := range cases {
		h.Observe(c.v)
	}
	counts := h.BucketCounts()
	want := []uint64{4, 2, 2, 2}
	for i := range want {
		if counts[i] != want[i] {
			t.Errorf("bucket %d count = %d, want %d (all: %v)", i, counts[i], want[i], counts)
		}
	}
	if h.Count() != 10 {
		t.Errorf("Count = %d, want 10", h.Count())
	}
}

func TestHistogramRejectsNonIncreasingBounds(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("NewHistogram accepted non-increasing bounds")
		}
	}()
	NewHistogram([]float64{10, 10, 20})
}

func TestLatencyBoundsAreIncreasing(t *testing.T) {
	b := LatencyBounds()
	if len(b) == 0 {
		t.Fatal("empty default bounds")
	}
	if b[0] != 64 {
		t.Errorf("first bound = %v, want 64", b[0])
	}
	for i := 1; i < len(b); i++ {
		if b[i] <= b[i-1] {
			t.Fatalf("bounds not increasing at %d: %v", i, b)
		}
	}
	if last := b[len(b)-1]; last < 4e9 {
		t.Errorf("last bound %v does not cover multi-second latencies", last)
	}
}

func TestHistogramQuantilesAndSummary(t *testing.T) {
	h := NewHistogram([]float64{1, 2, 4, 8, 16})
	// 100 observations uniform over (0, 10].
	for i := 1; i <= 100; i++ {
		h.Observe(float64(i) / 10)
	}
	s := h.Summary()
	if s.Count != 100 {
		t.Fatalf("count = %d", s.Count)
	}
	if math.Abs(s.Mean-5.05) > 1e-9 {
		t.Errorf("mean = %v, want 5.05", s.Mean)
	}
	if s.Min != 0.1 || s.Max != 10 {
		t.Errorf("min/max = %v/%v, want 0.1/10", s.Min, s.Max)
	}
	// p50 of uniform (0,10] is ~5; bucket interpolation puts it in (4,8].
	if s.P50 < 4 || s.P50 > 8 {
		t.Errorf("p50 = %v, want within (4, 8]", s.P50)
	}
	if s.P99 < s.P95 || s.P95 < s.P50 {
		t.Errorf("quantiles not monotone: p50=%v p95=%v p99=%v", s.P50, s.P95, s.P99)
	}
	if s.P99 > s.Max {
		t.Errorf("p99 %v exceeds max %v", s.P99, s.Max)
	}
}

// TestHistogramSingleValue: a constant distribution must report that constant
// at every quantile (the clamp-to-observed-range rule).
func TestHistogramSingleValue(t *testing.T) {
	h := NewHistogram([]float64{10, 100, 1000})
	for i := 0; i < 50; i++ {
		h.Observe(42)
	}
	s := h.Summary()
	for _, q := range []float64{s.P50, s.P95, s.P99} {
		if q != 42 {
			t.Errorf("quantile = %v, want exactly 42 (summary %+v)", q, s)
		}
	}
}

func TestHistogramEmptySummary(t *testing.T) {
	h := NewHistogram(nil)
	if s := h.Summary(); s != (HistogramSummary{}) {
		t.Errorf("empty histogram summary = %+v, want zero", s)
	}
}

// TestRegistryMerge is the per-worker shard contract: counters and histogram
// buckets add, gauges take the source value, and the merged histogram digest
// equals the digest of observing everything in one registry.
// TestNilRegistryIsFreeAndSafe pins the off switch: a nil registry hands
// out nil instruments, and every recording method of a nil instrument is a
// zero-allocation no-op whose reads are zero.
func TestNilRegistryIsFreeAndSafe(t *testing.T) {
	var r *Registry
	c, g, h := r.Counter("c"), r.Gauge("g"), r.Histogram("h", nil)
	if c != nil || g != nil || h != nil {
		t.Fatalf("nil registry handed out %p, %p, %p; want nil instruments", c, g, h)
	}
	allocs := testing.AllocsPerRun(100, func() {
		c.Add(2)
		c.Inc()
		g.Set(1.5)
		h.Observe(42)
	})
	if allocs != 0 {
		t.Errorf("nil instruments allocated %v per call set, want 0", allocs)
	}
	if c.Value() != 0 || g.Value() != 0 || h.Count() != 0 || h.Summary() != (HistogramSummary{}) {
		t.Errorf("nil instruments read %d, %g, %d, %+v; want zeros", c.Value(), g.Value(), h.Count(), h.Summary())
	}
}

func TestRegistryMerge(t *testing.T) {
	bounds := []float64{1, 10, 100}
	combined := New()
	dst := New()
	shards := []*Registry{New(), New(), New()}
	v := 0.0
	for si, sh := range shards {
		for i := 0; i < 20; i++ {
			v = math.Mod(v*7+3, 120)
			sh.Histogram("lat", bounds).Observe(v)
			combined.Histogram("lat", bounds).Observe(v)
		}
		sh.Counter("trials").Add(uint64(10 * (si + 1)))
		sh.Gauge("util").Set(float64(si))
	}
	for _, sh := range shards {
		dst.Merge(sh)
	}
	if got := dst.Counter("trials").Value(); got != 10+20+30 {
		t.Errorf("merged counter = %d, want 60", got)
	}
	if got := dst.Gauge("util").Value(); got != 2 {
		t.Errorf("merged gauge = %v, want 2 (last shard)", got)
	}
	if got, want := dst.Histogram("lat", bounds).Summary(), combined.Histogram("lat", bounds).Summary(); got != want {
		t.Errorf("merged summary %+v != combined %+v", got, want)
	}
}

func TestRegistryMergeMismatchedBoundsPanics(t *testing.T) {
	src := New()
	src.Histogram("h", []float64{1, 2}).Observe(1)
	dst := New()
	dst.Histogram("h", []float64{1, 2, 3})
	defer func() {
		if recover() == nil {
			t.Fatal("merge of mismatched bounds did not panic")
		}
	}()
	dst.Merge(src)
}

func TestRegistryResetKeepsInstruments(t *testing.T) {
	r := New()
	c := r.Counter("c")
	h := r.Histogram("h", nil)
	c.Add(5)
	h.Observe(128)
	r.Reset()
	if c.Value() != 0 || h.Count() != 0 {
		t.Fatalf("reset left state: counter=%d hist=%d", c.Value(), h.Count())
	}
	// The old handle must still be live (registrations survive Reset).
	c.Inc()
	if r.Counter("c").Value() != 1 {
		t.Fatal("counter handle detached by Reset")
	}
	if h.Summary() != (HistogramSummary{}) {
		t.Fatalf("reset histogram summary not zero: %+v", h.Summary())
	}
}

func TestSnapshotStableAndRenders(t *testing.T) {
	r := New()
	r.Counter("b.count").Add(2)
	r.Counter("a.count").Add(1)
	r.Gauge("z.util").Set(0.5)
	r.Histogram("m.lat", nil).Observe(100)
	s := r.Snapshot()
	if len(s.Counters) != 2 || s.Counters[0].Name != "a.count" {
		t.Fatalf("snapshot not sorted: %+v", s.Counters)
	}
	var text bytes.Buffer
	if err := s.WriteText(&text); err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{"a.count", "b.count", "z.util", "m.lat", "count=1"} {
		if !strings.Contains(text.String(), want) {
			t.Errorf("text dump missing %q:\n%s", want, text.String())
		}
	}
	var js bytes.Buffer
	if err := s.WriteJSON(&js); err != nil {
		t.Fatal(err)
	}
	var back Snapshot
	if err := json.Unmarshal(js.Bytes(), &back); err != nil {
		t.Fatalf("JSON round-trip: %v\n%s", err, js.String())
	}
	if len(back.Counters) != 2 || back.Counters[1].Value != 2 {
		t.Errorf("JSON round-trip lost data: %+v", back)
	}
}

// TestRegistryConcurrency exercises every mutation path under the race
// detector: concurrent get-or-create of the same names, observation, merge
// and snapshot.
func TestRegistryConcurrency(t *testing.T) {
	r := New()
	dst := New()
	var wg sync.WaitGroup
	for w := 0; w < 8; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			shard := New()
			for i := 0; i < 500; i++ {
				r.Counter("shared.count").Inc()
				r.Gauge("shared.gauge").Set(float64(i))
				r.Histogram("shared.lat", nil).Observe(float64(i%2000 + 1))
				shard.Counter("shard.count").Inc()
				shard.Histogram("shard.lat", nil).Observe(float64(i + 1))
			}
			dst.Merge(shard)
		}(w)
	}
	done := make(chan struct{})
	go func() {
		defer close(done)
		for i := 0; i < 50; i++ {
			_ = r.Snapshot()
			_ = dst.Snapshot()
		}
	}()
	wg.Wait()
	<-done
	if got := r.Counter("shared.count").Value(); got != 8*500 {
		t.Errorf("shared counter = %d, want %d", got, 8*500)
	}
	if got := dst.Counter("shard.count").Value(); got != 8*500 {
		t.Errorf("merged shard counter = %d, want %d", got, 8*500)
	}
	if got := dst.Histogram("shard.lat", nil).Count(); got != 8*500 {
		t.Errorf("merged shard histogram = %d, want %d", got, 8*500)
	}
}

func BenchmarkCounterInc(b *testing.B) {
	var c Counter
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		c.Inc()
	}
}

func BenchmarkHistogramObserve(b *testing.B) {
	h := NewHistogram(nil)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		h.Observe(float64(i&0xffff) + 1)
	}
}

// TestSnapshotDeterministicUnderConcurrentRegistration registers instruments
// from many goroutines (racing registration order), then pins that WriteText
// and WriteJSON both render name-sorted, identical output on repeated calls.
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
	render := func() (string, string) {
		var text, js bytes.Buffer
		s := r.Snapshot()
		if err := s.WriteText(&text); err != nil {
			t.Fatal(err)
		}
		if err := s.WriteJSON(&js); err != nil {
			t.Fatal(err)
		}
		return text.String(), js.String()
	}
	t1, j1 := render()
	t2, j2 := render()
	if t1 != t2 || j1 != j2 {
		t.Fatal("repeated renders of identical state differ")
	}
	// Sorted order: counter c.00 precedes c.49 in every format.
	for _, out := range []string{t1, j1} {
		a := strings.Index(out, "c.00")
		b := strings.Index(out, "c.49")
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
		ha.Observe(10) // v == bounds[0]: must land in bucket 0
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
