// Package metrics is the repository's instrumentation layer: a small,
// dependency-free, concurrency-safe registry of named counters, gauges and
// fixed-bucket latency histograms. The paper's whole evaluation is a set of
// rate and latency claims — instruction bandwidth per decoding approach,
// per-round decode latency, sustained trial throughput — and this package is
// how the running code exposes those quantities instead of asserting them.
//
// Design points:
//
//   - All mutation is lock-free (atomics); the registry lock is taken only on
//     first registration of a name, so instruments resolved once and hit in a
//     hot loop never contend on a mutex.
//   - Instruments are injectable: packages record against a *Registry they
//     are handed (defaulting to the package-level Default), so a worker pool
//     can give each goroutine a private shard registry and Merge the shards
//     after the pool drains — per-worker aggregation with zero cross-worker
//     cache-line traffic (see mc.RunBatch).
//   - Off means off: a nil *Registry hands out nil instruments, and every
//     method of a nil instrument does nothing. The binaries set Default to
//     nil unless -metrics asks for a dump, and the timed components read the
//     wall clock only when their histogram is non-nil.
//   - Histograms use fixed bucket boundaries, so merging shards is a plain
//     per-bucket add, and quantile summaries (p50/p95/p99) are deterministic
//     functions of the bucket counts.
//   - Observation never feeds back into simulation results: removing every
//     metric call changes nothing but the report. The determinism tests in
//     internal/core pin that property.
package metrics

import (
	"encoding/json"
	"fmt"
	"io"
	"math"
	"sort"
	"sync"
	"sync/atomic"
)

// Counter is a monotonically increasing atomic counter.
type Counter struct {
	n atomic.Uint64
}

// Add increments the counter by d. A nil counter ignores it.
func (c *Counter) Add(d uint64) {
	if c != nil {
		c.n.Add(d)
	}
}

// Inc increments the counter by one. A nil counter ignores it.
func (c *Counter) Inc() { c.Add(1) }

// Value returns the current count (zero for a nil counter).
func (c *Counter) Value() uint64 {
	if c == nil {
		return 0
	}
	return c.n.Load()
}

// Gauge is an instantaneous float64 value (occupancy, utilization, rate).
type Gauge struct {
	bits atomic.Uint64
}

// Set stores v. A nil gauge ignores it.
func (g *Gauge) Set(v float64) {
	if g != nil {
		g.bits.Store(math.Float64bits(v))
	}
}

// Value returns the last stored value (zero if never set, and for a nil
// gauge).
func (g *Gauge) Value() float64 {
	if g == nil {
		return 0
	}
	return math.Float64frombits(g.bits.Load())
}

// atomicFloat accumulates float64 values with a CAS loop.
type atomicFloat struct {
	bits atomic.Uint64
}

func (f *atomicFloat) store(v float64) { f.bits.Store(math.Float64bits(v)) }
func (f *atomicFloat) load() float64   { return math.Float64frombits(f.bits.Load()) }

func (f *atomicFloat) add(d float64) {
	for {
		old := f.bits.Load()
		v := math.Float64frombits(old) + d
		if f.bits.CompareAndSwap(old, math.Float64bits(v)) {
			return
		}
	}
}

func (f *atomicFloat) min(v float64) {
	for {
		old := f.bits.Load()
		cur := math.Float64frombits(old)
		if v >= cur {
			return
		}
		if f.bits.CompareAndSwap(old, math.Float64bits(v)) {
			return
		}
	}
}

func (f *atomicFloat) max(v float64) {
	for {
		old := f.bits.Load()
		cur := math.Float64frombits(old)
		if v <= cur {
			return
		}
		if f.bits.CompareAndSwap(old, math.Float64bits(v)) {
			return
		}
	}
}

// Histogram is a fixed-bucket histogram. Bucket i counts observations v with
// bounds[i-1] < v <= bounds[i]; one overflow bucket catches v > bounds[last].
// Because the boundaries are fixed at construction, two histograms with the
// same bounds merge by per-bucket addition, and quantiles are deterministic.
type Histogram struct {
	bounds  []float64
	buckets []atomic.Uint64
	count   atomic.Uint64
	sum     atomicFloat
	min     atomicFloat
	max     atomicFloat
}

// NewHistogram builds a histogram over the given strictly increasing upper
// bounds. A nil or empty bounds slice uses LatencyBounds.
func NewHistogram(bounds []float64) *Histogram {
	if len(bounds) == 0 {
		bounds = LatencyBounds()
	}
	for i := 1; i < len(bounds); i++ {
		if bounds[i] <= bounds[i-1] {
			panic(fmt.Sprintf("metrics: histogram bounds not increasing at %d: %v", i, bounds))
		}
	}
	h := &Histogram{
		bounds:  append([]float64(nil), bounds...),
		buckets: make([]atomic.Uint64, len(bounds)+1),
	}
	h.min.store(math.Inf(1))
	h.max.store(math.Inf(-1))
	return h
}

// LatencyBounds returns the default latency bucket boundaries in nanoseconds:
// powers of two from 64ns to ~4.3s. Wide enough for a single map lookup and
// for a full threshold sweep cell.
func LatencyBounds() []float64 {
	bounds := make([]float64, 27)
	v := 64.0
	for i := range bounds {
		bounds[i] = v
		v *= 2
	}
	return bounds
}

// Observe records one value. A nil histogram ignores it; callers that time
// what they observe check for nil first, so an unobserved span reads no
// clock.
func (h *Histogram) Observe(v float64) {
	if h == nil {
		return
	}
	h.buckets[h.bucketIndex(v)].Add(1)
	h.count.Add(1)
	h.sum.add(v)
	h.min.min(v)
	h.max.max(v)
}

// bucketIndex returns the bucket for v (binary search over the bounds).
func (h *Histogram) bucketIndex(v float64) int {
	lo, hi := 0, len(h.bounds)
	for lo < hi {
		mid := (lo + hi) / 2
		if v <= h.bounds[mid] {
			hi = mid
		} else {
			lo = mid + 1
		}
	}
	return lo
}

// Count returns the number of observations (zero for a nil histogram).
func (h *Histogram) Count() uint64 {
	if h == nil {
		return 0
	}
	return h.count.Load()
}

// BucketCounts returns a copy of the per-bucket counts (one per bound plus
// the last, overflow bucket).
func (h *Histogram) BucketCounts() []uint64 {
	out := make([]uint64, len(h.buckets))
	for i := range h.buckets {
		out[i] = h.buckets[i].Load()
	}
	return out
}

// Quantile estimates the q-th quantile (0 < q < 1) by linear interpolation
// inside the bucket holding the target rank. The estimate is clamped to the
// observed [min, max], so exact single-value distributions report exactly.
func (h *Histogram) Quantile(q float64) float64 {
	total := h.count.Load()
	if total == 0 {
		return 0
	}
	rank := q * float64(total)
	cum := 0.0
	for i := range h.buckets {
		n := float64(h.buckets[i].Load())
		if n == 0 {
			continue
		}
		if cum+n >= rank {
			lower := 0.0
			if i > 0 {
				lower = h.bounds[i-1]
			}
			upper := h.max.load()
			if i < len(h.bounds) {
				upper = h.bounds[i]
			}
			frac := (rank - cum) / n
			v := lower + frac*(upper-lower)
			return clampFloat(v, h.min.load(), h.max.load())
		}
		cum += n
	}
	return h.max.load()
}

func clampFloat(v, lo, hi float64) float64 {
	if v < lo {
		return lo
	}
	if v > hi {
		return hi
	}
	return v
}

// HistogramSummary is a point-in-time digest of a histogram.
type HistogramSummary struct {
	Count uint64  `json:"count"`
	Sum   float64 `json:"sum"`
	Min   float64 `json:"min"`
	Max   float64 `json:"max"`
	Mean  float64 `json:"mean"`
	P50   float64 `json:"p50"`
	P95   float64 `json:"p95"`
	P99   float64 `json:"p99"`
}

// Summary digests the histogram. An empty or nil histogram reports all
// zeros.
func (h *Histogram) Summary() HistogramSummary {
	n := h.Count()
	if n == 0 {
		return HistogramSummary{}
	}
	sum := h.sum.load()
	return HistogramSummary{
		Count: n,
		Sum:   sum,
		Min:   h.min.load(),
		Max:   h.max.load(),
		Mean:  sum / float64(n),
		P50:   h.Quantile(0.50),
		P95:   h.Quantile(0.95),
		P99:   h.Quantile(0.99),
	}
}

// Registry is a named collection of instruments. The zero value is not
// usable; construct with New. All methods are safe for concurrent use. A nil
// *Registry is the registry that is off: its lookups return nil instruments,
// which record nothing.
type Registry struct {
	mu       sync.RWMutex
	counters map[string]*Counter
	gauges   map[string]*Gauge
	hists    map[string]*Histogram
}

// New returns an empty registry.
func New() *Registry {
	return &Registry{
		counters: make(map[string]*Counter),
		gauges:   make(map[string]*Gauge),
		hists:    make(map[string]*Histogram),
	}
}

// Default is the process-wide registry. Packages record here unless handed an
// explicit instance (worker shards, tests that must not share state). The
// binaries set it to nil, instruments off, unless -metrics asks for a dump
// (obsflags.Start).
var Default = New()

// Counter returns the named counter, creating it on first use. A nil
// registry returns nil.
func (r *Registry) Counter(name string) *Counter {
	if r == nil {
		return nil
	}
	r.mu.RLock()
	c := r.counters[name]
	r.mu.RUnlock()
	if c != nil {
		return c
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	if c = r.counters[name]; c == nil {
		c = &Counter{}
		r.counters[name] = c
	}
	return c
}

// Gauge returns the named gauge, creating it on first use. A nil registry
// returns nil.
func (r *Registry) Gauge(name string) *Gauge {
	if r == nil {
		return nil
	}
	r.mu.RLock()
	g := r.gauges[name]
	r.mu.RUnlock()
	if g != nil {
		return g
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	if g = r.gauges[name]; g == nil {
		g = &Gauge{}
		r.gauges[name] = g
	}
	return g
}

// Histogram returns the named histogram, creating it with the given bounds on
// first use (nil bounds = LatencyBounds). Later callers get the existing
// histogram regardless of the bounds they pass; mixing bounds under one name
// is a programming error the first registration wins. A nil registry returns
// nil.
func (r *Registry) Histogram(name string, bounds []float64) *Histogram {
	if r == nil {
		return nil
	}
	r.mu.RLock()
	h := r.hists[name]
	r.mu.RUnlock()
	if h != nil {
		return h
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	if h = r.hists[name]; h == nil {
		h = NewHistogram(bounds)
		r.hists[name] = h
	}
	return h
}

// Merge folds src into r: counters and histogram buckets add, gauges take
// src's value. Histograms sharing a name must share bounds (they do when both
// sides were produced by the same instrumented code, the shard use case);
// mismatched bounds panic rather than silently mis-binning.
func (r *Registry) Merge(src *Registry) {
	src.mu.RLock()
	defer src.mu.RUnlock()
	for name, c := range src.counters {
		if v := c.Value(); v != 0 {
			r.Counter(name).Add(v)
		}
	}
	for name, g := range src.gauges {
		r.Gauge(name).Set(g.Value())
	}
	for name, sh := range src.hists {
		if sh.Count() == 0 {
			continue
		}
		dh := r.Histogram(name, sh.bounds)
		if len(dh.bounds) != len(sh.bounds) {
			panic(fmt.Sprintf("metrics: merge of histogram %q with mismatched bounds", name))
		}
		for i := range dh.bounds {
			if dh.bounds[i] != sh.bounds[i] {
				panic(fmt.Sprintf("metrics: merge of histogram %q with mismatched bounds", name))
			}
		}
		for i := range sh.buckets {
			if n := sh.buckets[i].Load(); n != 0 {
				dh.buckets[i].Add(n)
			}
		}
		dh.count.Add(sh.count.Load())
		dh.sum.add(sh.sum.load())
		dh.min.min(sh.min.load())
		dh.max.max(sh.max.load())
	}
}

// Reset zeroes every registered instrument in place (registrations survive,
// so instruments resolved earlier keep recording).
func (r *Registry) Reset() {
	r.mu.RLock()
	defer r.mu.RUnlock()
	for _, c := range r.counters {
		c.n.Store(0)
	}
	for _, g := range r.gauges {
		g.bits.Store(0)
	}
	for _, h := range r.hists {
		for i := range h.buckets {
			h.buckets[i].Store(0)
		}
		h.count.Store(0)
		h.sum.store(0)
		h.min.store(math.Inf(1))
		h.max.store(math.Inf(-1))
	}
}

// CounterSnapshot is one counter in a Snapshot.
type CounterSnapshot struct {
	Name  string `json:"name"`
	Value uint64 `json:"value"`
}

// GaugeSnapshot is one gauge in a Snapshot.
type GaugeSnapshot struct {
	Name  string  `json:"name"`
	Value float64 `json:"value"`
}

// HistogramSnapshot is one histogram in a Snapshot.
type HistogramSnapshot struct {
	Name    string           `json:"name"`
	Summary HistogramSummary `json:"summary"`
}

// Snapshot is a stable, name-sorted copy of a registry's state.
type Snapshot struct {
	Counters   []CounterSnapshot   `json:"counters"`
	Gauges     []GaugeSnapshot     `json:"gauges"`
	Histograms []HistogramSnapshot `json:"histograms"`
}

// Snapshot captures the registry. Output order is sorted by name, so two
// snapshots of identical state render identically.
func (r *Registry) Snapshot() Snapshot {
	r.mu.RLock()
	defer r.mu.RUnlock()
	var s Snapshot
	for name, c := range r.counters {
		s.Counters = append(s.Counters, CounterSnapshot{Name: name, Value: c.Value()})
	}
	for name, g := range r.gauges {
		s.Gauges = append(s.Gauges, GaugeSnapshot{Name: name, Value: g.Value()})
	}
	for name, h := range r.hists {
		s.Histograms = append(s.Histograms, HistogramSnapshot{Name: name, Summary: h.Summary()})
	}
	return s.sorted()
}

// sorted returns the snapshot with every section ordered by name. Snapshot()
// already sorts, but WriteText/WriteJSON re-sort defensively so hand-built or
// mutated Snapshot values (and any future unsorted producer) still render
// deterministically — the property CI diffs and the golden tests rely on.
func (s Snapshot) sorted() Snapshot {
	s.Counters = append([]CounterSnapshot(nil), s.Counters...)
	s.Gauges = append([]GaugeSnapshot(nil), s.Gauges...)
	s.Histograms = append([]HistogramSnapshot(nil), s.Histograms...)
	sort.Slice(s.Counters, func(i, j int) bool { return s.Counters[i].Name < s.Counters[j].Name })
	sort.Slice(s.Gauges, func(i, j int) bool { return s.Gauges[i].Name < s.Gauges[j].Name })
	sort.Slice(s.Histograms, func(i, j int) bool { return s.Histograms[i].Name < s.Histograms[j].Name })
	return s
}

// WriteText renders the snapshot as aligned text, one instrument per line,
// sorted by name regardless of the receiver's order.
func (s Snapshot) WriteText(w io.Writer) error {
	s = s.sorted()
	for _, c := range s.Counters {
		if _, err := fmt.Fprintf(w, "counter   %-40s %d\n", c.Name, c.Value); err != nil {
			return err
		}
	}
	for _, g := range s.Gauges {
		if _, err := fmt.Fprintf(w, "gauge     %-40s %g\n", g.Name, g.Value); err != nil {
			return err
		}
	}
	for _, h := range s.Histograms {
		sum := h.Summary
		if _, err := fmt.Fprintf(w,
			"histogram %-40s count=%d mean=%.4g p50=%.4g p95=%.4g p99=%.4g max=%.4g\n",
			h.Name, sum.Count, sum.Mean, sum.P50, sum.P95, sum.P99, sum.Max); err != nil {
			return err
		}
	}
	return nil
}

// WriteJSON renders the snapshot as indented JSON, sorted by name regardless
// of the receiver's order.
func (s Snapshot) WriteJSON(w io.Writer) error {
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(s.sorted())
}
