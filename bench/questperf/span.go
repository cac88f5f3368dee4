package main

import (
	"bufio"
	"encoding/json"
	"io"
	"sort"
	"strings"
	"time"

	"quest/internal/metrics"
)

// Trace groups the spans of one trial or run.
type Trace struct {
	ID    int    `json:"trace"`
	Name  string `json:"name"`
	Shape string `json:"shape"` // simulated size, e.g. "d3" or "d5x4" (distance × tiles)
}

// Span is one timed call into a layer, recorded by the benchmark around a
// public layer function. Name is "<layer>.<call>", except a trace's root
// span, whose self time is the replica's own glue.
type Span struct {
	ID     int    `json:"id"`
	Parent int    `json:"parent"` // 0 for a root span
	Trace  int    `json:"trace"`
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"` // since the recorder started
	End    int64  `json:"end_ns"`
	// Nested is the program's own busy time, from its registry histograms,
	// that elapsed inside a probed span, by the layer it belongs to.
	Nested map[string]int64 `json:"nested_ns,omitempty"`
	// Probe is the time this span's interval spent reading the registry
	// for probed children; it is measurement, not work, and is left out of
	// self time.
	Probe int64 `json:"probe_ns,omitempty"`

	probed bool
	before timerSums
}

// timerSums holds the nestedTimers' busy sums, in ns, at one instant.
type timerSums [len(nestedTimers)]float64

func (s *Span) dur() int64 { return s.End - s.Start }

// nestedTimers are the registry histograms that time work inside a replica
// span, with the layer each belongs to. They never overlap: an MCE cycle runs
// between the master's window flushes and per-round global decodes.
// decoder.match.ns runs inside both decoder timers, so it is not listed.
var nestedTimers = [...]struct{ hist, layer string }{
	{"mce.cycle.ns", "mce"},
	{"decoder.window.flush.ns", "decoder"},
	{"master.decode.ns", "decoder"},
}

// Recorder keeps spans in memory, in start order, for one goroutine.
type Recorder struct {
	t0     time.Time
	traces []Trace
	spans  []Span
	open   []int // indices into spans of the open spans, innermost last
	trace  int
	hists  []*metrics.Histogram
}

// NewRecorder starts a recorder whose probed spans read nestedTimers from reg.
func NewRecorder(reg *metrics.Registry) *Recorder {
	r := &Recorder{t0: time.Now()}
	for _, t := range nestedTimers {
		r.hists = append(r.hists, reg.Histogram(t.hist, nil))
	}
	return r
}

func (r *Recorder) now() int64 { return int64(time.Since(r.t0)) }

// StartTrace opens a new trace; spans begun afterwards belong to it.
func (r *Recorder) StartTrace(name, shape string) {
	r.trace = len(r.traces) + 1
	r.traces = append(r.traces, Trace{ID: r.trace, Name: name, Shape: shape})
}

// Begin opens a span nested in the innermost open one. A probed span also
// records how much of the nestedTimers' busy time elapsed inside it.
func (r *Recorder) Begin(name string, probe bool) {
	s := Span{ID: len(r.spans) + 1, Trace: r.trace, Name: name, probed: probe}
	if n := len(r.open); n > 0 {
		s.Parent = r.spans[r.open[n-1]].ID
	}
	if probe {
		t := r.now()
		s.before = r.read()
		s.Start = r.now()
		r.chargeProbe(s.Start - t)
	} else {
		s.Start = r.now()
	}
	r.open = append(r.open, len(r.spans))
	r.spans = append(r.spans, s)
}

// End closes the innermost open span.
func (r *Recorder) End() {
	end := r.now()
	i := r.open[len(r.open)-1]
	r.open = r.open[:len(r.open)-1]
	s := &r.spans[i]
	s.End = end
	if s.probed {
		after := r.read()
		s.Nested = map[string]int64{}
		for k, t := range nestedTimers {
			if d := int64(after[k] - s.before[k]); d > 0 {
				s.Nested[t.layer] += d
			}
		}
		r.chargeProbe(r.now() - end)
	}
}

// Do runs fn inside a span.
func (r *Recorder) Do(name string, fn func()) {
	r.Begin(name, false)
	fn()
	r.End()
}

// DoProbed runs fn inside a probed span.
func (r *Recorder) DoProbed(name string, fn func()) {
	r.Begin(name, true)
	fn()
	r.End()
}

func (r *Recorder) read() (out timerSums) {
	for i, h := range r.hists {
		out[i] = h.Summary().Sum
	}
	return out
}

func (r *Recorder) chargeProbe(d int64) {
	if n := len(r.open); n > 0 {
		r.spans[r.open[n-1]].Probe += d
	}
}

// Spans returns the recorded spans; all must be closed.
func (r *Recorder) Spans() []Span { return r.spans }

// Traces returns the recorded traces.
func (r *Recorder) Traces() []Trace { return r.traces }

// layerOf names the layer a span's self time belongs to: the part of its
// name before the first dot, or "unattributed" for a root span.
func layerOf(s *Span) string {
	if s.Parent == 0 {
		return "unattributed"
	}
	layer, _, _ := strings.Cut(s.Name, ".")
	return layer
}

// account splits the spans' time among layers. A span's self time is its
// duration minus its children's durations, the probe time charged to it,
// and the registry busy time nested in it (which goes to that timer's layer
// instead); a probed child's nested time is taken out of its nearest probed
// ancestor's, so none is counted twice. total is the root spans' time less
// all probe time, so the layers sum to it.
func account(spans []Span) (layers map[string]int64, total int64) {
	layers = map[string]int64{}
	byID := make(map[int]int, len(spans))
	for i := range spans {
		byID[spans[i].ID] = i
	}
	self := make([]int64, len(spans))
	nested := make([]map[string]int64, len(spans))
	for i := range spans {
		s := &spans[i]
		self[i] += s.dur() - s.Probe
		total -= s.Probe
		if s.Parent == 0 {
			total += s.dur()
		} else {
			self[byID[s.Parent]] -= s.dur()
		}
		if s.Nested != nil {
			nested[i] = map[string]int64{}
			for k, v := range s.Nested {
				nested[i][k] += v
			}
		}
	}
	for i := range spans {
		if spans[i].Nested == nil {
			continue
		}
		for p := spans[i].Parent; p != 0; p = spans[byID[p]].Parent {
			if a := byID[p]; nested[a] != nil {
				for k, v := range spans[i].Nested {
					nested[a][k] -= v
				}
				break
			}
		}
	}
	for i := range spans {
		for k, v := range nested[i] {
			self[i] -= v
			layers[k] += v
		}
		layers[layerOf(&spans[i])] += self[i]
	}
	return layers, total
}

// writeTrace writes the traces and spans as JSON lines: one {"kind":"trace"}
// record per trace, then one {"kind":"span"} record per span in start order.
func writeTrace(w io.Writer, workload string, traces []Trace, spans []Span) error {
	bw := bufio.NewWriter(w)
	enc := json.NewEncoder(bw)
	for _, t := range traces {
		if err := enc.Encode(struct {
			Kind     string `json:"kind"`
			Workload string `json:"workload"`
			Trace
		}{"trace", workload, t}); err != nil {
			return err
		}
	}
	for _, s := range spans {
		if err := enc.Encode(struct {
			Kind     string `json:"kind"`
			Workload string `json:"workload"`
			Span
		}{"span", workload, s}); err != nil {
			return err
		}
	}
	return bw.Flush()
}

// durations returns the sorted durations, in ns, of the spans with the given
// name whose trace has the given shape ("" matches any shape).
func durations(traces []Trace, spans []Span, name, shape string) []float64 {
	var out []float64
	for i := range spans {
		s := &spans[i]
		if s.Name != name || (shape != "" && traces[s.Trace-1].Shape != shape) {
			continue
		}
		out = append(out, float64(s.dur()))
	}
	sort.Float64s(out)
	return out
}

// perTrace sums, per trace, the durations of the spans with any of the given
// names, and returns the sorted sums in ns.
func perTrace(spans []Span, names ...string) []float64 {
	sums := map[int]float64{}
	for i := range spans {
		for _, n := range names {
			if spans[i].Name == n {
				sums[spans[i].Trace] += float64(spans[i].dur())
			}
		}
	}
	out := make([]float64, 0, len(sums))
	for _, v := range sums {
		out = append(out, v)
	}
	sort.Float64s(out)
	return out
}
