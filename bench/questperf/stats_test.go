package main

import (
	"bytes"
	"errors"
	"math"
	"path/filepath"
	"strings"
	"testing"
)

func near(a, b float64) bool { return math.Abs(a-b) < 1e-9 }

// The reference values are Python's statistics.quantiles(xs, n=4) and
// statistics.median(xs), which is how the spread of a benchmark metric is
// judged from outside.
func TestSummarizeMatchesPythonQuantiles(t *testing.T) {
	cases := []struct {
		xs             []float64
		q1, median, q3 float64
	}{
		{[]float64{2, 1}, 0.75, 1.5, 2.25},
		{[]float64{10, 9, 8, 7, 6, 5, 4, 3, 2, 1}, 2.75, 5.5, 8.25},
		{[]float64{3.1, 1.2, 5.5, 2.0, 9.9, 4.4, 7.0}, 2.0, 4.4, 7.0},
		{[]float64{4}, 4, 4, 4},
	}
	for _, c := range cases {
		s := summarize(c.xs)
		if !near(s.Q1, c.q1) || !near(s.Median, c.median) || !near(s.Q3, c.q3) || s.N != len(c.xs) {
			t.Errorf("summarize(%v) = %+v, want q1 %g median %g q3 %g", c.xs, s, c.q1, c.median, c.q3)
		}
	}
	if s := summarize([]float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}); !near(s.spread(), (8.25-2.75)/5.5) {
		t.Errorf("spread = %g", s.spread())
	}
	if s := summarize(nil); s.N != 0 || s.spread() != 0 {
		t.Errorf("empty summary = %+v", s)
	}
}

func TestPercentile(t *testing.T) {
	s := []float64{10, 20, 30, 40, 50}
	for _, c := range []struct{ q, want float64 }{{0, 10}, {0.5, 30}, {0.99, 49.6}, {1, 50}} {
		if got := percentile(s, c.q); !near(got, c.want) {
			t.Errorf("percentile(%g) = %g, want %g", c.q, got, c.want)
		}
	}
	if percentile(nil, 0.5) != 0 {
		t.Error("percentile of nothing should be 0")
	}
}

func TestBoundChecks(t *testing.T) {
	cases := []struct {
		name                string
		base, cur, spread   float64
		better              string
		bound, wantWorsened float64
		want                string
	}{
		{"slower within bound", 10, 10.9, 0.02, "lower", 0.1, 0.09, "ok"},
		{"slower past bound", 10, 11.5, 0.02, "lower", 0.1, 0.15, "regressed"},
		{"faster", 10, 8, 0.02, "lower", 0.1, -0.2, "ok"},
		{"throughput drop past bound", 1000, 850, 0.02, "higher", 0.1, 0.15, "regressed"},
		{"throughput rise", 1000, 1200, 0.02, "higher", 0.1, -0.2, "ok"},
		{"noisier than the bound", 10, 10.5, 0.3, "lower", 0.25, 0.05, "unresolved"},
		{"regression beats noise", 10, 14, 0.3, "lower", 0.25, 0.4, "regressed"},
	}
	for _, c := range cases {
		if got := worsening(c.base, c.cur, c.better); !near(got, c.wantWorsened) {
			t.Errorf("%s: worsening = %g, want %g", c.name, got, c.wantWorsened)
		}
		if got := verdict(c.base, c.cur, c.spread, c.better, c.bound); got != c.want {
			t.Errorf("%s: verdict = %s, want %s", c.name, got, c.want)
		}
	}
	if worsening(0, 5, "lower") != 0 {
		t.Error("a zero baseline cannot regress")
	}
}

// compareBaseline reads an earlier result.json and flags each end-to-end
// metric that worsened past its bound.
func TestCompareBaselineRoundTrip(t *testing.T) {
	spec := &benchSpec{EndToEnd: []metricSpec{
		{Name: "wall_s", Unit: "s", Better: "lower", Bound: 0.25},
		{Name: "work_per_s", Unit: "1/s", Better: "higher", Bound: 0.25},
	}}
	rep := func(wall, work float64) *report {
		m := func(name, better string, v float64) metricReport {
			s := summarize([]float64{v, v * 1.01, v * 1.02})
			return metricReport{Name: name, Better: better, Value: v, Summary: &s}
		}
		return &report{Schema: ResultSchema, Workloads: []workloadReport{{
			Name: "memory-sweep", EndToEnd: []metricReport{m("wall_s", "lower", wall), m("work_per_s", "higher", work)},
		}}}
	}
	path := filepath.Join(t.TempDir(), "base.json")
	if err := writeJSON(path, rep(1.0, 1000)); err != nil {
		t.Fatal(err)
	}
	var out bytes.Buffer
	if err := compareBaseline(&out, spec, path, rep(1.1, 950)); err != nil {
		t.Fatalf("a 10%% change within a 25%% bound failed: %v\n%s", err, out.String())
	}
	if strings.Count(out.String(), " ok\n") != 2 {
		t.Errorf("verdicts:\n%s", out.String())
	}
	out.Reset()
	err := compareBaseline(&out, spec, path, rep(1.3, 700))
	var re regressionError
	if !errors.As(err, &re) || re.n != 2 {
		t.Fatalf("err = %v, want 2 regressions\n%s", err, out.String())
	}
}
