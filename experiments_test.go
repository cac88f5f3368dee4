package quest_test

import (
	"fmt"
	"os"
	"strings"
	"testing"

	"quest/internal/core"
)

// TestExperimentsValidationTable pins EXPERIMENTS.md's "Functional QECC
// validation" table to the code. It reruns the sweep `questbench -trials
// 400 threshold` prints, renders the table and compares it with the block
// between the file's two marker comments; any drift fails, and the message
// carries the fresh rendering. The last column names an ordering of d=5
// against d=3 only when their Wilson intervals are disjoint.
func TestExperimentsValidationTable(t *testing.T) {
	const (
		begin  = "<!-- begin generated: threshold-400 -->\n"
		end    = "<!-- end generated: threshold-400 -->"
		trials = 400
	)
	rates := []float64{2e-3, 1e-3, 5e-4}
	rows, err := core.Threshold(nil, nil, rates, []int{3, 5}, trials, 2, core.SweepObs{})
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 2*len(rates) {
		t.Fatalf("threshold sweep returned %d rows, want %d", len(rows), 2*len(rates))
	}
	cell := func(r core.ThresholdRow) string {
		return fmt.Sprintf("%.4f [%.4f, %.4f]", r.FailRate, r.WilsonLo, r.WilsonHi)
	}
	var b strings.Builder
	b.WriteString("| p_phys | d=3 fail (95% CI) | d=5 fail (95% CI) | d=5 against d=3 |\n|---|---|---|---|\n")
	for k := 0; k < len(rows); k += 2 {
		d3, d5 := rows[k], rows[k+1]
		if d3.Distance != 3 || d5.Distance != 5 || d3.PhysRate != d5.PhysRate {
			t.Fatalf("rows %d and %d are not a d=3, d=5 pair at one rate: %+v, %+v", k, k+1, d3, d5)
		}
		order := fmt.Sprintf("not resolved at %d trials", trials)
		switch {
		case d5.WilsonHi < d3.WilsonLo:
			order = "lower, intervals disjoint"
		case d5.WilsonLo > d3.WilsonHi:
			order = "higher, intervals disjoint"
		}
		fmt.Fprintf(&b, "| %.0e | %s | %s | %s |\n", d3.PhysRate, cell(d3), cell(d5), order)
	}
	want := b.String()

	data, err := os.ReadFile("EXPERIMENTS.md")
	if err != nil {
		t.Fatal(err)
	}
	doc := string(data)
	i, j := strings.Index(doc, begin), strings.Index(doc, end)
	if i < 0 || j < i {
		t.Fatalf("EXPERIMENTS.md has no %q ... %q block", strings.TrimSpace(begin), end)
	}
	if got := doc[i+len(begin) : j]; got != want {
		t.Errorf("EXPERIMENTS.md's validation table drifted from the code; the sweep renders:\n%s", want)
	}
}
