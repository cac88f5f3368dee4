package core

import (
	"math"
	"strconv"
	"strings"
	"testing"
)

// TestExperimentTablesAreRectangular pins that every experiment's table,
// the validation table included, gives each row one cell per column.
func TestExperimentTablesAreRectangular(t *testing.T) {
	tables := map[string]Table{}
	for _, e := range Experiments {
		tab, err := e.Table(Run{Trials: 16})
		if err != nil {
			t.Fatalf("%s: %v", e.Name, err)
		}
		tables[e.Name] = tab
	}
	rows, err := Threshold(nil, nil, []float64{1e-3}, []int{3, 5}, 16, 0, SweepObs{})
	if err != nil {
		t.Fatal(err)
	}
	if tables["validation"], err = ValidationTable(rows); err != nil {
		t.Fatal(err)
	}
	for name, tab := range tables {
		if len(tab.Rows) > 0 && len(tab.Columns) == 0 {
			t.Errorf("%s: %d rows under no columns", name, len(tab.Rows))
		}
		for i, r := range tab.Rows {
			if len(r) != len(tab.Columns) {
				t.Errorf("%s row %d: %d cells under %d columns", name, i, len(r), len(tab.Columns))
			}
		}
	}
}

// TestFig6ShareNeverReads100Percent pins that Figure 6's share column
// cannot claim that every instruction is QECC: it prints the logical
// share, which is positive, and within 1% of the row's exact value.
func TestFig6ShareNeverReads100Percent(t *testing.T) {
	tab, err := fig6Table(Run{})
	if err != nil {
		t.Fatal(err)
	}
	rows := Fig6()
	for i, r := range tab.Rows {
		for _, c := range r {
			if v, err := strconv.ParseFloat(strings.TrimSuffix(c, "%"), 64); err == nil && strings.HasSuffix(c, "%") && v >= 100 {
				t.Errorf("%s: cell %q reads 100%%", r[0], c)
			}
		}
		share, err := strconv.ParseFloat(r[3], 64)
		if exact := rows[i].LogicalFrac; err != nil || !(share > 0) || math.Abs(share-exact) > 0.01*exact {
			t.Errorf("%s: share cell %q does not read the logical share %.3g", r[0], r[3], exact)
		}
	}
}

// TestValidationTableOrdering pins the one ordering rule: the second
// distance reads lower or higher than the first only when their Wilson
// intervals are disjoint. Rows that do not pair up are refused.
func TestValidationTableOrdering(t *testing.T) {
	row := func(p float64, d int, lo, hi float64) ThresholdRow {
		return ThresholdRow{PhysRate: p, Distance: d, FailRate: (lo + hi) / 2, WilsonLo: lo, WilsonHi: hi, Trials: 300}
	}
	tab, err := ValidationTable([]ThresholdRow{
		row(2e-3, 3, 0.10, 0.20), row(2e-3, 5, 0.01, 0.05),
		row(1e-3, 3, 0.01, 0.05), row(1e-3, 5, 0.10, 0.20),
		row(5e-4, 3, 0.01, 0.05), row(5e-4, 5, 0.04, 0.08),
	})
	if err != nil {
		t.Fatal(err)
	}
	if got := tab.Columns[3]; got != "d=5 against d=3" {
		t.Errorf("ordering column %q", got)
	}
	for i, want := range []string{"lower, intervals disjoint", "higher, intervals disjoint", "not resolved at 300 trials"} {
		if got := tab.Rows[i][3]; got != want {
			t.Errorf("row %d: %q, want %q", i, got, want)
		}
	}
	for _, bad := range [][]ThresholdRow{
		nil,
		{row(1e-3, 3, 0, 1)},
		{row(1e-3, 3, 0, 1), row(5e-4, 5, 0, 1)},
		{row(1e-3, 3, 0, 1), row(1e-3, 5, 0, 1), row(5e-4, 5, 0, 1), row(5e-4, 3, 0, 1)},
	} {
		if _, err := ValidationTable(bad); err == nil {
			t.Errorf("%d rows accepted: %+v", len(bad), bad)
		}
	}
}
