package chart

import (
	"strings"
	"testing"
)

func TestHeatmapRendersRampAndZeros(t *testing.T) {
	grid := [][]int64{
		{0, 1, 25},
		{50, 100, 0},
	}
	out, err := Heatmap(grid, HeatmapOptions{Title: "defects", Legend: true})
	if err != nil {
		t.Fatal(err)
	}
	if !strings.HasPrefix(out, "defects\n") {
		t.Errorf("missing title:\n%s", out)
	}
	lines := strings.Split(strings.TrimRight(out, "\n"), "\n")
	// title, header, 2 rows, legend
	if len(lines) != 5 {
		t.Fatalf("got %d lines, want 5:\n%s", len(lines), out)
	}
	row0, row1 := lines[2], lines[3]
	if !strings.Contains(row0, "r0 |·") {
		t.Errorf("zero cell not rendered as '·': %q", row0)
	}
	if !strings.Contains(row1, "█") {
		t.Errorf("max cell not rendered as '█': %q", row1)
	}
	// Any non-zero count must shade, even 1/100.
	if strings.Count(row0, "·") != 1 {
		t.Errorf("non-zero cells rendered as zero: %q", row0)
	}
	if !strings.Contains(lines[4], "·=0") {
		t.Errorf("legend missing zero key: %q", lines[4])
	}
}

// mustHeatmap renders grid with default options, failing the test on error.
func mustHeatmap(t *testing.T, grid [][]int64) string {
	t.Helper()
	s, err := Heatmap(grid, HeatmapOptions{})
	if err != nil {
		t.Fatal(err)
	}
	return s
}

func TestHeatmapDeterministic(t *testing.T) {
	grid := [][]int64{{3, 0, 9}, {1, 7, 2}, {0, 0, 4}}
	a := mustHeatmap(t, grid)
	b := mustHeatmap(t, grid)
	if a != b {
		t.Error("identical grids rendered differently")
	}
}

func TestHeatmapAllZero(t *testing.T) {
	out, err := Heatmap([][]int64{{0, 0}, {0, 0}}, HeatmapOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if strings.ContainsAny(out, "░▒▓█") {
		t.Errorf("all-zero grid produced shading:\n%s", out)
	}
}

func TestHeatmapErrors(t *testing.T) {
	if _, err := Heatmap(nil, HeatmapOptions{}); err == nil {
		t.Error("empty grid accepted")
	}
	if _, err := Heatmap([][]int64{{}}, HeatmapOptions{}); err == nil {
		t.Error("zero-column grid accepted")
	}
	if _, err := Heatmap([][]int64{{1, 2}, {3}}, HeatmapOptions{}); err == nil {
		t.Error("ragged grid accepted")
	}
	if _, err := Heatmap([][]int64{{1, -2}}, HeatmapOptions{}); err == nil {
		t.Error("negative count accepted")
	}
}

func TestHeatmapRowAlignment(t *testing.T) {
	// 11 rows: r9 and r10 must stay column-aligned despite differing label
	// widths.
	grid := make([][]int64, 11)
	for i := range grid {
		grid[i] = []int64{int64(i)}
	}
	out := mustHeatmap(t, grid)
	lines := strings.Split(strings.TrimRight(out, "\n"), "\n")
	var bars []int
	for _, ln := range lines[1:] {
		bars = append(bars, strings.IndexByte(ln, '|'))
	}
	for i := 1; i < len(bars); i++ {
		if bars[i] != bars[0] {
			t.Fatalf("row %d misaligned:\n%s", i, out)
		}
	}
}
