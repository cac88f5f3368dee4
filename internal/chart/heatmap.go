package chart

import (
	"fmt"
	"strings"
	"unicode/utf8"
)

// heatRamp is the shading ramp for Heatmap cells, darkest last. Index 0 is
// reserved for exact zero so "never happened" is visually distinct from
// "rarely happened".
var heatRamp = []rune{'·', '░', '▒', '▓', '█'}

// HeatmapOptions controls grid rendering.
type HeatmapOptions struct {
	// Title is printed above the grid when non-empty.
	Title string
	// RowLabel / ColLabel name the axes (default "r" / "c").
	RowLabel, ColLabel string
	// Legend appends the ramp → count-range key below the grid (default on
	// via Heatmap; set by value here).
	Legend bool
}

// Heatmap renders a rows×cols count grid as an ASCII shading grid: zero
// cells print '·', non-zero cells print a ramp rune proportional to
// count/max. Output is a pure function of the grid values, so it is as
// deterministic as the counts themselves.
func Heatmap(grid [][]int64, opts HeatmapOptions) (string, error) {
	if len(grid) == 0 || len(grid[0]) == 0 {
		return "", fmt.Errorf("chart: empty heatmap grid")
	}
	cols := len(grid[0])
	var max int64
	for r, row := range grid {
		if len(row) != cols {
			return "", fmt.Errorf("chart: ragged heatmap grid (row %d has %d cols, want %d)", r, len(row), cols)
		}
		for _, v := range row {
			if v < 0 {
				return "", fmt.Errorf("chart: negative heatmap count %d", v)
			}
			if v > max {
				max = v
			}
		}
	}
	rowLabel := opts.RowLabel
	if rowLabel == "" {
		rowLabel = "r"
	}
	colLabel := opts.ColLabel
	if colLabel == "" {
		colLabel = "c"
	}
	// Row labels are right-aligned in a gutter sized for the largest index.
	gutter := len(fmt.Sprintf("%s%d", rowLabel, len(grid)-1))
	var sb strings.Builder
	if opts.Title != "" {
		fmt.Fprintf(&sb, "%s\n", opts.Title)
	}
	// Column header marks every 5th column.
	fmt.Fprintf(&sb, "%s  ", strings.Repeat(" ", gutter))
	for c := 0; c < cols; c++ {
		if c%5 == 0 {
			mark := fmt.Sprintf("%d", c)
			sb.WriteString(mark)
			c += utf8.RuneCountInString(mark) - 1
		} else {
			sb.WriteByte(' ')
		}
	}
	fmt.Fprintf(&sb, "  %s\n", colLabel)
	for r, row := range grid {
		label := fmt.Sprintf("%s%d", rowLabel, r)
		fmt.Fprintf(&sb, "%s%s |", strings.Repeat(" ", gutter-len(label)), label)
		for _, v := range row {
			sb.WriteRune(heatCell(v, max))
		}
		sb.WriteString("|\n")
	}
	if opts.Legend {
		fmt.Fprintf(&sb, "%s  %c=0", strings.Repeat(" ", gutter), heatRamp[0])
		steps := len(heatRamp) - 1
		for i := 1; i <= steps; i++ {
			lo := (max*int64(i-1))/int64(steps) + 1
			hi := (max * int64(i)) / int64(steps)
			if hi < lo {
				hi = lo
			}
			fmt.Fprintf(&sb, "  %c=%d–%d", heatRamp[i], lo, hi)
		}
		sb.WriteByte('\n')
	}
	return sb.String(), nil
}

// heatCell picks the ramp rune for count v against the grid maximum.
func heatCell(v, max int64) rune {
	if v == 0 || max == 0 {
		return heatRamp[0]
	}
	steps := int64(len(heatRamp) - 1)
	idx := (v*steps + max - 1) / max // ceil(v/max * steps), so any v>0 shades
	if idx < 1 {
		idx = 1
	}
	if idx > steps {
		idx = steps
	}
	return heatRamp[idx]
}
