package quest_test

import (
	"os"
	"sort"
	"strings"
	"testing"

	"quest/internal/core"
)

// TestExperimentsGeneratedBlocks pins EXPERIMENTS.md's tables to the code.
// Each block between `<!-- begin generated: NAME -->` and `<!-- end
// generated: NAME -->` must equal the Markdown rendering of table NAME:
// every questbench experiment, the two sweeps at their default budget
// (core.DefaultTrials), and threshold-400, the validation table of the
// sweep `questbench -trials 400 threshold` runs. A missing, unknown or
// drifted block fails, and the message carries the fresh rendering;
// `questbench -md NAME` prints the same block under its heading.
func TestExperimentsGeneratedBlocks(t *testing.T) {
	const begin, end = "<!-- begin generated: ", "<!-- end generated: "
	tables := map[string]func() (core.Table, error){
		"threshold-400": func() (core.Table, error) {
			rows, err := core.Threshold(nil, nil, []float64{2e-3, 1e-3, 5e-4}, []int{3, 5}, 400, 2, core.SweepObs{})
			if err != nil {
				return core.Table{}, err
			}
			return core.ValidationTable(rows)
		},
	}
	for _, e := range core.Experiments {
		tables[e.Name] = func() (core.Table, error) { return e.Table(core.Run{}) }
	}

	data, err := os.ReadFile("EXPERIMENTS.md")
	if err != nil {
		t.Fatal(err)
	}
	doc := string(data)
	for rest := doc; ; {
		i := strings.Index(rest, begin)
		if i < 0 {
			break
		}
		rest = rest[i+len(begin):]
		name, _, _ := strings.Cut(rest, " -->")
		if tables[name] == nil {
			t.Errorf("EXPERIMENTS.md has a block %q that no table generates", name)
		}
	}

	names := make([]string, 0, len(tables))
	for name := range tables {
		names = append(names, name)
	}
	sort.Strings(names)
	for _, name := range names {
		tab, err := tables[name]()
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		want := tab.Markdown()
		from, to := begin+name+" -->\n", end+name+" -->"
		i, j := strings.Index(doc, from), strings.Index(doc, to)
		switch {
		case i < 0 || j < i:
			t.Errorf("EXPERIMENTS.md has no %q ... %q block; it should hold:\n%s", strings.TrimSpace(from), to, want)
		case doc[i+len(from):j] != want:
			t.Errorf("EXPERIMENTS.md's %s block drifted from the code, which renders:\n%s", name, want)
		}
	}
}
