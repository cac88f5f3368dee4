package questvet

import (
	"encoding/json"
	"fmt"
	"io"
	"path/filepath"
	"sort"
	"strings"
)

// BaselineSchema identifies the committed findings-baseline artifact
// (questvet-baseline.json).
const BaselineSchema = "quest-lint-baseline/1"

// A Baseline pins the lint state CI accepts: the exact //quest:allow
// suppression count and any accepted findings (normally none — the tree is
// kept clean). CI diffs every run against it, so adding a suppression or a
// finding requires regenerating this reviewed file
// (`make questvet-baseline`).
type Baseline struct {
	Schema string `json:"schema"`
	// Suppressions is the exact number of //quest:allow directives in
	// force. Exact, not a maximum: a *dropped* suppression should also
	// surface in review, since it usually means the code it justified
	// changed.
	Suppressions int `json:"suppressions"`
	// Findings are accepted active findings, keyed without line numbers so
	// unrelated edits do not churn the file.
	Findings []BaselineEntry `json:"findings"`
}

// A BaselineEntry accepts Count findings with the same analyzer, file, and
// message text.
type BaselineEntry struct {
	Analyzer string `json:"analyzer"`
	File     string `json:"file"`
	Message  string `json:"message"`
	Count    int    `json:"count"`
}

type baselineKey struct {
	Analyzer, File, Message string
}

// relPath renders a diagnostic's file path relative to the module root
// with forward slashes, so baselines are machine-independent.
func (r Report) relPath(file string) string {
	if file == "" {
		return ""
	}
	if rel, err := filepath.Rel(r.Root, file); err == nil && !strings.HasPrefix(rel, "..") {
		return filepath.ToSlash(rel)
	}
	return filepath.ToSlash(file)
}

// MakeBaseline captures the report as a baseline.
func (r Report) MakeBaseline() Baseline {
	counts := map[baselineKey]int{}
	for _, d := range r.Active {
		counts[baselineKey{d.Analyzer, r.relPath(d.Pos.Filename), d.Message}]++
	}
	b := Baseline{Schema: BaselineSchema, Suppressions: len(r.Suppressed), Findings: []BaselineEntry{}}
	for k, n := range counts {
		b.Findings = append(b.Findings, BaselineEntry{Analyzer: k.Analyzer, File: k.File, Message: k.Message, Count: n})
	}
	sort.Slice(b.Findings, func(i, j int) bool {
		a, c := b.Findings[i], b.Findings[j]
		if a.File != c.File {
			return a.File < c.File
		}
		if a.Analyzer != c.Analyzer {
			return a.Analyzer < c.Analyzer
		}
		return a.Message < c.Message
	})
	return b
}

// WriteBaseline serializes a baseline.
func (b Baseline) Write(w io.Writer) error {
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(b)
}

// ParseBaseline reads and validates a baseline document.
func ParseBaseline(data []byte) (Baseline, error) {
	var b Baseline
	if err := json.Unmarshal(data, &b); err != nil {
		return Baseline{}, fmt.Errorf("parsing baseline: %w", err)
	}
	if b.Schema != BaselineSchema {
		return Baseline{}, fmt.Errorf("baseline schema %q, want %q", b.Schema, BaselineSchema)
	}
	return b, nil
}

// Diff compares the report against a committed baseline and returns the
// problems: new findings the baseline does not accept, stale baseline
// entries no longer observed (the file must stay honest), and suppression-
// count drift in either direction. An empty slice means CI passes.
func (r Report) Diff(base Baseline) []string {
	var problems []string
	accepted := map[baselineKey]int{}
	for _, e := range base.Findings {
		accepted[baselineKey{e.Analyzer, e.File, e.Message}] = e.Count
	}
	seen := map[baselineKey]int{}
	for _, d := range r.Active {
		k := baselineKey{d.Analyzer, r.relPath(d.Pos.Filename), d.Message}
		seen[k]++
		if seen[k] > accepted[k] {
			problems = append(problems, fmt.Sprintf("new finding: %s", d))
		}
	}
	for _, e := range base.Findings {
		k := baselineKey{e.Analyzer, e.File, e.Message}
		if seen[k] < e.Count {
			problems = append(problems, fmt.Sprintf(
				"stale baseline entry (%d accepted, %d observed): [%s] %s: %s — regenerate with `make questvet-baseline`",
				e.Count, seen[k], e.Analyzer, e.File, e.Message))
		}
	}
	if len(r.Suppressed) != base.Suppressions {
		problems = append(problems, fmt.Sprintf(
			"suppression count %d, baseline pins %d; if the new //quest:allow is justified, regenerate with `make questvet-baseline` and explain it in the PR",
			len(r.Suppressed), base.Suppressions))
	}
	return problems
}
