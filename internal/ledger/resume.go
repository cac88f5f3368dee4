package ledger

// This file is the checkpoint half of the replication log: because every
// ledger record is a pure function of (seed, config, trial order), a
// partial ledger left behind by a crashed or interrupted sweep is a valid
// checkpoint of it. Resume parses such a file — tolerating the torn final
// line a crash mid-write leaves — into completed cells (replayed verbatim,
// zero trials re-executed) and a partially-recorded cell's leading trial
// outcomes (fed to the engine as mc.Observers.Prior). A resumed run's
// ledger therefore converges to the exact bytes of the uninterrupted run:
// skipping work never changes what the work would have produced.

import (
	"fmt"
	"sort"
)

// Resume is a parsed partial ledger, consumed cell by cell as the resumed
// sweep re-reaches each cell (core.SweepObs.Resume drives it).
type Resume struct {
	l *Ledger
	// complete indexes l.Cells by name.
	complete map[string]*CellBlock
	consumed map[string]bool
}

// NewResume parses a partial run ledger under Read's rules, accepting what
// a crash leaves at the end of the file: trial records of a last cell with
// no summary yet (the crash cell, resumed from its leading trials) and an
// unparseable final line (the interrupted write, dropped). Replay is
// verbatim, which Read's rules already guarantee: every trial is recorded,
// in order, and each summary agrees with its records.
func NewResume(data []byte) (*Resume, error) {
	l, err := read(data)
	if err != nil {
		return nil, fmt.Errorf("resume ledger: %w", err)
	}
	r := &Resume{l: l, complete: make(map[string]*CellBlock, len(l.Cells)), consumed: map[string]bool{}}
	for i := range l.Cells {
		r.complete[l.Cells[i].Summary.Cell] = &l.Cells[i]
	}
	return r, nil
}

// Header returns the partial ledger's provenance header, so callers can
// refuse to resume under a different experiment, config, or shard.
func (r *Resume) Header() Header { return r.l.Header }

// Truncated reports whether a torn final line was dropped during parsing.
func (r *Resume) Truncated() bool { return r.l.torn != nil }

// Counts returns how many completed cells and how many partially-recorded
// cells (at most one) the checkpoint holds.
func (r *Resume) Counts() (complete, partial int) {
	if len(r.l.open) > 0 {
		partial = 1
	}
	return len(r.l.Cells), partial
}

// Take claims the recorded state of one cell as the resumed sweep reaches
// it: a fully-recorded cell (replay verbatim, skip execution), the leading
// trials of a partially-recorded cell (replay as prior outcomes), or
// neither (run normally). Claiming the same cell twice is an error — the
// sweep and the checkpoint disagree about what a cell is, and splicing
// records into two different cells would corrupt both.
func (r *Resume) Take(name string) (*CellBlock, []Trial, error) {
	if r.consumed[name] {
		return nil, nil, fmt.Errorf("resume ledger: cell %q claimed twice — overlapping sweep cells cannot replay", name)
	}
	r.consumed[name] = true
	if cb, ok := r.complete[name]; ok {
		return cb, nil, nil
	}
	if open := r.l.open; len(open) > 0 && open[0].Cell == name {
		return nil, open, nil
	}
	return nil, nil, nil
}

// Unconsumed returns the sorted recorded cells no sweep cell ever claimed —
// non-empty after a run means the checkpoint came from a different
// invocation (other experiments, other parameters) and its leftover records
// were not carried into the new ledger.
func (r *Resume) Unconsumed() []string {
	var left []string
	for _, c := range r.l.Cells {
		if !r.consumed[c.Summary.Cell] {
			left = append(left, c.Summary.Cell)
		}
	}
	if open := r.l.open; len(open) > 0 && !r.consumed[open[0].Cell] {
		left = append(left, open[0].Cell)
	}
	sort.Strings(left)
	return left
}
