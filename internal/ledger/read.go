package ledger

// This file is the ledger's one reader. Validate, NewResume and
// tools/ledgermerge all parse through read and enforce the same rules; they
// differ only in what they accept at the end of the file, where a crash
// leaves its marks: a cell with trial records but no summary yet, and a torn
// final line. Only a resume accepts either.

import (
	"bufio"
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"math"
	"strconv"
)

// ErrCorrupt marks ledger bytes that cannot be parsed at all: garbled or
// truncated JSON, or an overlong line. tools/ledgermerge maps it to exit 2
// (the check could not run); every other failure is a finding (exit 1): the
// input was readable, and what it said was wrong.
var ErrCorrupt = errors.New("corrupt ledger")

// CellBlock is one sweep cell's contiguous run of records: its trial
// records in trial order, then its summary. Lines holds the same records
// verbatim, without newlines, so a merge re-interleaves bytes and never
// re-marshals.
type CellBlock struct {
	Summary Cell
	Trials  []Trial
	Lines   [][]byte
}

// Ledger is one parsed quest-ledger/1 file.
type Ledger struct {
	Header Header
	// Cells are the summarized cell blocks in file order.
	Cells []CellBlock
	// headerLine is the raw header line, kept for single-ledger identity
	// merges.
	headerLine []byte
	// open holds the trailing cell's trial records when no summary follows
	// them, and torn the error of an unparseable final line: what a crash
	// mid-cell leaves behind.
	open []Trial
	torn error
}

// ValidateReport summarizes a validated ledger.
type ValidateReport struct {
	Experiment string
	Cells      int
	Trials     int
	// StoppedEarly counts cells that converged before their trial budget.
	StoppedEarly int
}

// Validate reads a complete ledger (see Read) and summarizes it. CI's
// ledger-smoke step runs it, through tools/questcheck, over a freshly
// generated ledger so a schema regression fails the build.
func Validate(data []byte) (ValidateReport, error) {
	l, err := Read(data)
	if err != nil {
		return ValidateReport{}, err
	}
	rep := ValidateReport{Experiment: l.Header.Experiment, Cells: len(l.Cells)}
	for _, c := range l.Cells {
		rep.Trials += len(c.Trials)
		if c.Summary.StoppedEarly {
			rep.StoppedEarly++
		}
	}
	return rep, nil
}

// Read parses a complete ledger, as Writer writes it:
//   - the header comes first, with the schema and a non-empty experiment;
//   - there are no blank lines and no unknown record kinds;
//   - each cell's records form one contiguous block, and no cell is
//     summarized twice;
//   - a cell's trial indices run 0…n−1, and every seed is a hex literal;
//   - each summary has failures ≤ trials ≤ budget, rate = failures/trials,
//     the rate inside its Wilson interval, exactly trials trial records,
//     and as many failing records as failures.
//
// A cell with no summary or an unparseable final line is refused here; only
// NewResume accepts them. JSON damage wraps ErrCorrupt.
func Read(data []byte) (*Ledger, error) {
	l, err := read(data)
	switch {
	case err != nil:
		return nil, err
	case l.torn != nil:
		return nil, l.torn
	case len(l.open) > 0:
		return nil, fmt.Errorf("cell %q has %d trial record(s) but no cell summary: the ledger is incomplete (finish it with -resume)",
			l.open[0].Cell, len(l.open))
	}
	return l, nil
}

// read is Read without the end-of-file checks.
func read(data []byte) (*Ledger, error) {
	r := reader{l: &Ledger{}, summarized: map[string]bool{}}
	sc := bufio.NewScanner(bytes.NewReader(data))
	sc.Buffer(make([]byte, 1<<20), 1<<20)
	n := 0
	for sc.Scan() {
		n++
		if r.l.torn != nil {
			return nil, r.l.torn // the unparseable line was not the last
		}
		if err := r.line(append([]byte(nil), sc.Bytes()...)); err != nil {
			err = fmt.Errorf("line %d: %w", n, err)
			if n == 1 || !errors.Is(err, ErrCorrupt) {
				return nil, err
			}
			r.l.torn = err
		}
	}
	if err := sc.Err(); err != nil {
		return nil, fmt.Errorf("line %d: %w: %v", n+1, ErrCorrupt, err)
	}
	if n == 0 {
		return nil, errors.New("ledger is empty")
	}
	r.l.open = r.block.Trials
	return r.l, nil
}

// reader is read's state between lines.
type reader struct {
	l          *Ledger
	block      CellBlock // the cell whose trial records are being read
	summarized map[string]bool
}

func (r *reader) line(raw []byte) error {
	if len(bytes.TrimSpace(raw)) == 0 {
		return errors.New("empty line")
	}
	var kind struct {
		Record string `json:"record"`
	}
	if err := json.Unmarshal(raw, &kind); err != nil {
		return fmt.Errorf("%w: %v", ErrCorrupt, err)
	}
	if r.l.headerLine == nil && kind.Record != KindHeader {
		return fmt.Errorf("first record is %q, want %q", kind.Record, KindHeader)
	}
	switch kind.Record {
	case KindHeader:
		return r.header(raw)
	case KindTrial:
		var t Trial
		if err := json.Unmarshal(raw, &t); err != nil {
			return fmt.Errorf("%w: trial: %v", ErrCorrupt, err)
		}
		return r.trial(t, raw)
	case KindCell:
		var c Cell
		if err := json.Unmarshal(raw, &c); err != nil {
			return fmt.Errorf("%w: cell: %v", ErrCorrupt, err)
		}
		return r.cell(c, raw)
	}
	return fmt.Errorf("unknown record kind %q", kind.Record)
}

func (r *reader) header(raw []byte) error {
	h := &r.l.Header
	if r.l.headerLine != nil {
		return errors.New("duplicate header")
	}
	if err := json.Unmarshal(raw, h); err != nil {
		return fmt.Errorf("%w: header: %v", ErrCorrupt, err)
	}
	if h.Schema != Schema {
		return fmt.Errorf("schema %q, want %q", h.Schema, Schema)
	}
	if h.Experiment == "" {
		return errors.New("header missing experiment name")
	}
	r.l.headerLine = raw
	return nil
}

func (r *reader) trial(t Trial, raw []byte) error {
	open := r.block.Trials
	switch {
	case t.Cell == "":
		return errors.New("trial record missing cell name")
	case r.summarized[t.Cell]:
		return fmt.Errorf("trial for cell %q after its summary", t.Cell)
	case len(open) > 0 && open[0].Cell != t.Cell:
		return fmt.Errorf("trial for cell %q interleaved into cell %q's block", t.Cell, open[0].Cell)
	case t.Trial != len(open):
		return fmt.Errorf("cell %q trial index %d, want %d", t.Cell, t.Trial, len(open))
	}
	if err := checkSeed(t.Seed); err != nil {
		return err
	}
	r.block.Trials = append(open, t)
	r.block.Lines = append(r.block.Lines, raw)
	return nil
}

func (r *reader) cell(c Cell, raw []byte) error {
	trials := r.block.Trials
	switch {
	case c.Cell == "":
		return errors.New("cell record missing name")
	case r.summarized[c.Cell]:
		return fmt.Errorf("duplicate cell summary %q", c.Cell)
	case len(trials) > 0 && trials[0].Cell != c.Cell:
		return fmt.Errorf("summary for cell %q closes cell %q's block", c.Cell, trials[0].Cell)
	case c.Failures < 0 || c.Failures > c.Trials:
		return fmt.Errorf("cell %q: failures %d outside [0, %d]", c.Cell, c.Failures, c.Trials)
	case c.Trials > c.Budget:
		return fmt.Errorf("cell %q: trials %d exceed budget %d", c.Cell, c.Trials, c.Budget)
	}
	if err := checkSeed(c.Seed); err != nil {
		return err
	}
	if c.Trials > 0 {
		if want := float64(c.Failures) / float64(c.Trials); math.Abs(c.Rate-want) > 1e-12 {
			return fmt.Errorf("cell %q: rate %v != failures/trials %v", c.Cell, c.Rate, want)
		}
	}
	// The Wilson bounds are computed in floating point: at zero failures
	// the lower bound lands a few ulps above 0, so the bracket check needs
	// the same kind of tolerance as the rate.
	if !(c.WilsonLo-1e-12 <= c.Rate && c.Rate <= c.WilsonHi+1e-12) {
		return fmt.Errorf("cell %q: rate %v outside Wilson [%v, %v]", c.Cell, c.Rate, c.WilsonLo, c.WilsonHi)
	}
	if len(trials) != c.Trials {
		return fmt.Errorf("cell %q has %d trial record(s) but summarizes %d", c.Cell, len(trials), c.Trials)
	}
	fails := 0
	for _, t := range trials {
		if t.Fail {
			fails++
		}
	}
	if fails != c.Failures {
		return fmt.Errorf("cell %q: %d trial record(s) fail but the summary counts %d failures", c.Cell, fails, c.Failures)
	}
	r.block.Summary = c
	r.block.Lines = append(r.block.Lines, raw)
	r.l.Cells = append(r.l.Cells, r.block)
	r.block = CellBlock{}
	r.summarized[c.Cell] = true
	return nil
}

// checkSeed verifies a SeedString round-trips as a 64-bit hex literal.
func checkSeed(s string) error {
	if len(s) < 3 || s[0] != '0' || (s[1] != 'x' && s[1] != 'X') {
		return fmt.Errorf("seed %q is not a hex literal", s)
	}
	if _, err := strconv.ParseUint(s[2:], 16, 64); err != nil {
		return fmt.Errorf("seed %q: %w", s, err)
	}
	return nil
}
