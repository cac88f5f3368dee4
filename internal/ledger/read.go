package ledger

// This file is the ledger's one reader: Read parses a ledger and enforces
// its rules, and Validate (tools/questcheck) summarizes what Read accepts.

import (
	"bufio"
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"math"
	"strconv"
)

// CellBlock is one sweep cell's contiguous run of records: its trial
// records in trial order, then its summary.
type CellBlock struct {
	Summary Cell
	Trials  []Trial
}

// Ledger is one parsed quest-ledger/1 file.
type Ledger struct {
	Header Header
	// Cells are the summarized cell blocks in file order.
	Cells []CellBlock
}

// ValidateReport summarizes a validated ledger.
type ValidateReport struct {
	Experiment string
	Cells      int
	Trials     int
}

// Validate reads a complete ledger (see Read) and summarizes it.
// tools/questcheck runs it on a ledger file, and the cmd tests on the
// ledgers real sweeps write, so a schema regression fails tier-1.
func Validate(data []byte) (ValidateReport, error) {
	l, err := Read(data)
	if err != nil {
		return ValidateReport{}, err
	}
	rep := ValidateReport{Experiment: l.Header.Experiment, Cells: len(l.Cells)}
	for _, c := range l.Cells {
		rep.Trials += len(c.Trials)
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
// A cell with trial records but no summary, which is what a run stopped
// mid-cell leaves, is refused, and so is an unparseable line anywhere.
func Read(data []byte) (*Ledger, error) {
	r := reader{l: &Ledger{}, summarized: map[string]bool{}}
	sc := bufio.NewScanner(bytes.NewReader(data))
	sc.Buffer(make([]byte, 1<<20), 1<<20)
	n := 0
	for sc.Scan() {
		n++
		if err := r.line(sc.Bytes()); err != nil {
			return nil, fmt.Errorf("line %d: %w", n, err)
		}
	}
	if err := sc.Err(); err != nil {
		return nil, fmt.Errorf("line %d: corrupt ledger: %v", n+1, err)
	}
	if n == 0 {
		return nil, errors.New("ledger is empty")
	}
	if open := r.block.Trials; len(open) > 0 {
		return nil, fmt.Errorf("cell %q has %d trial record(s) but no cell summary: the ledger is incomplete",
			open[0].Cell, len(open))
	}
	return r.l, nil
}

// reader is Read's state between lines.
type reader struct {
	l          *Ledger
	seenHeader bool      // the header line has been read
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
		return fmt.Errorf("corrupt ledger: %v", err)
	}
	if !r.seenHeader && kind.Record != KindHeader {
		return fmt.Errorf("first record is %q, want %q", kind.Record, KindHeader)
	}
	switch kind.Record {
	case KindHeader:
		return r.header(raw)
	case KindTrial:
		var t Trial
		if err := json.Unmarshal(raw, &t); err != nil {
			return fmt.Errorf("corrupt ledger: trial: %v", err)
		}
		return r.trial(t)
	case KindCell:
		var c Cell
		if err := json.Unmarshal(raw, &c); err != nil {
			return fmt.Errorf("corrupt ledger: cell: %v", err)
		}
		return r.cell(c)
	}
	return fmt.Errorf("unknown record kind %q", kind.Record)
}

func (r *reader) header(raw []byte) error {
	h := &r.l.Header
	if r.seenHeader {
		return errors.New("duplicate header")
	}
	if err := json.Unmarshal(raw, h); err != nil {
		return fmt.Errorf("corrupt ledger: header: %v", err)
	}
	if h.Schema != Schema {
		return fmt.Errorf("schema %q, want %q", h.Schema, Schema)
	}
	if h.Experiment == "" {
		return errors.New("header missing experiment name")
	}
	r.seenHeader = true
	return nil
}

func (r *reader) trial(t Trial) error {
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
	return nil
}

func (r *reader) cell(c Cell) error {
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
