// Package ledger is the experiment run ledger: a streaming JSONL record of
// what a statistical experiment actually ran — full provenance up front,
// then one record per trial and one summary record per sweep cell, each
// carrying the exact seeds needed to replay it. The paper's figures are
// Monte-Carlo estimates; a figure nobody can re-derive from its seeds is a
// screenshot, not a result, so the ledger makes every cell of a sweep
// independently reproducible (`questbench` docs show the replay recipe).
//
// Determinism contract: records carry only quantities that are pure
// functions of trial-ordered outcomes (seeds, params, counts, intervals) —
// never wall-clock, worker count, or scheduling artifacts — and trial
// records are emitted in trial order from the engine's trial-indexed
// outcome store. The same run is therefore byte-identical for any -workers
// value (pinned by core's TestThresholdObservedLedgerDeterminism), the same
// invariant mc.RunBatch guarantees for its Result and tracing guarantees for
// its exported event stream.
package ledger

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"runtime"
	"runtime/debug"
)

// Schema identifies the JSONL layout; bump on incompatible change.
const Schema = "quest-ledger/1"

// Record kinds, carried in every line's "record" field.
const (
	KindHeader = "header"
	KindTrial  = "trial"
	KindCell   = "cell"
)

// Header is the first line of every ledger: schema plus the provenance
// needed to judge comparability and replay the run. It deliberately omits
// the worker count — parallelism must not change the ledger's bytes.
type Header struct {
	Record     string            `json:"record"`
	Schema     string            `json:"schema"`
	Experiment string            `json:"experiment"`
	GoVersion  string            `json:"go_version"`
	GOOS       string            `json:"goos"`
	GOARCH     string            `json:"goarch"`
	GOMAXPROCS int               `json:"gomaxprocs"`
	Host       string            `json:"host"`
	GitSHA     string            `json:"git_sha"`
	Config     map[string]string `json:"config,omitempty"`
}

// Trial is one trial record. Seed is the trial's full derived seed
// in hex — with the cell seed it is everything needed to replay the trial.
type Trial struct {
	Record string `json:"record"`
	Cell   string `json:"cell"`
	Trial  int    `json:"trial"`
	Seed   string `json:"seed"`
	Fail   bool   `json:"fail"`
	Err    string `json:"err,omitempty"`
}

// Cell summarizes one sweep cell after its trials drain. Budget is the
// requested trial count and Trials what ran; the commands run every trial,
// so the two are equal, but Read accepts Trials below Budget, which
// ledgers from an early-stopping sweep recorded.
type Cell struct {
	Record   string             `json:"record"`
	Cell     string             `json:"cell"`
	Params   map[string]float64 `json:"params,omitempty"`
	Seed     string             `json:"seed"`
	Budget   int                `json:"budget"`
	Trials   int                `json:"trials"`
	Failures int                `json:"failures"`
	Rate     float64            `json:"rate"`
	WilsonLo float64            `json:"wilson_lo"`
	WilsonHi float64            `json:"wilson_hi"`
	Err      string             `json:"err,omitempty"`
}

// SeedString renders a seed the way the ledger stores it.
func SeedString(seed uint64) string { return fmt.Sprintf("0x%016x", seed) }

// Writer streams ledger records as JSONL. Not concurrency-safe: the sweep
// drivers write from the sweep loop, after each cell's worker pool has
// drained.
type Writer struct {
	bw     *bufio.Writer
	cells  int
	trials int
	// err latches the first write failure for callers whose hook signature
	// cannot return one (the engine's void Sink); Err surfaces it.
	err error
}

// NewWriter writes the header line and returns a streaming writer. config
// is the caller's flag/parameter provenance, copied into the header
// verbatim.
func NewWriter(w io.Writer, experiment string, config map[string]string) (*Writer, error) {
	lw := &Writer{bw: bufio.NewWriter(w)}
	host, _ := os.Hostname()
	h := Header{
		Record:     KindHeader,
		Schema:     Schema,
		Experiment: experiment,
		GoVersion:  runtime.Version(),
		GOOS:       runtime.GOOS,
		GOARCH:     runtime.GOARCH,
		GOMAXPROCS: runtime.GOMAXPROCS(0),
		Host:       host,
		GitSHA:     gitSHA(),
		Config:     config,
	}
	if err := lw.line(h); err != nil {
		return nil, err
	}
	return lw, nil
}

// WriteTrial emits a trial record.
func (w *Writer) WriteTrial(t Trial) error {
	t.Record = KindTrial
	w.trials++
	return w.line(t)
}

// WriteCell emits a cell summary record.
func (w *Writer) WriteCell(c Cell) error {
	c.Record = KindCell
	w.cells++
	return w.line(c)
}

// Cells and Trials report how many records of each kind were written.
func (w *Writer) Cells() int  { return w.cells }
func (w *Writer) Trials() int { return w.trials }

// Err returns the first write error this writer encountered, including
// errors from call sites that could not check the return value themselves
// (the engine's void Sink hook). A non-nil Err means the ledger is
// truncated and must not be trusted.
func (w *Writer) Err() error { return w.err }

// Flush drains the buffer to the underlying writer.
func (w *Writer) Flush() error {
	if err := w.bw.Flush(); err != nil {
		return w.latch(fmt.Errorf("ledger: %w", err))
	}
	return w.err
}

func (w *Writer) line(v any) error {
	// json.Marshal (not an Encoder per record) so a line is exactly one
	// record with no trailing spaces; map keys marshal sorted, keeping
	// params byte-deterministic.
	b, err := json.Marshal(v)
	if err != nil {
		return w.latch(fmt.Errorf("ledger: %w", err))
	}
	if _, err := w.bw.Write(b); err != nil {
		return w.latch(fmt.Errorf("ledger: %w", err))
	}
	if err := w.bw.WriteByte('\n'); err != nil {
		return w.latch(fmt.Errorf("ledger: %w", err))
	}
	return nil
}

// latch records the first failure and returns err unchanged.
func (w *Writer) latch(err error) error {
	if w.err == nil {
		w.err = err
	}
	return err
}

// gitSHA extracts the vcs revision stamped into the binary, "unknown" when
// built without VCS metadata (go test, detached builds).
func gitSHA() string {
	if info, ok := debug.ReadBuildInfo(); ok {
		for _, s := range info.Settings {
			if s.Key == "vcs.revision" {
				return s.Value
			}
		}
	}
	return "unknown"
}
