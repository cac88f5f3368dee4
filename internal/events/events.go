// Package events is the live telemetry side-band of the repository's
// experiment binaries: a schema-versioned JSONL stream (quest-events/1) of
// periodic run snapshots — per-cell sweep progress with trial rates and
// ETAs, metrics-registry deltas, and Go runtime health — emitted on a
// wall-clock ticker while a run is in flight. Where the ledger (quest-
// ledger/1) is the post-mortem record of *what was computed*, the event
// stream is the live record of *how the computation is going*: it is what
// lets an operator watch a fleet of sharded sweep processes (tools/questtop)
// or a future serving daemon surface per-job progress over SSE.
//
// Telemetry is a pure side-band. Nothing in this package feeds back into
// simulation state: the sampler observes the engine's display-only
// mc.Progress stream and concurrency-safe metrics registry, both of which
// are defined to never influence outcomes, so ledger bytes, heat JSON and
// sweep Results are identical with events on or off (pinned by
// core's TestThresholdObservedEventsPureSideband). This package is also the
// only place the telemetry path reads the wall clock — it is in the seedsrc
// analyzer's scope precisely so every read stays visibly policed.
package events

import (
	"bufio"
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"sync"

	"quest/internal/metrics"
)

// Schema identifies the JSONL layout; bump on incompatible change so
// tools/questtop can refuse to aggregate across layouts.
const Schema = "quest-events/1"

// Record kinds, carried in every line's "record" field.
const (
	KindHeader   = "header"
	KindSnapshot = "snapshot"
)

// Header is the first line of every event stream: schema plus the run and
// shard provenance a fleet aggregator needs to group streams belonging to
// one logical run. Unlike the ledger header it may carry wall-clock and
// process identity — the stream is operational telemetry, not a
// reproducibility artifact, and two runs of the same config are *supposed*
// to produce different event streams.
type Header struct {
	Record     string `json:"record"`
	Schema     string `json:"schema"`
	Experiment string `json:"experiment"`
	GoVersion  string `json:"go_version"`
	Host       string `json:"host"`
	PID        int    `json:"pid"`
	// ShardIndex and ShardCount stamp which shard of a sharded sweep this
	// stream watches (both omitted for single-process runs), mirroring the
	// ledger's shard provenance so questtop can pair event streams with the
	// shard ledgers they narrate.
	ShardIndex int `json:"shard_index,omitempty"`
	ShardCount int `json:"shard_count,omitempty"`
	// StartMs is the run start as Unix milliseconds; every snapshot's Ms is
	// relative to it.
	StartMs int64             `json:"start_ms"`
	Config  map[string]string `json:"config,omitempty"`
}

// CellProgress is the live state of one sweep cell inside a snapshot.
// Counts and the Wilson interval mirror the engine's mc.Progress stream
// (display-only completion-order numbers until the final Done snapshot);
// RatePerSec and EtaMs are derived by the sampler from consecutive
// snapshots' wall-clock spacing.
type CellProgress struct {
	Cell      string  `json:"cell"`
	Completed int     `json:"completed"`
	Budget    int     `json:"budget,omitempty"`
	Failures  int     `json:"failures"`
	WilsonLo  float64 `json:"wilson_lo"`
	WilsonHi  float64 `json:"wilson_hi"`
	// RatePerSec is the cell's trial completion rate over the sampling
	// interval that produced this snapshot (0 when the cell made no
	// progress, e.g. after it finished).
	RatePerSec float64 `json:"rate_per_sec"`
	// EtaMs projects the remaining wall-clock milliseconds to the cell's
	// budget at the current rate (omitted when done, rate is zero, or the
	// budget is unknown). Under CI early stop it is an upper bound.
	EtaMs int64 `json:"eta_ms,omitempty"`
	Done  bool  `json:"done,omitempty"`
}

// BusRate is the live instruction-bandwidth state of one machine bus inside
// a snapshot: cumulative instruction and byte totals since the run started
// (mirroring the -bw recorder's totals) plus the mean byte rate over the
// run so far. Cumulative rather than per-interval so a subscriber that
// drops frames still reads correct totals.
type BusRate struct {
	Bus        string  `json:"bus"`
	Instrs     uint64  `json:"instrs"`
	Bytes      uint64  `json:"bytes"`
	RatePerSec float64 `json:"rate_per_sec"`
}

// RuntimeStats is the Go runtime health section of a snapshot.
type RuntimeStats struct {
	HeapBytes  uint64 `json:"heap_bytes"`
	Goroutines int    `json:"goroutines"`
	NumGC      uint32 `json:"num_gc"`
}

// Snapshot is one periodic telemetry record. Seq is strictly increasing
// from 1 and Ms (milliseconds since the header's StartMs) is non-decreasing
// — the two monotonicity invariants Validate enforces and questtop
// pins in CI. Cells are sorted by name so a snapshot's bytes do not depend
// on map-iteration order.
type Snapshot struct {
	Record string         `json:"record"`
	Seq    int            `json:"seq"`
	Ms     int64          `json:"ms"`
	Cells  []CellProgress `json:"cells,omitempty"`
	// BW carries per-bus cumulative bandwidth (sorted by bus name) when the
	// run profiles with -bw; questtop renders it as a fleet B/s column.
	BW []BusRate `json:"bw,omitempty"`
	// Deltas carries the change in the run's metrics registry since the
	// previous snapshot (counters and histogram counts subtract; gauges are
	// instantaneous) — trial throughput, worker busy time, decoder counters.
	// Nil when the run has no live registry.
	Deltas  *metrics.Snapshot `json:"deltas,omitempty"`
	Runtime RuntimeStats      `json:"runtime"`
}

// Writer streams event records as JSONL, one marshal per line, teeing every
// line to an optional SSE broadcaster. Safe for concurrent use (the sampler
// ticker and a final Stop flush may race). The underlying writer is not
// buffered here on purpose: telemetry lines must reach a tail -f or an SSE
// subscriber when written, not when a buffer happens to fill.
type Writer struct {
	mu        sync.Mutex
	w         io.Writer    // nil = broadcast-only stream
	bcast     *Broadcaster // nil = file-only stream
	snapshots int
	wroteHdr  bool
}

// NewWriter builds a writer over w (nil for an SSE-only stream) and bcast
// (nil when no SSE endpoint is serving).
func NewWriter(w io.Writer, bcast *Broadcaster) *Writer {
	return &Writer{w: w, bcast: bcast}
}

// WriteHeader emits the header line; call exactly once, first. The Record
// and Schema fields are filled in here so callers cannot mis-stamp them.
func (w *Writer) WriteHeader(h Header) error {
	h.Record = KindHeader
	h.Schema = Schema
	w.mu.Lock()
	defer w.mu.Unlock()
	if w.wroteHdr {
		return fmt.Errorf("events: WriteHeader called twice")
	}
	line, err := w.line(h)
	if err != nil {
		return err
	}
	w.wroteHdr = true
	if w.bcast != nil {
		w.bcast.setHeader(line)
	}
	return nil
}

// WriteSnapshot emits one snapshot line.
func (w *Writer) WriteSnapshot(s Snapshot) error {
	s.Record = KindSnapshot
	w.mu.Lock()
	defer w.mu.Unlock()
	if !w.wroteHdr {
		return fmt.Errorf("events: snapshot before header")
	}
	line, err := w.line(s)
	if err != nil {
		return err
	}
	w.snapshots++
	if w.bcast != nil {
		w.bcast.publish(line)
	}
	return nil
}

// Snapshots reports how many snapshot records were written.
func (w *Writer) Snapshots() int {
	w.mu.Lock()
	defer w.mu.Unlock()
	return w.snapshots
}

// line marshals v, writes it to the underlying writer (when present), and
// returns the marshalled bytes without the trailing newline for the
// broadcaster.
func (w *Writer) line(v any) ([]byte, error) {
	b, err := json.Marshal(v)
	if err != nil {
		return nil, fmt.Errorf("events: %w", err)
	}
	if w.w != nil {
		if _, err := w.w.Write(append(b, '\n')); err != nil {
			return nil, fmt.Errorf("events: %w", err)
		}
	}
	return b, nil
}

// Stream is a parsed event stream.
type Stream struct {
	Header    Header
	Snapshots []Snapshot
}

// ParseStream decodes a quest-events/1 JSONL stream: one header line first,
// then snapshot lines. It tolerates a torn final line (what tailing a live
// stream mid-write yields) by ignoring a trailing line that fails to decode,
// but any earlier malformed line is an error.
func ParseStream(data []byte) (Stream, error) {
	var st Stream
	sc := bufio.NewScanner(bytes.NewReader(data))
	sc.Buffer(make([]byte, 1<<20), 1<<20)
	lineNo := 0
	sawHeader := false
	for sc.Scan() {
		lineNo++
		line := bytes.TrimSpace(sc.Bytes())
		if len(line) == 0 {
			continue
		}
		var kind struct {
			Record string `json:"record"`
		}
		if err := json.Unmarshal(line, &kind); err != nil {
			if !sc.Scan() { // torn final line: a crash or a live tail mid-write
				return st, nil
			}
			return st, fmt.Errorf("events: line %d: %w", lineNo, err)
		}
		switch kind.Record {
		case KindHeader:
			if sawHeader {
				return st, fmt.Errorf("events: line %d: duplicate header", lineNo)
			}
			if err := json.Unmarshal(line, &st.Header); err != nil {
				return st, fmt.Errorf("events: line %d: header: %w", lineNo, err)
			}
			sawHeader = true
		case KindSnapshot:
			if !sawHeader {
				return st, fmt.Errorf("events: line %d: snapshot before header", lineNo)
			}
			var s Snapshot
			if err := json.Unmarshal(line, &s); err != nil {
				return st, fmt.Errorf("events: line %d: snapshot: %w", lineNo, err)
			}
			st.Snapshots = append(st.Snapshots, s)
		default:
			return st, fmt.Errorf("events: line %d: unknown record kind %q", lineNo, kind.Record)
		}
	}
	if err := sc.Err(); err != nil {
		return st, err
	}
	if !sawHeader {
		return st, fmt.Errorf("events: stream is empty")
	}
	return st, nil
}

// ValidateReport summarizes a validated event stream.
type ValidateReport struct {
	Experiment string
	ShardIndex int
	ShardCount int
	Snapshots  int
	// Cells counts distinct cell names seen across all snapshots; DoneCells
	// counts those whose latest appearance is Done.
	Cells     int
	DoneCells int
	// LastMs is the final snapshot's relative timestamp (0 when the stream
	// holds no snapshots yet).
	LastMs int64
}

// Validate parses and checks a quest-events/1 stream: correct schema, one
// header first, seq gap-free from 1, ms non-decreasing, cells sorted by
// name with self-consistent counts and Wilson brackets. CI's events-smoke
// job runs it (via questtop) over freshly generated shard streams
// so a telemetry regression fails the build.
func Validate(data []byte) (ValidateReport, error) {
	return validate(data, false)
}

// ValidateTail checks a stream captured mid-run — an SSE subscriber that
// joins late gets the header replayed but snapshots only from the current
// seq, and a slow subscriber may drop frames — so seq must be strictly
// increasing but need not start at 1 or be gap-free. Every other Validate
// invariant holds unchanged. tools/questtop applies it to http sources.
func ValidateTail(data []byte) (ValidateReport, error) {
	return validate(data, true)
}

func validate(data []byte, tail bool) (ValidateReport, error) {
	var rep ValidateReport
	st, err := ParseStream(data)
	if err != nil {
		return rep, err
	}
	if st.Header.Schema != Schema {
		return rep, fmt.Errorf("events: schema %q, want %q", st.Header.Schema, Schema)
	}
	if st.Header.Experiment == "" {
		return rep, fmt.Errorf("events: header missing experiment name")
	}
	if st.Header.ShardCount > 0 && (st.Header.ShardIndex < 0 || st.Header.ShardIndex >= st.Header.ShardCount) {
		return rep, fmt.Errorf("events: header shard index %d outside [0, %d)", st.Header.ShardIndex, st.Header.ShardCount)
	}
	rep.Experiment = st.Header.Experiment
	rep.ShardIndex, rep.ShardCount = st.Header.ShardIndex, st.Header.ShardCount
	lastSeq, lastMs := 0, int64(0)
	doneByCell := map[string]bool{}
	bytesByBus := map[string]uint64{}
	for i, s := range st.Snapshots {
		if tail {
			if s.Seq <= lastSeq {
				return rep, fmt.Errorf("events: snapshot %d: seq %d not increasing (previous %d)", i+1, s.Seq, lastSeq)
			}
		} else if s.Seq != lastSeq+1 {
			return rep, fmt.Errorf("events: snapshot %d: seq %d, want %d (gap-free from 1)", i+1, s.Seq, lastSeq+1)
		}
		if s.Ms < lastMs {
			return rep, fmt.Errorf("events: snapshot %d: ms %d ran backwards (previous %d)", i+1, s.Ms, lastMs)
		}
		lastSeq, lastMs = s.Seq, s.Ms
		for j, c := range s.Cells {
			if c.Cell == "" {
				return rep, fmt.Errorf("events: snapshot %d: cell %d has no name", i+1, j)
			}
			if j > 0 && !(s.Cells[j-1].Cell < c.Cell) {
				return rep, fmt.Errorf("events: snapshot %d: cells not sorted by name (%q before %q)", i+1, s.Cells[j-1].Cell, c.Cell)
			}
			if c.Failures < 0 || c.Failures > c.Completed {
				return rep, fmt.Errorf("events: snapshot %d: cell %q failures %d outside [0, %d]", i+1, c.Cell, c.Failures, c.Completed)
			}
			if c.Budget > 0 && c.Completed > c.Budget {
				return rep, fmt.Errorf("events: snapshot %d: cell %q completed %d exceeds budget %d", i+1, c.Cell, c.Completed, c.Budget)
			}
			if c.WilsonLo > c.WilsonHi {
				return rep, fmt.Errorf("events: snapshot %d: cell %q Wilson interval [%v, %v] inverted", i+1, c.Cell, c.WilsonLo, c.WilsonHi)
			}
			if c.RatePerSec < 0 {
				return rep, fmt.Errorf("events: snapshot %d: cell %q negative rate %v", i+1, c.Cell, c.RatePerSec)
			}
			doneByCell[c.Cell] = c.Done
		}
		for j, b := range s.BW {
			if b.Bus == "" {
				return rep, fmt.Errorf("events: snapshot %d: bw entry %d has no bus name", i+1, j)
			}
			if j > 0 && !(s.BW[j-1].Bus < b.Bus) {
				return rep, fmt.Errorf("events: snapshot %d: bw buses not sorted by name (%q before %q)", i+1, s.BW[j-1].Bus, b.Bus)
			}
			if b.RatePerSec < 0 {
				return rep, fmt.Errorf("events: snapshot %d: bus %q negative rate %v", i+1, b.Bus, b.RatePerSec)
			}
			if prev, ok := bytesByBus[b.Bus]; ok && b.Bytes < prev {
				return rep, fmt.Errorf("events: snapshot %d: bus %q cumulative bytes %d ran backwards (previous %d)", i+1, b.Bus, b.Bytes, prev)
			}
			bytesByBus[b.Bus] = b.Bytes
		}
	}
	rep.Snapshots = len(st.Snapshots)
	rep.LastMs = lastMs
	rep.Cells = len(doneByCell)
	for _, done := range doneByCell { //quest:allow(detrange) counting set members is order-independent
		if done {
			rep.DoneCells++
		}
	}
	return rep, nil
}
