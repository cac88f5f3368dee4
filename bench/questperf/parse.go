package main

import (
	"bufio"
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"strconv"
	"strings"

	"quest/internal/ledger"
	"quest/internal/metrics"
)

// sweepRow is one row of a questbench threshold or memory table.
type sweepRow struct {
	Rate   string // "2e-03"
	Param  int    // distance (threshold) or rounds (memory)
	Fail   float64
	Trials int
}

// parseSweep reads the table questbench prints for one sweep experiment:
// a "== name: ... ==" banner, a header, a dashed rule, then one row per cell.
func parseSweep(out []byte) ([]sweepRow, error) {
	var rows []sweepRow
	sc := bufio.NewScanner(bytes.NewReader(out))
	inTable := false
	for sc.Scan() {
		line := strings.TrimSpace(sc.Text())
		switch {
		case line == "":
			continue
		case strings.HasPrefix(line, "---"):
			inTable = true
			continue
		case !inTable:
			continue
		}
		f := strings.Fields(line)
		// rate, param, fail, "[lo," "hi]", trials
		if len(f) != 6 {
			return nil, fmt.Errorf("sweep row %q: want 6 fields, got %d", line, len(f))
		}
		param, err1 := strconv.Atoi(f[1])
		fail, err2 := strconv.ParseFloat(f[2], 64)
		trials, err3 := strconv.Atoi(f[5])
		if err1 != nil || err2 != nil || err3 != nil {
			return nil, fmt.Errorf("sweep row %q: unparsable field", line)
		}
		rows = append(rows, sweepRow{Rate: f[0], Param: param, Fail: fail, Trials: trials})
	}
	if len(rows) == 0 {
		return nil, fmt.Errorf("no sweep table in output")
	}
	return rows, nil
}

// simReport is the part of questsim's report the benchmark checks and
// counts.
type simReport struct {
	Cycles        int // program cycles, idle cycles excluded
	Idle          int
	Escalated     int
	GlobalDecodes int
	TileUops      []int
}

// uops is the simulated µops summed over tiles.
func (r simReport) uops() int {
	n := 0
	for _, u := range r.TileUops {
		n += u
	}
	return n
}

// parseSim reads questsim's report.
func parseSim(out []byte) (simReport, error) {
	var r simReport
	var haveCycles, haveEsc bool
	sc := bufio.NewScanner(bytes.NewReader(out))
	for sc.Scan() {
		line := strings.TrimSpace(sc.Text())
		var err error
		switch {
		case strings.HasPrefix(line, "program cycles:"):
			_, err = fmt.Sscanf(line, "program cycles: %d (+%d idle)", &r.Cycles, &r.Idle)
			haveCycles = true
		case strings.HasPrefix(line, "defects escalated:"):
			_, err = fmt.Sscanf(line, "defects escalated: %d (global decodes: %d)", &r.Escalated, &r.GlobalDecodes)
			haveEsc = true
		case strings.HasPrefix(line, "tile ") && strings.Contains(line, " µops,"):
			var tile, uops int
			_, err = fmt.Sscanf(line, "tile %d: %d µops,", &tile, &uops)
			if err == nil && tile != len(r.TileUops) {
				err = fmt.Errorf("tile %d out of order", tile)
			}
			r.TileUops = append(r.TileUops, uops)
		}
		if err != nil {
			return simReport{}, fmt.Errorf("questsim line %q: %v", line, err)
		}
	}
	if !haveCycles || !haveEsc || len(r.TileUops) == 0 {
		return simReport{}, fmt.Errorf("questsim report incomplete")
	}
	return r, nil
}

// seedIndependent drops the questsim report lines whose values depend on the
// noise seed (syndrome traffic, escalations, logical readouts). What is left
// — cycles, µops, bus bytes, cache traffic — must be identical for every
// seed.
func seedIndependent(out []byte) []byte {
	var b bytes.Buffer
	for _, line := range strings.SplitAfter(string(out), "\n") {
		t := strings.TrimSpace(line)
		if strings.HasPrefix(t, "syndrome bytes") || strings.HasPrefix(t, "defects escalated") ||
			strings.HasPrefix(t, "logical measurement") {
			continue
		}
		b.WriteString(line)
	}
	return b.Bytes()
}

// parseRegistry decodes the registry dump -metrics json writes to stderr
// after any status lines: the JSON object is the last line that opens with
// "{" through the end.
func parseRegistry(stderr []byte) (metrics.Snapshot, error) {
	var snap metrics.Snapshot
	i := bytes.LastIndex(stderr, []byte("\n{\n"))
	switch {
	case i >= 0:
		i++
	case bytes.HasPrefix(stderr, []byte("{\n")):
		i = 0
	default:
		return snap, fmt.Errorf("no metrics JSON on stderr")
	}
	if err := json.Unmarshal(stderr[i:], &snap); err != nil {
		return snap, fmt.Errorf("metrics JSON: %w", err)
	}
	return snap, nil
}

// registry indexes a snapshot by instrument name.
type registry struct {
	counters map[string]uint64
	hists    map[string]metrics.HistogramSummary
}

func indexSnapshot(s metrics.Snapshot) registry {
	r := registry{counters: map[string]uint64{}, hists: map[string]metrics.HistogramSummary{}}
	for _, c := range s.Counters {
		r.counters[c.Name] = c.Value
	}
	for _, h := range s.Histograms {
		r.hists[h.Name] = h.Summary
	}
	return r
}

func (r registry) count(name string) float64 { return float64(r.counters[name]) }

// busy is a latency histogram's total, in seconds.
func (r registry) busy(name string) float64 { return r.hists[name].Sum / 1e9 }

// outsideTimers is the CLI run's time, in seconds, outside the MCE-cycle and
// decode timers: the trial time on a sweep (mc.trial.ns), else rootS, the
// run's wall time. decoder.match.ns runs inside the decode timers
// (decoder.window.flush.ns and master.decode.ns), so it is not subtracted
// again.
func outsideTimers(r registry, rootS float64) float64 {
	if t := r.hists["mc.trial.ns"]; t.Count > 0 {
		rootS = t.Sum / 1e9
	}
	return rootS - r.busy("mce.cycle.ns") - r.busy("decoder.window.flush.ns") - r.busy("master.decode.ns")
}

// ledgerFails reads a quest-ledger/1 file's trial records into per-cell fail
// bits in trial order, and digests its trial and cell records (the header
// carries host and revision provenance, so it is left out).
func ledgerFails(data []byte) (fails map[string][]bool, digest string, err error) {
	fails = map[string][]bool{}
	h := sha256.New()
	sc := bufio.NewScanner(bytes.NewReader(data))
	sc.Buffer(make([]byte, 1<<16), 1<<24)
	first := true
	for sc.Scan() {
		line := sc.Bytes()
		if first {
			first = false
			var hd ledger.Header
			if err := json.Unmarshal(line, &hd); err != nil || hd.Schema != ledger.Schema {
				return nil, "", fmt.Errorf("ledger header: want schema %s", ledger.Schema)
			}
			continue
		}
		h.Write(line)
		h.Write([]byte{'\n'})
		var t ledger.Trial
		if err := json.Unmarshal(line, &t); err != nil {
			return nil, "", fmt.Errorf("ledger record: %w", err)
		}
		if t.Record != ledger.KindTrial {
			continue
		}
		if t.Trial != len(fails[t.Cell]) {
			return nil, "", fmt.Errorf("ledger cell %q: trial %d out of order", t.Cell, t.Trial)
		}
		fails[t.Cell] = append(fails[t.Cell], t.Fail)
	}
	if err := sc.Err(); err != nil {
		return nil, "", err
	}
	if first {
		return nil, "", fmt.Errorf("empty ledger")
	}
	return fails, hex.EncodeToString(h.Sum(nil)), nil
}

func digest(b []byte) string {
	s := sha256.Sum256(b)
	return hex.EncodeToString(s[:])
}
