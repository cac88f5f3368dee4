// Command questcheck validates the artifacts of questbench and questsim
// runs, each through its format's one validator:
//
//   - an experiment ledger (-ledger, quest-ledger/1 JSONL) must pass
//     ledger.Validate: one schema-versioned header first, contiguous
//     per-cell blocks of in-order trial records, and per-cell summaries
//     consistent with their records; a ledger cut short (a last cell with
//     no summary, a torn last line) fails;
//   - a bandwidth profile (-bw, quest-bw/1 JSONL) must pass
//     bwprofile.Validate: one header first, contiguous windows whose bus
//     sums match their totals, and a summary that recomputes exactly from
//     the windows;
//   - a heatmap (-heatmap, quest-heatmap/1 JSON) must pass
//     heatmap.ReadFile;
//   - a Chrome trace-event file (-trace) must pass tracing.Validate:
//     well-formed JSON-object format, every event carrying
//     ph/name/pid/tid/ts, non-negative span durations, and a non-decreasing
//     ts sequence within every (pid, tid) track.
//
// Usage:
//
//	questcheck [-min-cells N] [-min-trials N] [-min-procs N] [-min-events N] file [file ...]
//
// The schema a file names picks its format: the first line's "schema" for
// the JSONL artifacts, the document's for a heatmap. A file that names no
// schema is read as a trace, which carries none; one that names another
// schema fails. Every file is validated before anything prints; then each
// gets one OK line. A profile's line carries its design (or experiment),
// windows, total/peak/sustained/p50/p99 window bytes, burstiness and the
// µops replayed from the tile caches, which crossed no bus.
//
// -min-cells (default 1) and -min-trials are floors on every ledger given,
// -min-procs and -min-events (default 1) on every trace. Exit codes follow
// the tools/internal/cli contract: 0 valid, 1 validation findings (an
// invalid file, a floor not met), 2 usage (no file, a floor set for a
// format none of the files has) or unreadable input.
package main

import (
	"bytes"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"slices"

	"quest/internal/bwprofile"
	"quest/internal/heatmap"
	"quest/internal/ledger"
	"quest/internal/tracing"
	"quest/tools/internal/cli"
)

// Format names, as the floor flags and the OK lines use them.
const (
	formatLedger  = "ledger"
	formatBW      = "bandwidth profile"
	formatHeatmap = "heatmap"
	formatTrace   = "trace"
)

func command() *cli.Command {
	fs := flag.NewFlagSet("questcheck", flag.ContinueOnError)
	minCells := fs.Int("min-cells", 1, "ledger: fail unless it carries at least this many cell summaries")
	minTrials := fs.Int("min-trials", 0, "ledger: fail unless it carries at least this many trial records")
	minProcs := fs.Int("min-procs", 0, "trace: fail unless it carries at least this many processes (component tracks)")
	minEvents := fs.Int("min-events", 1, "trace: fail unless it carries at least this many events")
	floorFormat := map[string]string{"min-cells": formatLedger, "min-trials": formatLedger, "min-procs": formatTrace, "min-events": formatTrace}
	return &cli.Command{
		Name:  "questcheck",
		Usage: "[-min-cells N] [-min-trials N] [-min-procs N] [-min-events N] file [file ...]",
		NArgs: -1,
		Flags: fs,
		Run: func(args []string, stdout io.Writer) error {
			if len(args) == 0 {
				return cli.Usagef("no file given (write one with questbench or questsim -ledger, -bw, -heatmap or -trace)")
			}
			data := make([][]byte, len(args))
			formats := make([]string, len(args))
			for i, path := range args {
				var err error
				if data[i], err = cli.ReadFile(path); err != nil {
					return err
				}
				formats[i] = formatOf(data[i])
			}
			var err error
			fs.Visit(func(f *flag.Flag) {
				if want := floorFormat[f.Name]; want != "" && !slices.Contains(formats, want) && err == nil {
					err = cli.Usagef("-%s is a %s floor, but no file given is a %s", f.Name, want, want)
				}
			})
			if err != nil {
				return err
			}
			lines := make([]string, len(args))
			for i, path := range args {
				line, err := check(formats[i], data[i], floors{*minCells, *minTrials, *minProcs, *minEvents})
				if err != nil {
					return cli.Failf("%s: %v", path, err)
				}
				lines[i] = fmt.Sprintf("questcheck: %s OK — %s\n", path, line)
			}
			for _, line := range lines {
				fmt.Fprint(stdout, line)
			}
			return nil
		},
	}
}

// floors are the minimum counts a ledger or a trace must carry.
type floors struct {
	cells, trials, procs, events int
}

// formatOf names the artifact kind of data by the schema it names: the
// first line's for a JSONL artifact, the whole document's for a heatmap.
// A file naming no schema is a trace; one naming an unknown schema is
// reported by its schema string.
func formatOf(data []byte) string {
	var doc struct {
		Schema string `json:"schema"`
	}
	first, _, _ := bytes.Cut(data, []byte("\n"))
	if json.Unmarshal(first, &doc) != nil && json.Unmarshal(data, &doc) != nil {
		return formatTrace // not JSON at all: tracing.Validate says why
	}
	switch doc.Schema {
	case ledger.Schema:
		return formatLedger
	case bwprofile.Schema:
		return formatBW
	case heatmap.Schema:
		return formatHeatmap
	case "":
		return formatTrace
	}
	return doc.Schema
}

// check validates data with the validator of its format and the floors,
// and returns the summary its OK line carries.
func check(format string, data []byte, at floors) (string, error) {
	switch format {
	case formatLedger:
		rep, err := ledger.Validate(data)
		switch {
		case err != nil:
			return "", err
		case rep.Cells < at.cells:
			return "", fmt.Errorf("%d cell(s), want >= %d", rep.Cells, at.cells)
		case rep.Trials < at.trials:
			return "", fmt.Errorf("%d trial record(s), want >= %d", rep.Trials, at.trials)
		}
		return fmt.Sprintf("ledger of experiment %q, %d cell(s), %d trial record(s)", rep.Experiment, rep.Cells, rep.Trials), nil
	case formatBW:
		rep, err := bwprofile.Validate(data)
		if err != nil {
			return "", err
		}
		key := fmt.Sprintf("experiment %q", rep.Experiment)
		if rep.Design != "" {
			key = fmt.Sprintf("design %q", rep.Design)
		}
		s := rep.Summary
		return fmt.Sprintf("bandwidth profile of %s, %d window(s), %d B total, %d B peak, %.1f B sustained, p50 %d B, p99 %d B, burstiness %.2f, %d µop(s) replayed from cache",
			key, s.Windows, s.TotalBytes, s.PeakBytes, s.SustainedBytes, s.P50Bytes, s.P99Bytes, s.Burstiness,
			s.Classes[bwprofile.ClassReplay.String()].Instrs), nil
	case formatHeatmap:
		f, err := heatmap.ReadFile(data)
		if err != nil {
			return "", err
		}
		return fmt.Sprintf("heatmap, %d grid(s)", len(f.Grids)), nil
	case formatTrace:
		rep, err := tracing.Validate(data)
		switch {
		case err != nil:
			return "", err
		case rep.Procs < at.procs:
			return "", fmt.Errorf("%d process(es), want >= %d", rep.Procs, at.procs)
		case rep.Events < at.events:
			return "", fmt.Errorf("%d event(s), want >= %d", rep.Events, at.events)
		}
		return fmt.Sprintf("trace, %d event(s), %d process(es), %d track(s)", rep.Events, rep.Procs, rep.Tracks), nil
	default:
		return "", fmt.Errorf("schema %q is none of %s, %s and %s", format, ledger.Schema, bwprofile.Schema, heatmap.Schema)
	}
}

func main() {
	command().Main()
}
