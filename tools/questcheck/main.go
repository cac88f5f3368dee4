// Command questcheck validates one artifact of a questbench/questsim run:
// an experiment ledger (-ledger, quest-ledger/1 JSONL) or a Chrome
// trace-event JSON file (-trace). A ledger must pass ledger.Validate: one
// schema-versioned header first, contiguous per-cell blocks of in-order
// trial records, and per-cell summaries consistent with their records; a
// ledger cut short (a last cell with no summary, a torn last line) fails. A
// trace must pass tracing.Validate: well-formed JSON-object format, every
// event carrying ph/name/pid/tid/ts, non-negative span durations, and a
// non-decreasing ts sequence within every (pid, tid) track. CI's
// trace-smoke job runs it over fresh artifacts, so a schema regression fails
// the build instead of silently producing files nothing can replay or
// Perfetto rejects.
//
// Usage:
//
//	questcheck [-min-cells N] [-min-trials N] run.ledger
//	questcheck [-min-procs N] [-min-events N] trace.json
//
// A file whose first line is a JSON object with a "record" field is read as
// a ledger, so any other JSONL artifact (quest-bw/1, say) fails on its
// schema; anything else is read as a trace, which carries no schema
// string. Exit codes follow the tools/internal/cli contract: 0 valid, 1
// validation findings, 2 usage (including a floor for the other format) or
// unreadable input.
package main

import (
	"bytes"
	"encoding/json"
	"flag"
	"fmt"
	"io"

	"quest/internal/ledger"
	"quest/internal/tracing"
	"quest/tools/internal/cli"
)

func command() *cli.Command {
	fs := flag.NewFlagSet("questcheck", flag.ContinueOnError)
	minCells := fs.Int("min-cells", 1, "ledger: fail unless it carries at least this many cell summaries")
	minTrials := fs.Int("min-trials", 0, "ledger: fail unless it carries at least this many trial records")
	minProcs := fs.Int("min-procs", 0, "trace: fail unless it carries at least this many processes (component tracks)")
	minEvents := fs.Int("min-events", 1, "trace: fail unless it carries at least this many events")
	floorFormat := map[string]string{"min-cells": "ledger", "min-trials": "ledger", "min-procs": "trace", "min-events": "trace"}
	return &cli.Command{
		Name:  "questcheck",
		Usage: "[-min-cells N] [-min-trials N] run.ledger | [-min-procs N] [-min-events N] trace.json",
		NArgs: 1,
		Flags: fs,
		Run: func(args []string, stdout io.Writer) error {
			path := args[0]
			data, err := cli.ReadFile(path)
			if err != nil {
				return err
			}
			format := "trace"
			if isLedger(data) {
				format = "ledger"
			}
			fs.Visit(func(f *flag.Flag) {
				if floorFormat[f.Name] != format && err == nil {
					err = cli.Usagef("%s is a %s, but -%s is a %s floor", path, format, f.Name, floorFormat[f.Name])
				}
			})
			if err != nil {
				return err
			}
			if format == "trace" {
				rep, err := tracing.Validate(data)
				switch {
				case err != nil:
					return cli.Failf("%s: %v", path, err)
				case rep.Procs < *minProcs:
					return cli.Failf("%s: %d process(es), want >= %d", path, rep.Procs, *minProcs)
				case rep.Events < *minEvents:
					return cli.Failf("%s: %d event(s), want >= %d", path, rep.Events, *minEvents)
				}
				fmt.Fprintf(stdout, "questcheck: %s OK — trace, %d event(s), %d process(es), %d track(s)\n",
					path, rep.Events, rep.Procs, rep.Tracks)
				return nil
			}
			rep, err := ledger.Validate(data)
			switch {
			case err != nil:
				return cli.Failf("%s: %v", path, err)
			case rep.Cells < *minCells:
				return cli.Failf("%s: %d cell(s), want >= %d", path, rep.Cells, *minCells)
			case rep.Trials < *minTrials:
				return cli.Failf("%s: %d trial record(s), want >= %d", path, rep.Trials, *minTrials)
			}
			fmt.Fprintf(stdout, "questcheck: %s OK — ledger of experiment %q, %d cell(s), %d trial record(s)\n",
				path, rep.Experiment, rep.Cells, rep.Trials)
			return nil
		},
	}
}

// isLedger reports whether data's first line is a JSON object with a
// "record" field, the shape of every JSONL artifact the commands write. A
// Chrome trace opens with a line that is not JSON on its own.
func isLedger(data []byte) bool {
	first, _, _ := bytes.Cut(data, []byte("\n"))
	var rec struct {
		Record *string `json:"record"`
	}
	return json.Unmarshal(first, &rec) == nil && rec.Record != nil
}

func main() {
	command().Main()
}
