// Command bwreport validates and compares quest-bw/1 instruction-bandwidth
// profiles: point it at one or many artifacts written by `questbench -bw` /
// `questsim -bw` and it renders a per-run comparison table — windows, total
// traffic, peak and sustained window bytes, p50/p99, burstiness, and the
// cache-replay savings — keyed by the run's microcode design when the
// header carries one. This is the paper's evaluation question in one table:
// how much instruction bandwidth does each µcode memory organization
// (ram, fifo, unitcell) actually demand, and how bursty is it?
//
// Usage:
//
//	bwreport file [file ...]
//
// Every file is validated before anything renders: it must be a
// well-formed quest-bw/1 profile (schema, single leading header,
// contiguous windows, per-window bus sums matching totals, a summary that
// recomputes exactly from the windows). CI's bw-smoke job gates on it.
//
// Exit codes follow the tools/internal/cli contract: 0 clean, 1 findings
// (invalid profile), 2 usage or unreadable input. Rows sort by design then
// experiment then source, so any argument order renders identical bytes.
package main

import (
	"fmt"
	"io"
	"sort"

	"quest/internal/bwprofile"
	"quest/tools/internal/cli"
)

func command() *cli.Command {
	return &cli.Command{
		Name:  "bwreport",
		Usage: "file [file ...]",
		NArgs: -1,
		Run: func(args []string, stdout io.Writer) error {
			if len(args) == 0 {
				return cli.Usagef("no profile files given (write one with questbench/questsim -bw)")
			}
			runs := make([]run, 0, len(args))
			for _, src := range args {
				data, err := cli.ReadFile(src)
				if err != nil {
					return err
				}
				rep, err := bwprofile.Validate(data)
				if err != nil {
					return cli.Failf("%s: %v", src, err)
				}
				runs = append(runs, run{src: src, report: rep})
			}
			render(stdout, sorted(runs))
			return nil
		},
	}
}

// run is one validated profile.
type run struct {
	src    string
	report bwprofile.ValidateReport
}

// sorted orders runs by design, then experiment, then source, so the table
// is independent of argument order.
func sorted(runs []run) []run {
	out := append([]run(nil), runs...)
	sort.Slice(out, func(i, j int) bool {
		a, b := out[i].report, out[j].report
		if a.Design != b.Design {
			return a.Design < b.Design
		}
		if a.Experiment != b.Experiment {
			return a.Experiment < b.Experiment
		}
		return out[i].src < out[j].src
	})
	return out
}

// label picks the row key: the microcode design when the run recorded one,
// the experiment name otherwise.
func label(r run) string {
	if r.report.Design != "" {
		return r.report.Design
	}
	return r.report.Experiment
}

// render writes the comparison table plus the per-run cache-replay savings.
func render(w io.Writer, runs []run) {
	fmt.Fprintf(w, "bwreport: %d profile(s)\n", len(runs))
	fmt.Fprintf(w, "%-10s %-20s %8s %10s %10s %11s %9s %9s %6s\n",
		"design", "source", "windows", "total B", "peak B", "sustained", "p50 B", "p99 B", "burst")
	for _, r := range runs {
		s := r.report.Summary
		fmt.Fprintf(w, "%-10s %-20s %8d %10d %10d %11.1f %9d %9d %6.2f\n",
			label(r), r.src, s.Windows, s.TotalBytes, s.PeakBytes, s.SustainedBytes,
			s.P50Bytes, s.P99Bytes, s.Burstiness)
	}
	for _, r := range runs {
		replay, ok := r.report.Summary.Classes[bwprofile.ClassReplay.String()]
		if !ok || replay.Instrs == 0 {
			continue
		}
		// Replayed µops enter the pipeline from the tile-local cache without
		// crossing the global bus; each would have cost an instruction's
		// bus bytes if dispatched — the paper's bandwidth-taming effect.
		fmt.Fprintf(w, "%s: cache replayed %d µop(s) without bus traffic (%d B dispatched on the bus)\n",
			label(r), replay.Instrs, r.report.Summary.TotalBytes)
	}
}

func main() {
	command().Main()
}
