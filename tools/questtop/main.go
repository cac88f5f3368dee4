// Command questtop is the fleet monitor for live quest-events/1 telemetry
// streams: point it at one or many shard event streams — JSONL files written
// by `questbench -events` / `questsim -events`, or `http://host/events` SSE
// URLs served by a running process under -pprof — and it renders the sharded
// sweep as one run: per-shard and total trial rates, the slowest unfinished
// cell, the CI-width frontier (the interval furthest from converging), and
// the fleet ETA.
//
// Usage:
//
//	questtop [-for DURATION] stream [stream ...]
//
// A stream is a file path or an http(s) URL. URLs are tailed as SSE for at
// most -for (default 2s) before rendering; files are read once, so rerun (or
// `watch questtop ...`) to refresh.
//
// Every stream is validated before anything renders: each must be a
// well-formed quest-events/1 stream (schema, single leading header,
// increasing seq, monotone timestamps, sorted self-consistent cells) and
// the set must be a coherent fleet (one experiment, one shard count,
// distinct shard indices). File streams must be gap-free from seq 1; URL
// streams are validated as mid-run tails (a late SSE subscriber starts at
// the current seq, and a slow one may drop frames). CI's events-smoke job
// gates on it.
//
// Exit codes follow the tools/internal/cli contract: 0 clean, 1 findings
// (invalid stream, incoherent fleet), 2 usage or unreadable input. The
// aggregate view is deterministic in the shard arrival order: rows sort by
// shard identity, not argument position, so any ordering of the same
// streams renders identical totals.
package main

import (
	"bufio"
	"context"
	"flag"
	"fmt"
	"io"
	"net/http"
	"sort"
	"strings"
	"time"

	"quest/internal/bandwidth"
	"quest/internal/events"
	"quest/tools/internal/cli"
)

func command() *cli.Command {
	fs := flag.NewFlagSet("questtop", flag.ContinueOnError)
	tail := fs.Duration("for", 2*time.Second, "how long to tail each SSE URL before rendering")
	return &cli.Command{
		Name:  "questtop",
		Usage: "[-for DURATION] stream [stream ...]",
		NArgs: -1,
		Flags: fs,
		Run: func(args []string, stdout io.Writer) error {
			if len(args) == 0 {
				return cli.Usagef("no event streams given (files or http://host/events URLs)")
			}
			shards := make([]shardStream, 0, len(args))
			for _, src := range args {
				data, live, err := readStream(src, *tail)
				if err != nil {
					return err
				}
				st, err := events.ParseStream(data)
				if err != nil {
					return cli.Failf("%s: %v", src, err)
				}
				validate := events.Validate
				if live {
					validate = events.ValidateTail
				}
				rep, err := validate(data)
				if err != nil {
					return cli.Failf("%s: %v", src, err)
				}
				shards = append(shards, shardStream{src: src, stream: st, report: rep})
			}
			if err := checkFleet(shards); err != nil {
				return err
			}
			render(stdout, sorted(shards))
			return nil
		},
	}
}

// shardStream is one parsed input stream with its validation report.
type shardStream struct {
	src    string
	stream events.Stream
	report events.ValidateReport
}

// readStream loads one source: files are read whole, http(s) URLs are
// tailed as SSE for at most d and their data frames unwrapped back to
// JSONL. live reports whether the source was a URL — a mid-run capture
// that ValidateTail, not Validate, applies to. Unreachable sources are
// usage-class (the check never ran).
func readStream(src string, d time.Duration) (data []byte, live bool, err error) {
	if !strings.HasPrefix(src, "http://") && !strings.HasPrefix(src, "https://") {
		data, err = cli.ReadFile(src)
		return data, false, err
	}
	ctx, cancel := context.WithTimeout(context.Background(), d)
	defer cancel()
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, src, nil)
	if err != nil {
		return nil, true, cli.Usagef("%s: %v", src, err)
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		return nil, true, cli.Usagef("%s: %v", src, err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return nil, true, cli.Usagef("%s: HTTP %s", src, resp.Status)
	}
	// Unwrap SSE framing: every `data: {...}` line is one JSONL record.
	// Reading ends at the -for deadline (context cancels the body) or when
	// the serving process exits; both leave a valid prefix.
	var buf strings.Builder
	sc := bufio.NewScanner(resp.Body)
	sc.Buffer(make([]byte, 1<<20), 1<<20)
	for sc.Scan() {
		if line, ok := strings.CutPrefix(sc.Text(), "data: "); ok {
			buf.WriteString(line)
			buf.WriteByte('\n')
		}
	}
	return []byte(buf.String()), true, nil
}

// checkFleet verifies the streams describe one coherent run: a single
// experiment name, a single shard count, and no shard index claimed twice.
func checkFleet(shards []shardStream) error {
	byIndex := map[int]string{}
	for _, s := range shards {
		first := shards[0].report
		if s.report.Experiment != first.Experiment {
			return cli.Failf("fleet mismatch: %s is experiment %q but %s is %q",
				shards[0].src, first.Experiment, s.src, s.report.Experiment)
		}
		if s.report.ShardCount != first.ShardCount {
			return cli.Failf("fleet mismatch: %s is %s but %s is %s — streams are from different shardings",
				shards[0].src, shardLabel(first), s.src, shardLabel(s.report))
		}
		if s.report.ShardCount > 0 {
			if prev, dup := byIndex[s.report.ShardIndex]; dup {
				return cli.Failf("fleet mismatch: %s and %s both claim shard %d/%d",
					prev, s.src, s.report.ShardIndex, s.report.ShardCount)
			}
			byIndex[s.report.ShardIndex] = s.src
		}
	}
	return nil
}

// sorted orders streams by shard identity (then experiment/source as a
// stable fallback for unsharded sets) so the rendering is independent of
// argument order.
func sorted(shards []shardStream) []shardStream {
	out := append([]shardStream(nil), shards...)
	sort.Slice(out, func(i, j int) bool {
		a, b := out[i].report, out[j].report
		if a.ShardCount != b.ShardCount {
			return a.ShardCount < b.ShardCount
		}
		if a.ShardIndex != b.ShardIndex {
			return a.ShardIndex < b.ShardIndex
		}
		return out[i].src < out[j].src
	})
	return out
}

// shardLabel renders a report's shard identity ("unsharded" or "shard i/N").
func shardLabel(r events.ValidateReport) string {
	if r.ShardCount == 0 {
		return "unsharded"
	}
	return fmt.Sprintf("shard %d/%d", r.ShardIndex, r.ShardCount)
}

// latestCells returns the per-cell state of a stream's newest snapshot
// (empty when the stream holds no snapshots yet).
func latestCells(s shardStream) []events.CellProgress {
	if n := len(s.stream.Snapshots); n > 0 {
		return s.stream.Snapshots[n-1].Cells
	}
	return nil
}

// latestBW returns the per-bus bandwidth state of a stream's newest
// snapshot (nil when the stream has none, e.g. the run is not profiling).
func latestBW(s shardStream) []events.BusRate {
	if n := len(s.stream.Snapshots); n > 0 {
		return s.stream.Snapshots[n-1].BW
	}
	return nil
}

// renderBW writes the fleet bus-bandwidth line: per-bus cumulative bytes and
// summed byte rates across all shards, in bus-name order. Silent when no
// stream carries bandwidth telemetry (runs without -bw).
func renderBW(w io.Writer, shards []shardStream) {
	busBytes := map[string]uint64{}
	busRate := map[string]float64{}
	var names []string
	for _, s := range shards {
		for _, b := range latestBW(s) {
			if _, seen := busBytes[b.Bus]; !seen {
				names = append(names, b.Bus)
			}
			busBytes[b.Bus] += b.Bytes
			busRate[b.Bus] += b.RatePerSec
		}
	}
	if len(names) == 0 {
		return
	}
	sort.Strings(names)
	parts := make([]string, len(names))
	for i, name := range names {
		parts[i] = fmt.Sprintf("%s %d B @ %s", name, busBytes[name], bandwidth.BytesPerSec(busRate[name]))
	}
	fmt.Fprintf(w, "bus bandwidth: %s\n", strings.Join(parts, " · "))
}

// render writes the fleet-wide aggregated view: one row per shard, a totals
// row, then the slowest unfinished cell and the CI-width frontier.
func render(w io.Writer, shards []shardStream) {
	first := shards[0].report
	totalRate, totalCells, totalDone := 0.0, 0, 0
	var fleetEta int64
	var slowest, widest *events.CellProgress
	var slowestSrc, widestSrc string

	fmt.Fprintf(w, "questtop: experiment %q — %d stream(s)\n", first.Experiment, len(shards))
	fmt.Fprintf(w, "%-12s %-24s %8s %6s %6s %12s %10s\n",
		"shard", "source", "snaps", "cells", "done", "trials/s", "eta")
	for _, s := range shards {
		rate := 0.0
		var eta int64
		cells := latestCells(s)
		for i := range cells {
			c := &cells[i]
			rate += c.RatePerSec
			if c.EtaMs > eta {
				eta = c.EtaMs
			}
			if c.Done {
				continue
			}
			if slowest == nil || c.RatePerSec < slowest.RatePerSec {
				slowest, slowestSrc = c, s.src
			}
			if width := c.WilsonHi - c.WilsonLo; widest == nil || width > widest.WilsonHi-widest.WilsonLo {
				widest, widestSrc = c, s.src
			}
		}
		totalRate += rate
		totalCells += s.report.Cells
		totalDone += s.report.DoneCells
		if eta > fleetEta {
			fleetEta = eta
		}
		fmt.Fprintf(w, "%-12s %-24s %8d %6d %6d %12.1f %10s\n",
			shardLabel(s.report), s.src, s.report.Snapshots, s.report.Cells, s.report.DoneCells,
			rate, etaString(eta))
	}
	fmt.Fprintf(w, "%-12s %-24s %8s %6d %6d %12.1f %10s\n",
		"total", "", "", totalCells, totalDone, totalRate, etaString(fleetEta))
	renderBW(w, shards)
	if slowest == nil {
		fmt.Fprintf(w, "all %d cell(s) done\n", totalCells)
		return
	}
	fmt.Fprintf(w, "slowest cell: %q (%s) at %.1f trials/s\n", slowest.Cell, slowestSrc, slowest.RatePerSec)
	fmt.Fprintf(w, "ci frontier:  %q (%s) width %.4f [%.4f, %.4f]\n",
		widest.Cell, widestSrc, widest.WilsonHi-widest.WilsonLo, widest.WilsonLo, widest.WilsonHi)
}

// etaString renders a cell/fleet ETA ("-" when unknown or already done).
func etaString(ms int64) string {
	if ms <= 0 {
		return "-"
	}
	return (time.Duration(ms) * time.Millisecond).Round(100 * time.Millisecond).String()
}

func main() {
	command().Main()
}
