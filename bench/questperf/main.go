// Command questperf is the repository's benchmark of record. It measures
// the runs users make — questbench's threshold and memory sweeps and
// questsim machine runs — as child processes, closed loop with one client:
// each run starts after the previous one exits. Metric names, units,
// directions and regression bounds come from BENCHMARK.json; every output
// is checked against bench/golden.json.
//
// Two phases, each run per workload:
//
//   - End to end (-trace 0), tracing off: one discarded warm-up run, then
//     rounds of one minimum-size set-up run and one full-size run for
//     -seconds, rotating the workloads' start order each round.
//   - Traced (-trace 1): the CLI once more with -metrics json (and -ledger
//     on the sweeps) for the program's own registry, runs with every
//     observer on for their overhead, and an in-process replica of the
//     workload with a span around each layer call, written to
//     DIR/trace.jsonl. The replica is checked against the traced run.
//
// Run it from the repository root through bench/run.sh, which builds the
// binaries first:
//
//	bash bench/run.sh [-workload NAME|all] [-seed N] [-seconds N] [-trace 0|1]
//	                  [-out DIR] [-baseline FILE] [-write-golden]
//
// The last line of stdout is one JSON object: correct, attempted, failed,
// and the metrics (keyed "<workload>.<metric>" when several workloads ran).
// DIR/result.json holds every metric with its unit, sample count and
// quartiles. -baseline compares the run against an earlier result.json under
// the bounds and exits 1 on a regression. -write-golden regenerates
// bench/golden.json at seed 1; only a change that means to alter simulated
// statistics does that.
package main

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"strconv"
	"strings"
	"syscall"
	"time"

	"quest/internal/metrics"
)

// ResultSchema identifies the layout of result.json.
const ResultSchema = "quest-perf/1"

const (
	minReps      = 3  // full-size runs per workload, however short -seconds is
	minSetupRuns = 11 // minimum-size runs per workload, one per round and at least this many
	tracedReps   = 3  // untraced and observer-on runs in the traced phase
	// childTimeout kills a hung child; the run then counts as failed.
	childTimeout = 150 * time.Second
)

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

type config struct {
	workload    string
	seed        int64
	seconds     int
	trace       int
	bin, out    string
	baseline    string
	writeGolden bool
}

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("questperf", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var c config
	fs.StringVar(&c.workload, "workload", "all", "workload to run, or all")
	fs.Int64Var(&c.seed, "seed", 1, "seed for the workloads' inputs (questsim's -seed)")
	fs.IntVar(&c.seconds, "seconds", 0, "measuring time per workload in the end-to-end phase (0 = BENCHMARK.json's run_seconds)")
	fs.IntVar(&c.trace, "trace", -1, "0: end-to-end phase only, 1: traced phase only, -1: both")
	fs.StringVar(&c.bin, "bin", ".bench_build/bin", "directory holding the questbench and questsim binaries")
	fs.StringVar(&c.out, "out", "bench/out", "directory for result.json, trace.jsonl and the runs' side files")
	fs.StringVar(&c.baseline, "baseline", "", "result.json of an earlier run to compare against")
	fs.BoolVar(&c.writeGolden, "write-golden", false, "regenerate "+goldenPath+" at seed 1 instead of measuring")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if err := runConfig(c, stdout, stderr); err != nil {
		fmt.Fprintln(stderr, "questperf:", err)
		var re regressionError
		if errors.As(err, &re) {
			return 1
		}
		return 2
	}
	return 0
}

// regressionError reports metrics that regressed against -baseline.
type regressionError struct{ n int }

func (e regressionError) Error() string {
	return fmt.Sprintf("%d metric(s) regressed beyond their bound", e.n)
}

func runConfig(c config, stdout, stderr io.Writer) error {
	if c.trace < -1 || c.trace > 1 {
		return fmt.Errorf("-trace %d: want 0, 1 or -1", c.trace)
	}
	spec, err := readSpec("BENCHMARK.json")
	if err != nil {
		return err
	}
	if c.seconds == 0 {
		c.seconds = spec.RunSeconds
	}
	if c.seconds < 1 {
		return fmt.Errorf("-seconds %d: want at least 1", c.seconds)
	}
	ws, err := selectWorkloads(spec, c.workload)
	if err != nil {
		return err
	}
	for _, w := range ws {
		if _, err := os.Stat(filepath.Join(c.bin, w.bin)); err != nil {
			return fmt.Errorf("%v (build the binaries with bench/run.sh)", err)
		}
	}
	if err := os.MkdirAll(c.out, 0o755); err != nil {
		return err
	}
	s := &session{bin: c.bin, out: c.out, seed: c.seed, workers: min(2, runtime.NumCPU()), log: stderr}
	if c.writeGolden {
		return s.writeGolden(ws)
	}
	if s.golden, err = readGolden(goldenPath); err != nil {
		return err
	}

	states := make([]*wlState, len(ws))
	for i, w := range ws {
		states[i] = &wlState{w: w, samples: map[string][]float64{}}
	}
	if c.trace != 1 {
		s.endToEnd(states, float64(c.seconds))
	}
	if c.trace != 0 {
		if err := s.tracedPhase(states); err != nil {
			return err
		}
	}

	rep, err := s.report(spec, states, c)
	if err != nil {
		return err
	}
	if err := writeJSON(filepath.Join(c.out, "result.json"), rep); err != nil {
		return err
	}
	printReport(stdout, rep)
	var cmpErr error
	if c.baseline != "" {
		if cmpErr = compareBaseline(stdout, spec, c.baseline, rep); cmpErr != nil && !errors.As(cmpErr, new(regressionError)) {
			return cmpErr
		}
	}
	line, err := json.Marshal(summaryLine(rep, len(states) > 1))
	if err != nil {
		return err
	}
	fmt.Fprintln(stdout, string(line))
	return cmpErr
}

// metricSpec is one metric as BENCHMARK.json declares it.
type metricSpec struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound,omitempty"`
}

// benchSpec is the part of BENCHMARK.json questperf reads.
type benchSpec struct {
	RunSeconds int `json:"run_seconds"`
	Workloads  []struct {
		Name string `json:"name"`
	} `json:"workloads"`
	EndToEnd []metricSpec `json:"end_to_end"`
	PerLayer []metricSpec `json:"per_layer"`
}

func readSpec(path string) (*benchSpec, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, fmt.Errorf("%v (run from the repository root)", err)
	}
	var spec benchSpec
	if err := json.Unmarshal(data, &spec); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return &spec, nil
}

// selectWorkloads returns the named workload, or all of them, after checking
// that BENCHMARK.json declares exactly the workloads questperf runs.
func selectWorkloads(spec *benchSpec, name string) ([]*workload, error) {
	all := workloads()
	var declared, defined []string
	for _, w := range spec.Workloads {
		declared = append(declared, w.Name)
	}
	for _, w := range all {
		defined = append(defined, w.name)
	}
	if strings.Join(declared, ",") != strings.Join(defined, ",") {
		return nil, fmt.Errorf("BENCHMARK.json declares workloads %v, questperf runs %v", declared, defined)
	}
	if name == "all" {
		return all, nil
	}
	for _, w := range all {
		if w.name == name {
			return []*workload{w}, nil
		}
	}
	return nil, fmt.Errorf("unknown workload %q; want one of %v or all", name, defined)
}

// session runs children and checks their outputs.
type session struct {
	bin, out string
	seed     int64
	workers  int // Monte-Carlo workers and GOMAXPROCS of every child
	golden   *golden
	log      io.Writer
}

// wlState accumulates one workload's runs.
type wlState struct {
	w                 *workload
	attempted, failed int
	problems          []string // correctness failures
	warnings          []string // trace warnings, which do not fail the run
	ref               []byte   // stdout of the first full-size run
	samples           map[string][]float64
	layer             map[string]float64
}

func (st *wlState) fail(format string, args ...any) {
	st.failed++
	msg := fmt.Sprintf(format, args...)
	for _, p := range st.problems {
		if p == msg {
			return
		}
	}
	st.problems = append(st.problems, msg)
}

type childResult struct {
	wall, cpu, rssMB float64 // s, s (user+sys), MB (peak resident set)
	stdout, stderr   []byte
}

// exec runs one child to completion and times it with the monotonic clock.
func (s *session) exec(st *wlState, args []string) (childResult, bool) {
	ctx, cancel := context.WithTimeout(context.Background(), childTimeout)
	defer cancel()
	cmd := exec.CommandContext(ctx, filepath.Join(s.bin, st.w.bin), args...)
	cmd.Env = append(os.Environ(), "GOMAXPROCS="+strconv.Itoa(s.workers))
	var out, errb bytes.Buffer
	cmd.Stdout, cmd.Stderr = &out, &errb
	start := time.Now()
	err := cmd.Run()
	r := childResult{wall: time.Since(start).Seconds(), stdout: out.Bytes(), stderr: errb.Bytes()}
	st.attempted++
	if err != nil {
		st.fail("%s %s: %v: %s", st.w.bin, strings.Join(args, " "), err, lastLine(errb.Bytes()))
		return r, false
	}
	ps := cmd.ProcessState
	r.cpu = (ps.UserTime() + ps.SystemTime()).Seconds()
	if ru, ok := ps.SysUsage().(*syscall.Rusage); ok {
		r.rssMB = float64(ru.Maxrss) / 1024 // Linux reports kilobytes
	}
	return r, true
}

func lastLine(b []byte) string {
	lines := strings.Split(strings.TrimSpace(string(b)), "\n")
	return lines[len(lines)-1]
}

// full runs the workload at full size with extra flags and checks its
// stdout: it must parse, match the golden digests, and equal the first
// full-size run's byte for byte (observability flags are pure side-bands).
// It returns the run and the work it reports.
func (s *session) full(st *wlState, extra ...string) (childResult, float64, bool) {
	w := st.w
	r, ok := s.exec(st, w.command(w.flags(s.seed, s.workers), extra...))
	if !ok {
		return r, 0, false
	}
	work, err := w.work(r.stdout)
	if err != nil {
		st.fail("%s output: %v", w.name, err)
		return r, 0, false
	}
	if st.ref == nil {
		st.ref = r.stdout
	}
	bad := []string(nil)
	if s.golden != nil {
		bad = s.golden.checkStdout(w, s.seed, r.stdout)
	}
	if !bytes.Equal(r.stdout, st.ref) {
		bad = append(bad, fmt.Sprintf("stdout with flags %q differs from the first run's", extra))
	}
	for _, b := range bad {
		st.fail("%s: %s", w.name, b)
	}
	return r, work, len(bad) == 0
}

// endToEnd runs the untraced phase for every workload. Set-up runs are
// interleaved with the full-size runs, so both sample the same stretch of
// host load.
func (s *session) endToEnd(sts []*wlState, seconds float64) {
	// Warm-up: the first full run pages the binary in and settles the CPU;
	// its output is checked, its time dropped.
	for _, st := range sts {
		s.full(st)
	}
	budget := time.Duration(seconds * float64(len(sts)) * float64(time.Second))
	start := time.Now()
	for round := 0; ; round++ {
		el := time.Since(start)
		if el >= budget && (round >= minReps || el >= 3*budget) {
			break
		}
		for k := range sts {
			st := sts[(round+k)%len(sts)]
			s.setup(st)
			r, work, ok := s.full(st)
			if !ok {
				continue
			}
			st.samples["wall_s"] = append(st.samples["wall_s"], r.wall)
			st.samples["cpu_s"] = append(st.samples["cpu_s"], r.cpu)
			st.samples["peak_rss_mb"] = append(st.samples["peak_rss_mb"], r.rssMB)
			st.samples["work_per_s"] = append(st.samples["work_per_s"], work/r.wall)
		}
	}
	for _, st := range sts {
		for i := len(st.samples["setup_s"]); i < minSetupRuns; i++ {
			s.setup(st)
		}
	}
}

// setup runs the workload once at minimum size and records its wall time.
func (s *session) setup(st *wlState) {
	w := st.w
	r, ok := s.exec(st, w.command(w.setupFlags(s.seed, s.workers)))
	if !ok {
		return
	}
	if _, err := w.work(r.stdout); err != nil {
		st.fail("%s set-up output: %v", w.name, err)
		return
	}
	st.samples["setup_s"] = append(st.samples["setup_s"], r.wall)
}

// tracedPhase runs the traced phase for every workload and writes the
// replicas' spans to DIR/trace.jsonl.
func (s *session) tracedPhase(sts []*wlState) error {
	f, err := os.Create(filepath.Join(s.out, "trace.jsonl"))
	if err != nil {
		return err
	}
	for _, st := range sts {
		if err := s.traced(st, f); err != nil {
			f.Close()
			return err
		}
	}
	return f.Close()
}

func (s *session) traced(st *wlState, trace io.Writer) error {
	w := st.w
	side := func(ext string) string { return filepath.Join(s.out, w.name+ext) }
	s.full(st) // warm-up
	var plain, observed []float64
	for i := 0; i < tracedReps; i++ {
		if r, _, ok := s.full(st); ok {
			plain = append(plain, r.wall)
		}
	}
	extra := []string{"-metrics", "json"}
	if w.sweep {
		extra = append(extra, "-ledger", side(".ledger.jsonl"))
	}
	tr, _, ok := s.full(st, extra...)
	var cli tracedRun
	var reg registry
	if ok {
		snap, err := parseRegistry(tr.stderr)
		if err != nil {
			st.fail("%s: %v", w.name, err)
		}
		reg = indexSnapshot(snap)
		if w.sweep {
			cli.fails = s.checkLedger(st, side(".ledger.jsonl"))
		} else {
			cli.sim, _ = parseSim(tr.stdout) // full has checked that it parses
		}
	}
	for i := 0; i < tracedReps; i++ {
		r, _, ok := s.full(st, "-ledger", side(".obs.ledger.jsonl"), "-heatmap", side(".heatmap.json"), "-bw", side(".bw.jsonl"))
		if ok {
			observed = append(observed, r.wall)
		}
	}

	metrics.Default.Reset()
	rec := NewRecorder(metrics.Default)
	var warn []string
	if ok {
		warn = w.replica(rec, s.seed, cli)
	} else {
		warn = []string{"trace replica skipped: the traced CLI run failed"}
	}
	layer, lw := layerMetrics(layerInputs{
		reg: reg, workers: s.workers, tracedWall: tr.wall,
		plainWall: summarize(plain).Median, obsWall: summarize(observed).Median,
		traces: rec.Traces(), spans: rec.Spans(), replicaOK: len(warn) == 0,
	})
	st.layer = layer
	st.warnings = append(st.warnings, append(warn, lw...)...)
	for _, m := range st.warnings {
		fmt.Fprintf(s.log, "questperf: %s: warning: %s\n", w.name, m)
	}
	return writeTrace(trace, w.name, rec.Traces(), rec.Spans())
}

// checkLedger reads a sweep's ledger, checks it against the golden digest
// and returns its per-cell fail bits.
func (s *session) checkLedger(st *wlState, path string) map[string][]bool {
	data, err := os.ReadFile(path)
	if err != nil {
		st.fail("%s ledger: %v", st.w.name, err)
		return nil
	}
	fails, dg, err := ledgerFails(data)
	if err != nil {
		st.fail("%s ledger: %v", st.w.name, err)
		return nil
	}
	if s.golden != nil && dg != s.golden.Ledger[st.w.name] {
		st.fail("%s: ledger records sha256 %s, golden %s", st.w.name, dg, s.golden.Ledger[st.w.name])
	}
	return fails
}

// writeGolden regenerates the golden digests of the given workloads from one
// full-size run each at seed 1, keeping the other workloads' entries.
func (s *session) writeGolden(ws []*workload) error {
	s.seed = 1
	g, err := readGolden(goldenPath)
	if err != nil {
		g = &golden{}
	}
	for _, m := range []*map[string]string{&g.Stdout, &g.Invariant, &g.Ledger} {
		if *m == nil {
			*m = map[string]string{}
		}
	}
	for _, w := range ws {
		st := &wlState{w: w}
		var extra []string
		ledgerPath := filepath.Join(s.out, w.name+".ledger.jsonl")
		if w.sweep {
			extra = []string{"-ledger", ledgerPath}
		}
		r, _, ok := s.full(st, extra...)
		if !ok {
			return fmt.Errorf("%s: %v", w.name, st.problems)
		}
		if w.seeded {
			g.Stdout[w.name] = digest(r.stdout)
		}
		g.Invariant[w.name] = digest(invariantOf(w, r.stdout))
		if w.sweep {
			data, err := os.ReadFile(ledgerPath)
			if err != nil {
				return err
			}
			_, dg, err := ledgerFails(data)
			if err != nil {
				return err
			}
			g.Ledger[w.name] = dg
		}
		fmt.Fprintf(s.log, "questperf: %s: golden digests recorded\n", w.name)
	}
	return g.write(goldenPath)
}

// report is result.json.
type report struct {
	Schema    string           `json:"schema"`
	Seed      int64            `json:"seed"`
	Seconds   int              `json:"seconds"`
	Workers   int              `json:"workers"`
	Host      hostInfo         `json:"host"`
	Workloads []workloadReport `json:"workloads"`
}

type hostInfo struct {
	GoVersion string `json:"go_version"`
	GOOS      string `json:"goos"`
	GOARCH    string `json:"goarch"`
	NumCPU    int    `json:"num_cpu"`
}

type workloadReport struct {
	Name      string         `json:"name"`
	Attempted int            `json:"attempted"`
	Failed    int            `json:"failed"`
	Problems  []string       `json:"problems,omitempty"`
	Warnings  []string       `json:"warnings,omitempty"`
	EndToEnd  []metricReport `json:"end_to_end,omitempty"`
	PerLayer  []metricReport `json:"per_layer,omitempty"`
}

// metricReport is one metric of one workload. End-to-end metrics carry
// their samples and summary. Value is the best run — the minimum, or the
// maximum where higher is better — because load from other tenants of a
// shared host only ever adds time (and, through late GC cycles, memory): the
// best run is the program's own cost, and it spreads between invocations
// about half as much as the median. setup_s is the median of its runs.
type metricReport struct {
	Name    string    `json:"name"`
	Unit    string    `json:"unit"`
	Better  string    `json:"better"`
	Value   float64   `json:"value"`
	Samples []float64 `json:"samples,omitempty"`
	*Summary
}

func (s *session) report(spec *benchSpec, sts []*wlState, c config) (*report, error) {
	rep := &report{
		Schema: ResultSchema, Seed: s.seed, Seconds: c.seconds, Workers: s.workers,
		Host: hostInfo{GoVersion: runtime.Version(), GOOS: runtime.GOOS, GOARCH: runtime.GOARCH, NumCPU: runtime.NumCPU()},
	}
	for _, st := range sts {
		wr := workloadReport{
			Name: st.w.name, Attempted: st.attempted, Failed: st.failed,
			Problems: st.problems, Warnings: st.warnings,
		}
		if c.trace != 1 {
			for _, m := range spec.EndToEnd {
				xs, ok := st.samples[m.Name]
				if !ok && st.failed == 0 {
					return nil, fmt.Errorf("BENCHMARK.json metric %q is not one questperf measures", m.Name)
				}
				if len(xs) == 0 {
					return nil, fmt.Errorf("%s: no successful run to measure %s: %v", st.w.name, m.Name, st.problems)
				}
				sum := summarize(xs)
				v := sum.Min
				switch {
				case m.Name == "setup_s":
					v = sum.Median
				case m.Better == "higher":
					v = sum.Max
				}
				wr.EndToEnd = append(wr.EndToEnd, metricReport{Name: m.Name, Unit: m.Unit, Better: m.Better, Value: v, Samples: xs, Summary: &sum})
			}
		}
		if c.trace != 0 {
			if len(st.layer) != len(spec.PerLayer) {
				return nil, fmt.Errorf("questperf computes %d per-layer metrics, BENCHMARK.json declares %d", len(st.layer), len(spec.PerLayer))
			}
			for _, m := range spec.PerLayer {
				v, ok := st.layer[m.Name]
				if !ok {
					return nil, fmt.Errorf("BENCHMARK.json per-layer metric %q is not one questperf computes", m.Name)
				}
				wr.PerLayer = append(wr.PerLayer, metricReport{Name: m.Name, Unit: m.Unit, Better: m.Better, Value: v})
			}
		}
		rep.Workloads = append(rep.Workloads, wr)
	}
	return rep, nil
}

func writeJSON(path string, v any) error {
	data, err := json.MarshalIndent(v, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(data, '\n'), 0o644)
}

// printReport prints one line per (workload, metric).
func printReport(w io.Writer, rep *report) {
	for _, wr := range rep.Workloads {
		for _, m := range wr.EndToEnd {
			fmt.Fprintf(w, "%-16s %-36s %14.6g %-6s n=%d min %.6g q1 %.6g median %.6g q3 %.6g max %.6g\n",
				wr.Name, m.Name, m.Value, m.Unit, m.N, m.Min, m.Q1, m.Median, m.Q3, m.Max)
		}
		for _, m := range wr.PerLayer {
			fmt.Fprintf(w, "%-16s %-36s %14.6g %s\n", wr.Name, m.Name, m.Value, m.Unit)
		}
		for _, p := range wr.Problems {
			fmt.Fprintf(w, "%-16s FAILED: %s\n", wr.Name, p)
		}
	}
}

type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type resultLine struct {
	Correct   bool                   `json:"correct"`
	Attempted int                    `json:"attempted"`
	Failed    int                    `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
}

// summaryLine is the final stdout line. With several workloads, metric names
// are prefixed by the workload's.
func summaryLine(rep *report, prefix bool) resultLine {
	out := resultLine{Correct: true, Metrics: map[string]metricValue{}}
	for _, wr := range rep.Workloads {
		out.Attempted += wr.Attempted
		out.Failed += wr.Failed
		if wr.Failed > 0 || len(wr.Problems) > 0 {
			out.Correct = false
		}
		for _, m := range append(append([]metricReport(nil), wr.EndToEnd...), wr.PerLayer...) {
			name := m.Name
			if prefix {
				name = wr.Name + "." + name
			}
			out.Metrics[name] = metricValue{Value: m.Value, Unit: m.Unit}
		}
	}
	return out
}

// compareBaseline prints a verdict per end-to-end metric against an earlier
// result.json and returns a regressionError when any regressed.
func compareBaseline(w io.Writer, spec *benchSpec, path string, cur *report) error {
	data, err := os.ReadFile(path)
	if err != nil {
		return err
	}
	var base report
	if err := json.Unmarshal(data, &base); err != nil {
		return fmt.Errorf("%s: %w", path, err)
	}
	if base.Schema != ResultSchema {
		return fmt.Errorf("%s: schema %q, want %q", path, base.Schema, ResultSchema)
	}
	bounds := map[string]float64{}
	for _, m := range spec.EndToEnd {
		bounds[m.Name] = m.Bound
	}
	old := map[string]metricReport{}
	for _, wr := range base.Workloads {
		for _, m := range wr.EndToEnd {
			old[wr.Name+" "+m.Name] = m
		}
	}
	regressed := 0
	for _, wr := range cur.Workloads {
		for _, c := range wr.EndToEnd {
			k := wr.Name + " " + c.Name
			b, ok := old[k]
			if !ok || b.Summary == nil || c.Summary == nil {
				continue
			}
			v := verdict(b.Value, c.Value, max(b.spread(), c.spread()), c.Better, bounds[c.Name])
			if v == "regressed" {
				regressed++
			}
			fmt.Fprintf(w, "compare %-52s %12.6g -> %-12.6g %+7.2f%% (bound %.0f%%) %s\n",
				k, b.Value, c.Value, 100*(c.Value-b.Value)/b.Value, 100*bounds[c.Name], v)
		}
	}
	if regressed > 0 {
		return regressionError{regressed}
	}
	return nil
}
