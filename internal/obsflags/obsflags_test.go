package obsflags

import (
	"bytes"
	"flag"
	"io"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"quest/internal/bwprofile"
	"quest/internal/heatmap"
	"quest/internal/ledger"
	"quest/internal/mc"
	"quest/internal/metrics"
	"quest/internal/tracing"
)

// resetDefaults restores process-wide state this package mutates so tests do
// not leak into each other.
func resetDefaults() {
	tracing.Default = nil
	metrics.Default = metrics.New()
}

func TestStartRejectsBadMetricsFormat(t *testing.T) {
	defer resetDefaults()
	fs := flag.NewFlagSet("t", flag.ContinueOnError)
	o := Register(fs)
	if err := fs.Parse([]string{"-metrics", "xml"}); err != nil {
		t.Fatal(err)
	}
	if err := o.Start(); err == nil {
		t.Fatal("Start accepted -metrics xml")
	}
}

func TestTraceLifecycle(t *testing.T) {
	defer resetDefaults()
	path := filepath.Join(t.TempDir(), "out.json")
	fs := flag.NewFlagSet("t", flag.ContinueOnError)
	o := Register(fs)
	o.Log = io.Discard
	if err := fs.Parse([]string{"-trace", path, "-trace-buf", "1024"}); err != nil {
		t.Fatal(err)
	}
	if err := o.Start(); err != nil {
		t.Fatal(err)
	}
	tr := o.Tracer()
	if tr == nil || tr.Capacity() != 1024 {
		t.Fatalf("tracer = %v (cap %d), want enabled with cap 1024", tr, tr.Capacity())
	}
	tr.Span("mce", 0, "busy", 0, 1)
	tr.Instant("master", 0, "dispatch", 0)
	var log bytes.Buffer
	o.Log = &log
	if err := o.Finish(); err != nil {
		t.Fatal(err)
	}
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	rep, err := tracing.Validate(data)
	if err != nil {
		t.Fatalf("written trace invalid: %v", err)
	}
	if rep.Events != 2 || rep.Procs != 2 {
		t.Errorf("report = %+v, want 2 events on 2 procs", rep)
	}
	if !strings.Contains(log.String(), "trace summary") {
		t.Errorf("Finish did not print the track summary:\n%s", log.String())
	}
}

// TestCPUProfileLifecycle pins what -cpuprofile does: Start begins a CPU
// profile into the file, Finish stops it and leaves a non-empty profile
// behind. It aggregates no metrics on its own, so ShardReg stays nil, and a
// path that cannot be created fails Start.
func TestCPUProfileLifecycle(t *testing.T) {
	defer resetDefaults()
	dir := t.TempDir()
	path := filepath.Join(dir, "cpu.pprof")
	fs := flag.NewFlagSet("t", flag.ContinueOnError)
	o := Register(fs)
	var log bytes.Buffer
	o.Log = &log
	if err := fs.Parse([]string{"-cpuprofile", path}); err != nil {
		t.Fatal(err)
	}
	if err := o.Start(); err != nil {
		t.Fatal(err)
	}
	if o.ShardReg() != nil {
		t.Error("ShardReg should be nil when -cpuprofile is the only flag")
	}
	if err := o.Finish(); err != nil {
		t.Fatal(err)
	}
	info, err := os.Stat(path)
	if err != nil {
		t.Fatal(err)
	}
	if info.Size() == 0 {
		t.Error("Finish left an empty profile")
	}
	if !strings.Contains(log.String(), "cpuprofile: written to "+path) {
		t.Errorf("Finish did not log the profile line:\n%s", log.String())
	}

	fs = flag.NewFlagSet("t", flag.ContinueOnError)
	o = Register(fs)
	o.Log = io.Discard
	if err := fs.Parse([]string{"-cpuprofile", filepath.Join(dir, "missing", "cpu.pprof")}); err != nil {
		t.Fatal(err)
	}
	if err := o.Start(); err == nil || !strings.HasPrefix(err.Error(), "cpuprofile: ") {
		t.Fatalf("Start on an uncreatable path: %v, want a cpuprofile error", err)
	}
}

func TestShardRegNilWhenObservabilityOff(t *testing.T) {
	defer resetDefaults()
	fs := flag.NewFlagSet("t", flag.ContinueOnError)
	o := Register(fs)
	if err := fs.Parse(nil); err != nil {
		t.Fatal(err)
	}
	if o.ShardReg() != nil {
		t.Error("ShardReg should be nil with no -metrics")
	}
	if err := o.Start(); err != nil {
		t.Fatal(err)
	}
	if tracing.Default != nil {
		t.Error("Start enabled tracing without -trace")
	}
	if err := o.Finish(); err != nil {
		t.Fatal(err)
	}
}

// TestStartSwitchesMetricsOff pins the instruments-off contract: without
// -metrics, Start leaves metrics.Default nil, so every component that
// resolves it records nothing; with -metrics it keeps the registry Finish
// dumps.
func TestStartSwitchesMetricsOff(t *testing.T) {
	defer resetDefaults()
	for _, tc := range []struct {
		args []string
		on   bool
	}{{nil, false}, {[]string{"-metrics", "json"}, true}} {
		metrics.Default = metrics.New()
		fs := flag.NewFlagSet("t", flag.ContinueOnError)
		o := Register(fs)
		o.Log = io.Discard
		if err := fs.Parse(tc.args); err != nil {
			t.Fatal(err)
		}
		if err := o.Start(); err != nil {
			t.Fatal(err)
		}
		if on := metrics.Default != nil; on != tc.on {
			t.Errorf("%v: metrics.Default on = %v after Start, want %v", tc.args, on, tc.on)
		}
		if got := o.ShardReg(); got != metrics.Default {
			t.Errorf("%v: ShardReg %p, metrics.Default %p", tc.args, got, metrics.Default)
		}
		if err := o.Finish(); err != nil {
			t.Fatal(err)
		}
	}
}

func TestLedgerAndHeatmapLifecycle(t *testing.T) {
	defer resetDefaults()
	dir := t.TempDir()
	lpath := filepath.Join(dir, "run.jsonl")
	hpath := filepath.Join(dir, "heat.json")
	fs := flag.NewFlagSet("t", flag.ContinueOnError)
	o := Register(fs)
	o.Log = io.Discard
	if err := fs.Parse([]string{"-ledger", lpath, "-heatmap", hpath, "-progress"}); err != nil {
		t.Fatal(err)
	}
	if err := o.Start(); err != nil {
		t.Fatal(err)
	}
	if o.SweepProgress() == nil {
		t.Error("SweepProgress() = nil with -progress set")
	}
	lw, err := o.OpenLedger("lifecycle-test", map[string]string{"k": "v"})
	if err != nil {
		t.Fatal(err)
	}
	if lw == nil {
		t.Fatal("OpenLedger returned nil writer with -ledger set")
	}
	lw.WriteTrial(ledger.Trial{Cell: "c", Trial: 0, Seed: ledger.SeedString(7), Fail: true})
	lw.WriteCell(ledger.Cell{Cell: "c", Seed: ledger.SeedString(7), Budget: 1, Trials: 1,
		Failures: 1, Rate: 1, WilsonLo: 0.2, WilsonHi: 1})
	heat := o.HeatSet()
	if heat == nil {
		t.Fatal("HeatSet() = nil with -heatmap set")
	}
	heat.Collector("lat-3x3", 3, 3).Defect(1, 1)
	var log bytes.Buffer
	o.Log = &log
	if err := o.Finish(); err != nil {
		t.Fatal(err)
	}
	data, err := os.ReadFile(lpath)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := ledger.Validate(data); err != nil {
		t.Errorf("questcheck rejects the flag-driven ledger: %v", err)
	}
	hdata, err := os.ReadFile(hpath)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := heatmap.ReadFile(hdata); err != nil {
		t.Errorf("heatmap file unreadable: %v", err)
	}
	for _, want := range []string{"ledger: 1 cell(s), 1 trial record(s)", "heatmap:", "defect births"} {
		if !strings.Contains(log.String(), want) {
			t.Errorf("Finish log missing %q:\n%s", want, log.String())
		}
	}
}

func TestSweepProgressRenders(t *testing.T) {
	defer resetDefaults()
	fs := flag.NewFlagSet("t", flag.ContinueOnError)
	o := Register(fs)
	var log bytes.Buffer
	o.Log = &log
	if err := fs.Parse([]string{"-progress"}); err != nil {
		t.Fatal(err)
	}
	render := o.SweepProgress()
	render("cell-a", mc.Progress{Completed: 10, Failures: 2, WilsonLo: 0.05, WilsonHi: 0.4})
	render("cell-a", mc.Progress{Completed: 20, Failures: 3, WilsonLo: 0.05, WilsonHi: 0.3, Done: true})
	out := log.String()
	if !strings.Contains(out, "cell-a") || !strings.Contains(out, "done") {
		t.Errorf("renderer output missing cell label or done marker: %q", out)
	}
}

// TestSweepProgressPadsStaleChars pins the \r-overwrite fix: when a shorter
// status line follows a longer one, the renderer pads to the previous line's
// width so no tail of the old line survives on screen.
func TestSweepProgressPadsStaleChars(t *testing.T) {
	defer resetDefaults()
	fs := flag.NewFlagSet("t", flag.ContinueOnError)
	o := Register(fs)
	var log bytes.Buffer
	o.Log = &log
	if err := fs.Parse([]string{"-progress"}); err != nil {
		t.Fatal(err)
	}
	render := o.SweepProgress()
	render("p=0.0100", mc.Progress{Completed: 1000000, Failures: 100000, WilsonLo: 0.0900, WilsonHi: 0.1899})
	render("p=0.0100", mc.Progress{Completed: 5, Failures: 1, WilsonLo: 0.01, WilsonHi: 0.06})
	render("p=0.0100", mc.Progress{Completed: 9, Failures: 1, WilsonLo: 0.01, WilsonHi: 0.05, Done: true})
	frames := strings.Split(log.String(), "\r")[1:] // leading "" before the first \r
	if len(frames) != 3 {
		t.Fatalf("got %d frames, want 3: %q", len(frames), log.String())
	}
	if !strings.HasSuffix(frames[2], "\n") {
		t.Errorf("done frame does not finish the line: %q", frames[2])
	}
	// Simulate the terminal: each \r-frame overwrites the line from column
	// 0, leaving whatever it does not reach. After the short frames, the
	// visible line must be exactly the frame's own text — no tail of the
	// long first line (the pre-fix symptom: "... CI width 0.0600 0.1899").
	var screen []rune
	for i, f := range frames {
		fr := []rune(strings.TrimSuffix(f, "\n"))
		if len(fr) > len(screen) {
			screen = append(screen, make([]rune, len(fr)-len(screen))...)
		}
		copy(screen, fr)
		visible := strings.TrimRight(string(screen), " ")
		if want := strings.TrimRight(string(fr), " "); visible != want {
			t.Errorf("frame %d: screen shows %q, want %q — stale characters survive the overwrite",
				i, visible, want)
		}
	}
	// A fresh cell after Done must not inherit the old width (no spurious
	// padding on the first line of the next cell).
	log.Reset()
	render("p=0.0200", mc.Progress{Completed: 5, Failures: 1, WilsonLo: 0.01, WilsonHi: 0.06})
	if strings.Contains(log.String(), "  ") {
		t.Errorf("first frame of a new cell carries stale padding: %q", log.String())
	}
}

func TestStartRejectsNegativeTraceBuf(t *testing.T) {
	defer resetDefaults()
	fs := flag.NewFlagSet("t", flag.ContinueOnError)
	o := Register(fs)
	if err := fs.Parse([]string{"-trace-buf", "-1"}); err != nil {
		t.Fatal(err)
	}
	err := o.Start()
	if err == nil {
		t.Fatal("Start accepted -trace-buf -1")
	}
	if !strings.Contains(err.Error(), "trace-buf") {
		t.Errorf("error %q does not name the flag", err)
	}
	// 0 (default) and positive capacities must pass.
	for _, good := range []string{"0", "1024"} {
		fs := flag.NewFlagSet("t", flag.ContinueOnError)
		o := Register(fs)
		if err := fs.Parse([]string{"-trace-buf", good}); err != nil {
			t.Fatal(err)
		}
		if err := o.Start(); err != nil {
			t.Errorf("Start rejected -trace-buf %s: %v", good, err)
		}
	}
}

// TestFinishFirstErrAggregation pins Finish's error contract: the first
// failing stage's error is returned, and every later stage still runs (so a
// broken trace file cannot suppress the ledger flush or the metrics dump).
func TestFinishFirstErrAggregation(t *testing.T) {
	defer resetDefaults()
	dir := t.TempDir()
	fs := flag.NewFlagSet("t", flag.ContinueOnError)
	o := Register(fs)
	o.Log = io.Discard
	// Trace and heatmap point into a directory that does not exist, so both
	// writes fail at Finish; the ledger is sabotaged below.
	tracePath := filepath.Join(dir, "missing", "trace.json")
	heatPath := filepath.Join(dir, "missing", "heat.json")
	args := []string{"-trace", tracePath, "-heatmap", heatPath,
		"-ledger", filepath.Join(dir, "run.jsonl"), "-metrics", "text"}
	if err := fs.Parse(args); err != nil {
		t.Fatal(err)
	}
	if err := o.Start(); err != nil {
		t.Fatal(err)
	}
	lw, err := o.OpenLedger("finish-test", nil)
	if err != nil {
		t.Fatal(err)
	}
	lw.WriteCell(ledger.Cell{Cell: "c", Seed: ledger.SeedString(7), Budget: 1, Trials: 1})
	// Close the file underneath the buffered writer: the ledger stage's
	// Flush in Finish now fails too, after the trace stage already has.
	o.ledgerFile.Close()
	o.heat.Collector("g", 2, 2).Defect(0, 0)

	var log bytes.Buffer
	o.Log = &log
	finishErr := o.Finish()
	if finishErr == nil {
		t.Fatal("Finish returned nil with three failing stages")
	}
	// First error wins: the trace stage fails before ledger and heatmap.
	if !strings.Contains(finishErr.Error(), "trace.json") {
		t.Errorf("Finish returned %q, want the trace error (first failing stage)", finishErr)
	}
	// Later stages still ran: each failure is logged, and the metrics dump
	// at the end still rendered.
	for _, want := range []string{"trace:", "ledger:", "heatmap:", "-- metrics --"} {
		if !strings.Contains(log.String(), want) {
			t.Errorf("Finish log missing %q — a later stage was skipped:\n%s", want, log.String())
		}
	}
}

func TestStartAllowsOneStdoutStream(t *testing.T) {
	defer resetDefaults()
	fs := flag.NewFlagSet("t", flag.ContinueOnError)
	o := Register(fs)
	o.Log = io.Discard
	if err := fs.Parse([]string{"-bw", "-"}); err != nil {
		t.Fatal(err)
	}
	if err := o.Start(); err != nil {
		t.Errorf("Start(-bw -): %v, want accepted", err)
	}
}

func TestStartRejectsNegativeBWWindow(t *testing.T) {
	defer resetDefaults()
	fs := flag.NewFlagSet("t", flag.ContinueOnError)
	o := Register(fs)
	if err := fs.Parse([]string{"-bw", "x.jsonl", "-bw-window", "-3"}); err != nil {
		t.Fatal(err)
	}
	if err := o.Start(); err == nil {
		t.Fatal("Start accepted -bw-window -3")
	}
}

func TestBWLifecycle(t *testing.T) {
	defer resetDefaults()
	path := filepath.Join(t.TempDir(), "bw.jsonl")
	fs := flag.NewFlagSet("t", flag.ContinueOnError)
	o := Register(fs)
	var log bytes.Buffer
	o.Log = &log
	if err := fs.Parse([]string{"-bw", path, "-bw-window", "4"}); err != nil {
		t.Fatal(err)
	}
	if err := o.Start(); err != nil {
		t.Fatal(err)
	}
	rec := o.BW()
	if rec == nil {
		t.Fatal("BW() = nil after Start with -bw")
	}
	if err := o.OpenBW("memory", map[string]string{"p": "0.001"}); err != nil {
		t.Fatal(err)
	}
	if err := o.OpenBW("memory", nil); err == nil {
		t.Fatal("OpenBW accepted a second call")
	}
	rec.Observe(0, bwprofile.BusLogical, bwprofile.ClassPrep, 1, 2)
	rec.Observe(5, bwprofile.BusSync, bwprofile.ClassSync, 1, 2)
	if err := o.Finish(); err != nil {
		t.Fatal(err)
	}
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	rep, err := bwprofile.Validate(data)
	if err != nil {
		t.Fatalf("written profile invalid: %v", err)
	}
	if rep.Experiment != "memory" || rep.Summary.Windows != 2 || rep.Summary.WindowCycles != 4 {
		t.Errorf("report = %+v, want experiment memory, 2 windows of 4 cycles", rep)
	}
	if !strings.Contains(log.String(), "bw: 2 window(s) over") || !strings.Contains(log.String(), "(validate with questcheck)") {
		t.Errorf("Finish did not log the bw summary line:\n%s", log.String())
	}
	if !strings.Contains(log.String(), "┤") {
		t.Errorf("Finish did not render the waveform:\n%s", log.String())
	}
}
