package main

import (
	"bytes"
	"encoding/json"
	"errors"
	"os"
	"os/exec"
	"path/filepath"
	"regexp"
	"strings"
	"testing"

	"quest/internal/bwprofile"
	"quest/internal/core"
	"quest/internal/heatmap"
	"quest/internal/ledger"
	"quest/internal/metrics"
	"quest/internal/tracing"
)

// TestCheckFlags pins which counts questbench refuses: negative -trials
// and -workers fail with an error naming the flag; zero (the default) and
// positive counts pass.
func TestCheckFlags(t *testing.T) {
	for _, tc := range []struct {
		trials, workers int
		flag            string // "" = accepted
	}{
		{0, 0, ""},
		{1, 1, ""},
		{3000, 8, ""},
		{-3, 0, "-trials"},
		{-1, 2, "-trials"},
		{100, -1, "-workers"},
	} {
		err := checkFlags(tc.trials, tc.workers)
		switch {
		case tc.flag == "" && err != nil:
			t.Errorf("%+v rejected: %v", tc, err)
		case tc.flag != "" && err == nil:
			t.Errorf("%+v accepted; want an error naming %s", tc, tc.flag)
		case tc.flag != "" && !strings.HasPrefix(err.Error(), tc.flag+" "):
			t.Errorf("%+v: error %q does not lead with %s", tc, err, tc.flag)
		}
	}
}

// TestMain lets a test re-run this binary as questbench itself (see
// runQuestbench), so exit codes are observed the way a shell sees them.
func TestMain(m *testing.M) {
	if os.Getenv("QUESTBENCH_TEST_MAIN") == "1" {
		main()
		os.Exit(0)
	}
	os.Exit(m.Run())
}

// runQuestbench runs questbench with args in a child process and returns its
// exit code, stdout and stderr.
func runQuestbench(t *testing.T, args ...string) (int, string, string) {
	t.Helper()
	cmd := exec.Command(os.Args[0], args...)
	cmd.Env = append(os.Environ(), "QUESTBENCH_TEST_MAIN=1")
	var stdout, stderr bytes.Buffer
	cmd.Stdout, cmd.Stderr = &stdout, &stderr
	err := cmd.Run()
	var ee *exec.ExitError
	switch {
	case err == nil:
		return 0, stdout.String(), stderr.String()
	case errors.As(err, &ee):
		return ee.ExitCode(), stdout.String(), stderr.String()
	}
	t.Fatal(err)
	return 0, "", ""
}

// TestDeterministicStdout pins the text tables of the deterministic
// experiments, every one but the threshold and memory sweeps, byte for
// byte to testdata/deterministic.txt. A change that moves one of their
// cells on purpose regenerates the file with
//
//	go run ./cmd/questbench fig2 fig6 fig10 fig11 fig13 fig14 fig15 fig16 \
//	  table1 table2 machine concat dram syndrome > cmd/questbench/testdata/deterministic.txt
func TestDeterministicStdout(t *testing.T) {
	want, err := os.ReadFile(filepath.Join("testdata", "deterministic.txt"))
	if err != nil {
		t.Fatal(err)
	}
	var names []string
	for _, e := range core.Experiments {
		if e.Name != "threshold" && e.Name != "memory" {
			names = append(names, e.Name)
		}
	}
	code, stdout, stderr := runQuestbench(t, names...)
	if code != 0 {
		t.Fatalf("exit %d (stderr: %s)", code, stderr)
	}
	if stdout == string(want) {
		return
	}
	got, exp := strings.Split(stdout, "\n"), strings.Split(string(want), "\n")
	for i := 0; i < len(got) || i < len(exp); i++ {
		var g, e string
		if i < len(got) {
			g = got[i]
		}
		if i < len(exp) {
			e = exp[i]
		}
		if g != e {
			t.Fatalf("stdout drifted from testdata/deterministic.txt at line %d:\n got: %q\nwant: %q", i+1, g, e)
		}
	}
}

// TestLedgerWriteFailureExitsOne pins that a failed ledger write fails the
// run, text or -md: with -ledger on a full device, threshold and memory
// each exit 1 and name the write error once, with one "ledger:" prefix.
// Twenty trials overflow the ledger writer's buffer, so a record's write
// fails the experiment; one trial's ledger fits it, so only the final
// flush at exit fails.
func TestLedgerWriteFailureExitsOne(t *testing.T) {
	if _, err := os.Stat("/dev/full"); err != nil {
		t.Skip("no /dev/full on this system")
	}
	for _, md := range []string{"-md=false", "-md"} {
		for _, exp := range []string{"threshold", "memory"} {
			for _, tc := range []struct{ trials, want string }{
				{"20", exp + " experiment failed: ledger: write /dev/full"},
				{"1", "\nledger: write /dev/full"},
			} {
				code, _, stderr := runQuestbench(t, md, "-trials", tc.trials, "-workers", "1", "-ledger", "/dev/full", exp)
				if code != 1 {
					t.Errorf("%s -trials %s %s: exit %d, want 1 (stderr: %s)", md, tc.trials, exp, code, stderr)
				}
				if !strings.Contains("\n"+stderr, tc.want) {
					t.Errorf("%s -trials %s %s: stderr %q does not contain %q", md, tc.trials, exp, stderr, tc.want)
				}
				if strings.Contains(stderr, "ledger: ledger:") {
					t.Errorf("%s -trials %s %s: stderr %q doubles the ledger prefix", md, tc.trials, exp, stderr)
				}
			}
		}
	}
}

// TestArtifactWriteFailureExitsOne pins that a run whose -trace, -heatmap,
// -bw or -ledger artifact cannot be written fails: exit 1, with the write
// error on a stderr line that names the artifact once. Finish writes the
// first three at exit, after the tables; a -ledger file that cannot be
// created stops the run before any experiment.
func TestArtifactWriteFailureExitsOne(t *testing.T) {
	if _, err := os.Stat("/dev/full"); err != nil {
		t.Skip("no /dev/full on this system")
	}
	missing := filepath.Join(t.TempDir(), "missing", "x.jsonl")
	for _, tc := range []struct{ flag, path, line string }{
		{"-trace", "/dev/full", "trace: write /dev/full"},
		{"-heatmap", "/dev/full", "heatmap: write /dev/full"},
		{"-bw", "/dev/full", "bw: write /dev/full"},
		{"-ledger", missing, "questbench: ledger: open " + missing},
	} {
		code, _, stderr := runQuestbench(t, "-trials", "20", "-workers", "1", tc.flag, tc.path, "memory")
		if code != 1 {
			t.Errorf("%s %s: exit %d, want 1 (stderr: %s)", tc.flag, tc.path, code, stderr)
		}
		if !strings.Contains("\n"+stderr, "\n"+tc.line) {
			t.Errorf("%s %s: stderr %q has no line starting %q", tc.flag, tc.path, stderr, tc.line)
		}
	}
}

// TestUsageErrorsExitTwo pins the usage class of the exit contract beyond
// checkFlags' numbers: a bad observability value, an unknown experiment,
// with or without -md, a sweep artifact with no sweep selected, a trace
// with no experiment that records spans, and the retired -pprof and
// -ci-stop flags each exit 2. A refused artifact is not created.
func TestUsageErrorsExitTwo(t *testing.T) {
	unfilled := filepath.Join(t.TempDir(), "unfilled")
	for _, args := range [][]string{
		{"-metrics", "bogus", "fig10"},
		{"-trace-buf", "-1", "fig10"},
		{"-bw-window", "-1", "fig10"},
		{"-cpuprofile", filepath.Join(t.TempDir(), "missing", "cpu.pprof"), "fig10"},
		{"fig10", "bogus"},
		{"-md", "bogus"},
		{"-ledger", unfilled, "fig2"},
		{"-heatmap", unfilled, "fig10"},
		{"-bw", unfilled, "fig2", "fig6"},
		{"-md", "-ledger", unfilled, "syndrome"},
		{"-trace", unfilled, "fig10"},
		{"-pprof", "localhost:6060", "fig10"},
		{"-ci-stop", "0.1", "threshold"},
	} {
		code, _, stderr := runQuestbench(t, args...)
		if code != 2 {
			t.Errorf("%v: exit %d, want 2 (stderr: %s)", args, code, stderr)
		}
	}
	if _, err := os.Stat(unfilled); !os.IsNotExist(err) {
		t.Errorf("a refused run created %s (stat: %v)", unfilled, err)
	}
}

// TestMarkdownRendersEveryExperiment pins the -md report: a run that names
// no experiment renders every one under its own heading, with the cells
// the text tables hold.
func TestMarkdownRendersEveryExperiment(t *testing.T) {
	code, md, stderr := runQuestbench(t, "-md", "-trials", "20")
	if code != 0 {
		t.Fatalf("exit %d (stderr: %s)", code, stderr)
	}
	want := []string{"| SHOR-1024 |", "4 Channel = 1Kb x 4", "2420ns", "measured savings"}
	for _, e := range core.Experiments {
		want = append(want, "\n## "+e.Name+": "+e.Desc+"\n\n")
	}
	for _, frag := range want {
		if !strings.Contains(md, frag) {
			t.Errorf("-md report missing %q", frag)
		}
	}
}

// TestMarkdownWritesPlainArtifacts pins that -md changes the rendering
// only: a threshold sweep with -md writes the same ledger, heatmap and
// bandwidth-profile bytes as the same sweep without it.
func TestMarkdownWritesPlainArtifacts(t *testing.T) {
	dir := t.TempDir()
	artifacts := func(tag string, md ...string) []string {
		paths := []string{filepath.Join(dir, tag+".ledger"), filepath.Join(dir, tag+".heat"), filepath.Join(dir, tag+".bw")}
		args := append(md, "-trials", "64", "-ledger", paths[0], "-heatmap", paths[1], "-bw", paths[2], "threshold")
		if code, _, stderr := runQuestbench(t, args...); code != 0 {
			t.Fatalf("%v: exit %d (stderr: %s)", args, code, stderr)
		}
		return paths
	}
	plain, md := artifacts("plain"), artifacts("md", "-md")
	for i := range plain {
		a, err := os.ReadFile(plain[i])
		if err != nil {
			t.Fatal(err)
		}
		b, err := os.ReadFile(md[i])
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(a, b) {
			t.Errorf("%s differs from %s", md[i], plain[i])
		}
	}
}

// TestMetricsJSONReportsTimers pins that instruments, off by default, still
// record under -metrics: each 64-trial sweep reports observations of the
// match and window-flush timers in its -metrics json dump, and prints the
// stdout the same sweep prints without the flag.
func TestMetricsJSONReportsTimers(t *testing.T) {
	for _, exp := range []string{"threshold", "memory"} {
		args := []string{"-trials", "64", "-workers", "2"}
		code, plain, stderr := runQuestbench(t, append(args, exp)...)
		if code != 0 {
			t.Fatalf("%s: exit %d (stderr: %s)", exp, code, stderr)
		}
		code, stdout, stderr := runQuestbench(t, append(args, "-metrics", "json", exp)...)
		if code != 0 {
			t.Fatalf("%s -metrics json: exit %d (stderr: %s)", exp, code, stderr)
		}
		if stdout != plain {
			t.Errorf("%s: -metrics json changed stdout:\n%s\nwithout the flag:\n%s", exp, stdout, plain)
		}
		var snap metrics.Snapshot
		if err := json.Unmarshal([]byte(stderr), &snap); err != nil {
			t.Fatalf("%s: stderr is not one metrics snapshot: %v\n%s", exp, err, stderr)
		}
		counts := map[string]uint64{}
		for _, h := range snap.Histograms {
			counts[h.Name] = h.Summary.Count
		}
		for _, name := range []string{"decoder.match.ns", "decoder.window.flush.ns"} {
			if counts[name] == 0 {
				t.Errorf("%s: %s recorded no observation under -metrics json", exp, name)
			}
		}
	}
}

// runArtifacts runs questbench with args, which write artifacts under the
// test's temporary directory, and fails the test unless it exits 0.
func runArtifacts(t *testing.T, args ...string) {
	t.Helper()
	if code, _, stderr := runQuestbench(t, args...); code != 0 {
		t.Fatalf("%v: exit %d (stderr: %s)", args, code, stderr)
	}
}

// sameBytes fails the test unless the files at paths a and b hold the same
// bytes, and returns those of a.
func sameBytes(t *testing.T, a, b string) []byte {
	t.Helper()
	x, err := os.ReadFile(a)
	if err != nil {
		t.Fatal(err)
	}
	y, err := os.ReadFile(b)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(x, y) {
		t.Errorf("%s and %s differ", filepath.Base(a), filepath.Base(b))
	}
	return x
}

// TestThresholdArtifactsAcrossWorkers runs a 130-trial threshold sweep at
// -workers 1 with -ledger, -heatmap and -trace, and again at -workers 4 with
// -ledger and -heatmap. At 130 trials each cell is three 64-trial lanes, so
// four workers really split it. The two ledgers and the two heatmaps must be
// byte-identical; the ledger must validate with six cells of 130 trial
// records, the heatmap must read back, and the sweep's trace must validate.
func TestThresholdArtifactsAcrossWorkers(t *testing.T) {
	dir := t.TempDir()
	path := func(name string) string { return filepath.Join(dir, name) }
	runArtifacts(t, "-trials", "130", "-workers", "1", "-ledger", path("w1.ledger"),
		"-heatmap", path("w1.heat"), "-trace", path("trace.json"), "threshold")
	runArtifacts(t, "-trials", "130", "-workers", "4", "-ledger", path("w4.ledger"),
		"-heatmap", path("w4.heat"), "threshold")

	rep, err := ledger.Validate(sameBytes(t, path("w1.ledger"), path("w4.ledger")))
	if err != nil {
		t.Fatal(err)
	}
	if rep.Cells != 6 || rep.Trials != 6*130 {
		t.Errorf("ledger holds %d cell(s) of %d trial record(s), want 6 of %d", rep.Cells, rep.Trials, 6*130)
	}
	heat, err := heatmap.ReadFile(sameBytes(t, path("w1.heat"), path("w4.heat")))
	if err != nil {
		t.Fatal(err)
	}
	if len(heat.Grids) == 0 {
		t.Error("heatmap holds no grid")
	}
	trace, err := os.ReadFile(path("trace.json"))
	if err != nil {
		t.Fatal(err)
	}
	if tr, err := tracing.Validate(trace); err != nil {
		t.Error(err)
	} else if tr.Events == 0 {
		t.Error("sweep trace holds no event")
	}
}

// TestMemoryArtifactsAcrossWorkers runs a 130-trial memory sweep, which
// drives the machine's buses, with -ledger and -bw at -workers 1 and 8, and
// once more at -workers 1 with -ledger alone. The two bandwidth profiles
// must be byte-identical and validate with at least one window; the three
// ledgers must be byte-identical, across worker counts and with -bw on and
// off (the profile is a side-band), and validate with three cells of 130
// trial records.
func TestMemoryArtifactsAcrossWorkers(t *testing.T) {
	dir := t.TempDir()
	path := func(name string) string { return filepath.Join(dir, name) }
	runArtifacts(t, "-trials", "130", "-workers", "1", "-ledger", path("on.ledger"), "-bw", path("w1.bw"), "memory")
	runArtifacts(t, "-trials", "130", "-workers", "8", "-ledger", path("w8.ledger"), "-bw", path("w8.bw"), "memory")
	runArtifacts(t, "-trials", "130", "-workers", "1", "-ledger", path("off.ledger"), "memory")

	bw, err := bwprofile.Validate(sameBytes(t, path("w1.bw"), path("w8.bw")))
	if err != nil {
		t.Fatal(err)
	}
	if bw.Summary.Windows == 0 {
		t.Error("memory sweep profile holds no window")
	}
	sameBytes(t, path("w8.ledger"), path("on.ledger"))
	rep, err := ledger.Validate(sameBytes(t, path("off.ledger"), path("on.ledger")))
	if err != nil {
		t.Fatal(err)
	}
	if rep.Cells != 3 || rep.Trials != 3*130 {
		t.Errorf("ledger holds %d cell(s) of %d trial record(s), want 3 of %d", rep.Cells, rep.Trials, 3*130)
	}
}

// TestCPUProfileReadsBack pins -cpuprofile end to end: a profiled threshold
// sweep writes a file that go tool pprof, the one reader of the format,
// reads back with samples in the module's code. The sweep is sized to
// about 0.3 s of CPU on one worker, past the profiler's first 10-ms
// sample.
func TestCPUProfileReadsBack(t *testing.T) {
	gocmd, err := exec.LookPath("go")
	if err != nil {
		t.Skip("no go command on PATH")
	}
	prof := filepath.Join(t.TempDir(), "cpu.pprof")
	runArtifacts(t, "-cpuprofile", prof, "-trials", "20000", "-workers", "1", "threshold")
	out, err := exec.Command(gocmd, "tool", "pprof", "-top", prof).CombinedOutput()
	if err != nil {
		t.Fatalf("go tool pprof -top: %v\n%s", err, out)
	}
	total := regexp.MustCompile(`Total samples = (\S+)`).FindSubmatch(out)
	if total == nil || string(total[1]) == "0" {
		t.Errorf("go tool pprof -top reads no sample:\n%s", out)
	}
	if !bytes.Contains(out, []byte("quest/internal/")) {
		t.Errorf("go tool pprof -top names no quest/internal/ frame:\n%s", out)
	}
}

// TestTracedExperimentsRecordSpans pins traced, the set checkArtifacts
// accepts -trace with: run in process with a tracer, exactly its
// experiments record events. Through the CLI, -trace with syndrome, one of
// the machine experiments, writes a trace tracing.Validate accepts.
func TestTracedExperimentsRecordSpans(t *testing.T) {
	saved := tracing.Default
	defer func() { tracing.Default = saved }()
	for _, e := range core.Experiments {
		tracing.Default = tracing.New(0)
		if _, err := e.Table(core.Run{Trials: 20, Workers: 1, Tracer: tracing.Default}); err != nil {
			t.Fatalf("%s: %v", e.Name, err)
		}
		if n := tracing.Default.Len(); (n > 0) != traced[e.Name] {
			t.Errorf("%s records %d trace event(s); traced lists it: %v", e.Name, n, traced[e.Name])
		}
	}
	path := filepath.Join(t.TempDir(), "syndrome.json")
	runArtifacts(t, "-trace", path, "syndrome")
	trace, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if tr, err := tracing.Validate(trace); err != nil {
		t.Error(err)
	} else if tr.Events == 0 {
		t.Error("syndrome trace holds no event")
	}
}
