package main

import (
	"bytes"
	"encoding/json"
	"errors"
	"math"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"testing"

	"quest/internal/bwprofile"
	"quest/internal/metrics"
	"quest/internal/tracing"
)

// TestCheckFlags pins which numeric flag values questsim refuses before it
// builds a machine: each bad value fails with an error naming its flag, and
// the defaults and the smallest valid values pass.
func TestCheckFlags(t *testing.T) {
	type args struct {
		tiles, patches, d, cycles, replays int
		noise                              float64
	}
	def := args{tiles: 1, patches: 2, d: 3, cycles: 50, replays: 20}
	with := func(f func(*args)) args {
		a := def
		f(&a)
		return a
	}
	for _, tc := range []struct {
		name string
		args args
		flag string // "" = accepted
	}{
		{"defaults", def, ""},
		{"smallest", args{tiles: 1, patches: 1, d: 2, cycles: 0, replays: 1}, ""},
		{"noise-one", with(func(a *args) { a.noise = 1 }), ""},
		{"noise-1e-3", with(func(a *args) { a.noise = 1e-3 }), ""},
		{"tiles-zero", with(func(a *args) { a.tiles = 0 }), "-tiles"},
		{"patches-zero", with(func(a *args) { a.patches = 0 }), "-patches"},
		{"d-zero", with(func(a *args) { a.d = 0 }), "-d"},
		{"d-one", with(func(a *args) { a.d = 1 }), "-d"},
		{"noise-negative", with(func(a *args) { a.noise = -0.5 }), "-noise"},
		{"noise-NaN", with(func(a *args) { a.noise = math.NaN() }), "-noise"},
		{"noise-two", with(func(a *args) { a.noise = 2 }), "-noise"},
		{"noise-inf", with(func(a *args) { a.noise = math.Inf(1) }), "-noise"},
		{"cycles-negative", with(func(a *args) { a.cycles = -5 }), "-cycles"},
		{"replays-zero", with(func(a *args) { a.replays = 0 }), "-replays"},
	} {
		t.Run(tc.name, func(t *testing.T) {
			a := tc.args
			err := checkFlags(a.tiles, a.patches, a.d, a.cycles, a.replays, a.noise)
			switch {
			case tc.flag == "" && err != nil:
				t.Errorf("rejected: %v", err)
			case tc.flag != "" && err == nil:
				t.Errorf("accepted; want an error naming %s", tc.flag)
			case tc.flag != "" && !strings.HasPrefix(err.Error(), tc.flag+" "):
				t.Errorf("error %q does not lead with %s", err, tc.flag)
			}
		})
	}
}

// TestMain lets a test re-run this binary as questsim itself (see
// runQuestsim), so exit codes are observed the way a shell sees them.
func TestMain(m *testing.M) {
	if os.Getenv("QUESTSIM_TEST_MAIN") == "1" {
		main()
		os.Exit(0)
	}
	os.Exit(m.Run())
}

// runQuestsim runs questsim with args in a child process and returns its
// exit code, stdout and stderr.
func runQuestsim(t *testing.T, args ...string) (int, string, string) {
	t.Helper()
	cmd := exec.Command(os.Args[0], args...)
	cmd.Env = append(os.Environ(), "QUESTSIM_TEST_MAIN=1")
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

// TestBadValuesExitTwo pins the usage class of the exit contract: a bad
// observability value or an unknown name exits 2 with one "questsim: "
// line naming the flag, as questbench does, and the retired -pprof and
// -ci-stop flags fail flag parsing.
func TestBadValuesExitTwo(t *testing.T) {
	for _, tc := range []struct {
		args []string
		flag string // named on the one stderr line; "" = flag package usage
	}{
		{[]string{"-metrics", "bogus"}, "-metrics"},
		{[]string{"-trace-buf", "-1"}, "-trace-buf"},
		{[]string{"-bw-window", "-1"}, "-bw-window"},
		{[]string{"-cpuprofile", filepath.Join(t.TempDir(), "missing", "cpu.pprof")}, "cpuprofile"},
		{[]string{"-design", "sram"}, "-design"},
		{[]string{"-tech", "cmos"}, "-tech"},
		{[]string{"-program", "qft"}, "-program"},
		{[]string{"-pprof", "localhost:6060"}, ""},
		{[]string{"-ci-stop", "0.1"}, ""},
	} {
		code, _, stderr := runQuestsim(t, append(tc.args, "-cycles", "0")...)
		if code != 2 {
			t.Errorf("%v: exit %d, want 2 (stderr: %s)", tc.args, code, stderr)
			continue
		}
		if tc.flag == "" {
			continue
		}
		if !strings.HasPrefix(stderr, "questsim: ") || strings.Count(stderr, "\n") != 1 || !strings.Contains(stderr, tc.flag) {
			t.Errorf("%v: stderr %q, want one \"questsim: \" line naming %s", tc.args, stderr, tc.flag)
		}
	}
}

// TestArtifactWriteFailureExitsOne pins that a run whose -trace, -heatmap,
// -bw or -ledger artifact cannot be written fails: exit 1, with the write
// error on a stderr line that names the artifact once.
func TestArtifactWriteFailureExitsOne(t *testing.T) {
	if _, err := os.Stat("/dev/full"); err != nil {
		t.Skip("no /dev/full on this system")
	}
	dir := t.TempDir()
	missingHeat := filepath.Join(dir, "missing", "h.json")
	missingLedger := filepath.Join(dir, "missing", "x.jsonl")
	for _, tc := range []struct{ flag, path, line string }{
		{"-trace", "/dev/full", "trace: write /dev/full"},
		{"-heatmap", "/dev/full", "heatmap: write /dev/full"},
		{"-bw", "/dev/full", "bw: write /dev/full"},
		{"-heatmap", missingHeat, "heatmap: open " + missingHeat},
		{"-ledger", missingLedger, "questsim: ledger: open " + missingLedger},
	} {
		code, _, stderr := runQuestsim(t, "-cycles", "0", tc.flag, tc.path)
		if code != 1 {
			t.Errorf("%s %s: exit %d, want 1 (stderr: %s)", tc.flag, tc.path, code, stderr)
		}
		if !strings.Contains("\n"+stderr, "\n"+tc.line) {
			t.Errorf("%s %s: stderr %q has no line starting %q", tc.flag, tc.path, stderr, tc.line)
		}
	}
}

// TestDeterministicStdout pins the reports of the benchmark's two questsim
// runs at seed 1 (bench/run.sh's distill-replay and ghz-d5-4tile) byte for
// byte to testdata/NAME.txt: every line, the escalation and global-decode
// counts included. A change that moves them on purpose regenerates both
// files with
//
//	go run ./cmd/questsim -program distill -replays 100 -cycles 50 -noise 1e-3 > cmd/questsim/testdata/distill.txt
//	go run ./cmd/questsim -program ghz -tiles 4 -d 5 -noise 1e-3 -cycles 400 > cmd/questsim/testdata/ghz.txt
//
// and bench/golden.json with questperf's -write-golden.
func TestDeterministicStdout(t *testing.T) {
	for _, tc := range []struct {
		name string
		args []string
	}{
		{"distill", []string{"-program", "distill", "-replays", "100", "-cycles", "50", "-noise", "1e-3"}},
		{"ghz", []string{"-program", "ghz", "-tiles", "4", "-d", "5", "-noise", "1e-3", "-cycles", "400"}},
	} {
		want, err := os.ReadFile(filepath.Join("testdata", tc.name+".txt"))
		if err != nil {
			t.Fatal(err)
		}
		code, stdout, stderr := runQuestsim(t, tc.args...)
		if code != 0 {
			t.Fatalf("%s: exit %d (stderr: %s)", tc.name, code, stderr)
		}
		if stdout != string(want) {
			t.Errorf("%s: stdout drifted from testdata/%s.txt:\n got:\n%s\nwant:\n%s", tc.name, tc.name, stdout, want)
		}
	}
}

// TestMetricsJSONReportsTimers pins that instruments, off by default, still
// record under -metrics: a noisy four-tile d=5 ghz run with a few idle
// cycles reports observations of the MCE cycle, window flush and match
// timers in its -metrics json dump, and prints the stdout the same run
// prints without the flag.
func TestMetricsJSONReportsTimers(t *testing.T) {
	args := []string{"-program", "ghz", "-tiles", "4", "-d", "5", "-noise", "1e-3", "-cycles", "10"}
	code, plain, stderr := runQuestsim(t, args...)
	if code != 0 {
		t.Fatalf("exit %d (stderr: %s)", code, stderr)
	}
	code, stdout, stderr := runQuestsim(t, append(args, "-metrics", "json")...)
	if code != 0 {
		t.Fatalf("-metrics json: exit %d (stderr: %s)", code, stderr)
	}
	if stdout != plain {
		t.Errorf("-metrics json changed stdout:\n%s\nwithout the flag:\n%s", stdout, plain)
	}
	var snap metrics.Snapshot
	if err := json.Unmarshal([]byte(stderr), &snap); err != nil {
		t.Fatalf("stderr is not one metrics snapshot: %v\n%s", err, stderr)
	}
	counts := map[string]uint64{}
	for _, h := range snap.Histograms {
		counts[h.Name] = h.Summary.Count
	}
	for _, name := range []string{"mce.cycle.ns", "decoder.window.flush.ns", "decoder.match.ns"} {
		if counts[name] == 0 {
			t.Errorf("%s recorded no observation under -metrics json", name)
		}
	}
}

// TestTraceValidates pins -trace end to end: a traced distillation run
// writes a Chrome trace that validates and carries at least the master,
// mce, decoder and noc component tracks.
func TestTraceValidates(t *testing.T) {
	path := filepath.Join(t.TempDir(), "trace.json")
	if code, _, stderr := runQuestsim(t, "-program", "distill", "-replays", "5", "-trace", path); code != 0 {
		t.Fatalf("exit %d (stderr: %s)", code, stderr)
	}
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	rep, err := tracing.Validate(data)
	if err != nil {
		t.Fatal(err)
	}
	if rep.Procs < 4 {
		t.Errorf("trace has %d process(es), want >= 4 (master, mce, decoder, noc)", rep.Procs)
	}
}

// TestDesignProfilesValidate runs the cached distillation once per
// microcode design with -bw. Each profile must validate and name its
// design, and below the header the three must be byte-identical: every
// design issues the same schedule, so the buses carry the same traffic.
func TestDesignProfilesValidate(t *testing.T) {
	dir := t.TempDir()
	var body []byte
	for _, design := range []string{"ram", "fifo", "unitcell"} {
		path := filepath.Join(dir, design+".jsonl")
		if code, _, stderr := runQuestsim(t, "-program", "distill", "-replays", "8", "-design", design, "-bw", path); code != 0 {
			t.Fatalf("%s: exit %d (stderr: %s)", design, code, stderr)
		}
		data, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		rep, err := bwprofile.Validate(data)
		if err != nil {
			t.Fatalf("%s: %v", design, err)
		}
		if rep.Design != design || rep.Summary.Windows == 0 {
			t.Errorf("%s: profile names design %q with %d window(s)", design, rep.Design, rep.Summary.Windows)
		}
		_, rest, _ := bytes.Cut(data, []byte("\n"))
		if body == nil {
			body = rest
		} else if !bytes.Equal(rest, body) {
			t.Errorf("%s: profile records differ from ram's", design)
		}
	}
}
