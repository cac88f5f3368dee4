package main

import (
	"bytes"
	"errors"
	"os"
	"os/exec"
	"strings"
	"testing"
)

// TestCheckFlags pins which -trials and -workers values questbench refuses:
// negative counts fail with an error naming the flag; zero (the default)
// and positive counts pass.
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
			t.Errorf("trials=%d workers=%d rejected: %v", tc.trials, tc.workers, err)
		case tc.flag != "" && err == nil:
			t.Errorf("trials=%d workers=%d accepted; want an error naming %s", tc.trials, tc.workers, tc.flag)
		case tc.flag != "" && !strings.HasPrefix(err.Error(), tc.flag+" "):
			t.Errorf("trials=%d workers=%d: error %q does not lead with %s", tc.trials, tc.workers, err, tc.flag)
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

// runQuestbench runs questbench with args in a child process and returns
// its exit code and stderr.
func runQuestbench(t *testing.T, args ...string) (int, string) {
	t.Helper()
	cmd := exec.Command(os.Args[0], args...)
	cmd.Env = append(os.Environ(), "QUESTBENCH_TEST_MAIN=1")
	var stderr bytes.Buffer
	cmd.Stderr = &stderr
	err := cmd.Run()
	var ee *exec.ExitError
	switch {
	case err == nil:
		return 0, stderr.String()
	case errors.As(err, &ee):
		return ee.ExitCode(), stderr.String()
	}
	t.Fatal(err)
	return 0, ""
}

// TestLedgerWriteFailureExitsOne pins that a failed ledger write fails the
// run: with -ledger on a full device, threshold and memory each exit 1 and
// name the write error once, with one "ledger:" prefix.
func TestLedgerWriteFailureExitsOne(t *testing.T) {
	if _, err := os.Stat("/dev/full"); err != nil {
		t.Skip("no /dev/full on this system")
	}
	for _, exp := range []string{"threshold", "memory"} {
		code, stderr := runQuestbench(t, "-trials", "20", "-workers", "1", "-ledger", "/dev/full", exp)
		if code != 1 {
			t.Errorf("%s: exit %d, want 1 (stderr: %s)", exp, code, stderr)
		}
		if want := exp + " experiment failed: ledger: write /dev/full"; !strings.Contains(stderr, want) {
			t.Errorf("%s: stderr %q does not contain %q", exp, stderr, want)
		}
		if strings.Contains(stderr, "ledger: ledger:") {
			t.Errorf("%s: stderr %q doubles the ledger prefix", exp, stderr)
		}
	}
}
