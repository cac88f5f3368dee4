package main

import (
	"bytes"
	"errors"
	"os"
	"os/exec"
	"path/filepath"
	"regexp"
	"strings"
	"testing"

	"quest/internal/ledger"
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

// TestResumeRefusesContradictorySummary pins that -resume reads its
// checkpoint under the ledger's one rule set: a real threshold ledger whose
// first summary is edited to claim 7 failures fails Start, so questbench
// exits 2 with the same error the validator behind questcheck reports,
// instead of replaying the lie into a new ledger.
func TestResumeRefusesContradictorySummary(t *testing.T) {
	dir := t.TempDir()
	full := filepath.Join(dir, "full.jsonl")
	if code, stderr := runQuestbench(t, "-trials", "20", "-workers", "1", "-ledger", full, "threshold"); code != 0 {
		t.Fatalf("threshold run: exit %d: %s", code, stderr)
	}
	data, err := os.ReadFile(full)
	if err != nil {
		t.Fatal(err)
	}
	loc := regexp.MustCompile(`"failures":\d+`).FindIndex(data)
	if loc == nil {
		t.Fatal("ledger has no cell summary")
	}
	edited := append(append(append([]byte{}, data[:loc[0]]...), `"failures":7`...), data[loc[1]:]...)
	if bytes.Equal(edited, data) {
		t.Fatal("first summary already counts 7 failures; the edit changed nothing")
	}
	checkpoint := filepath.Join(dir, "edited.jsonl")
	if err := os.WriteFile(checkpoint, edited, 0o644); err != nil {
		t.Fatal(err)
	}
	_, verr := ledger.Validate(edited)
	if verr == nil {
		t.Fatal("Validate accepted the edited summary")
	}
	resumed := filepath.Join(dir, "resumed.jsonl")
	code, stderr := runQuestbench(t, "-trials", "20", "-workers", "1", "-resume", checkpoint, "-ledger", resumed, "threshold")
	if code != 2 {
		t.Fatalf("-resume from the edited checkpoint: exit %d, want 2 (stderr: %s)", code, stderr)
	}
	if !strings.Contains(stderr, verr.Error()) {
		t.Errorf("stderr %q does not carry the validator's verdict %q", stderr, verr)
	}
	if _, err := os.Stat(resumed); !os.IsNotExist(err) {
		t.Errorf("a refused resume still created %s", resumed)
	}
}
