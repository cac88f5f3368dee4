package main

import (
	"bytes"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"quest/internal/ledger"
)

// writeShard fabricates one shard ledger file owning the cells k ≡ index
// (mod count) of a cells-cell sweep and returns its path.
func writeShard(t *testing.T, dir string, index, count, cells int) string {
	t.Helper()
	var buf bytes.Buffer
	info := ledger.ShardInfo{Index: index, Count: count}
	w, err := ledger.NewWriter(&buf, "merge-cli-test", map[string]string{"suite": "ledgermerge"}, info)
	if err != nil {
		t.Fatal(err)
	}
	for k := 0; k < cells; k++ {
		if count >= 2 && k%count != index {
			continue
		}
		name := fmt.Sprintf("cell-%d", k)
		for i := 0; i < 2; i++ {
			if err := w.WriteTrial(ledger.Trial{
				Cell: name, Trial: i, Seed: ledger.SeedString(uint64(k*100 + i)), Fail: i == 0,
			}); err != nil {
				t.Fatal(err)
			}
		}
		if err := w.WriteCell(ledger.Cell{
			Cell: name, Seed: ledger.SeedString(uint64(k)), Budget: 2, Trials: 2,
			Failures: 1, Rate: 0.5, WilsonLo: 0, WilsonHi: 1,
		}); err != nil {
			t.Fatal(err)
		}
	}
	if err := w.Flush(); err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(dir, fmt.Sprintf("ledger-shard-%d-of-%d.jsonl", index, count))
	if err := os.WriteFile(path, buf.Bytes(), 0o644); err != nil {
		t.Fatal(err)
	}
	return path
}

// TestLedgermergeExitCodeContract extends the tools/internal/cli exit-code
// contract to this binary: 0 merged, 1 semantic findings (overlapping or
// incomplete shard sets), 2 unusable input (missing file, corrupt JSON, no
// arguments).
func TestLedgermergeExitCodeContract(t *testing.T) {
	dir := t.TempDir()
	s0 := writeShard(t, dir, 0, 2, 3)
	s1 := writeShard(t, dir, 1, 2, 3)
	corrupt := filepath.Join(dir, "corrupt.jsonl")
	data, err := os.ReadFile(s0)
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(corrupt, append(data, []byte("{torn")...), 0o644); err != nil {
		t.Fatal(err)
	}

	cases := []struct {
		name string
		argv []string
		want int
	}{
		{"clean merge", []string{"-o", filepath.Join(dir, "merged.jsonl"), s0, s1}, 0},
		{"single unsharded passthrough", []string{"-o", filepath.Join(dir, "single.jsonl"), writeShard(t, dir, 0, 1, 2)}, 0},
		{"overlapping shards", []string{"-o", filepath.Join(dir, "dup.jsonl"), s0, s0}, 1},
		{"incomplete shard set", []string{"-o", filepath.Join(dir, "half.jsonl"), s0}, 1},
		{"corrupt shard", []string{"-o", filepath.Join(dir, "bad.jsonl"), corrupt, s1}, 2},
		{"missing file", []string{filepath.Join(dir, "nope.jsonl")}, 2},
		{"no arguments", nil, 2},
		{"unknown flag", []string{"-nope", s0}, 2},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			var out, errw strings.Builder
			if got := command().Execute(tc.argv, &out, &errw); got != tc.want {
				t.Errorf("exit %d, want %d (stderr: %s)", got, tc.want, errw.String())
			}
		})
	}
}

// TestLedgermergeReconstructsSingleProcessBytes pins the tool end to end:
// the -o file equals the ledger the unsharded run writes, and stdout mode
// emits the same bytes.
func TestLedgermergeReconstructsSingleProcessBytes(t *testing.T) {
	dir := t.TempDir()
	fullPath := writeShard(t, dir, 0, 1, 5)
	full, err := os.ReadFile(fullPath)
	if err != nil {
		t.Fatal(err)
	}
	s0 := writeShard(t, dir, 0, 2, 5)
	s1 := writeShard(t, dir, 1, 2, 5)

	out := filepath.Join(dir, "merged.jsonl")
	var stdout, stderr strings.Builder
	if got := command().Execute([]string{"-o", out, s0, s1}, &stdout, &stderr); got != 0 {
		t.Fatalf("exit %d (stderr: %s)", got, stderr.String())
	}
	merged, err := os.ReadFile(out)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(merged, full) {
		t.Errorf("merged file differs from the single-process ledger")
	}
	if !strings.Contains(stdout.String(), "5 cell(s)") {
		t.Errorf("summary %q does not report 5 cells", stdout.String())
	}

	var viaStdout, stderr2 strings.Builder
	if got := command().Execute([]string{s0, s1}, &viaStdout, &stderr2); got != 0 {
		t.Fatalf("stdout mode: exit %d (stderr: %s)", got, stderr2.String())
	}
	if viaStdout.String() != string(full) {
		t.Errorf("stdout-mode bytes differ from the single-process ledger")
	}
}
