package main

import (
	"encoding/json"
	"fmt"
	"os"
)

// goldenPath is where the expected output digests live, relative to the
// repository root.
const goldenPath = "bench/golden.json"

// golden holds the sha256 digests each workload's outputs must match. They
// pin simulated statistics: a change that only speeds the simulator up must
// leave every one of them unchanged.
type golden struct {
	// Stdout is the digest of each seeded workload's stdout at seed 1.
	Stdout map[string]string `json:"stdout_seed1"`
	// Invariant is the digest of the stdout lines that do not depend on the
	// seed (all of a sweep's, which ignores -seed), checked at every seed.
	Invariant map[string]string `json:"stdout_invariant"`
	// Ledger is the digest of each sweep ledger's trial and cell records.
	Ledger map[string]string `json:"ledger"`
}

func readGolden(path string) (*golden, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var g golden
	if err := json.Unmarshal(data, &g); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return &g, nil
}

func (g *golden) write(path string) error {
	data, err := json.MarshalIndent(g, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(data, '\n'), 0o644)
}

// invariantOf is the part of a workload's stdout checked at every seed.
func invariantOf(w *workload, stdout []byte) []byte {
	if w.seeded {
		return seedIndependent(stdout)
	}
	return stdout
}

// checkStdout compares a run's stdout with the golden digests that apply at
// this seed and returns the mismatches.
func (g *golden) checkStdout(w *workload, seed int64, stdout []byte) []string {
	var bad []string
	if got, want := digest(invariantOf(w, stdout)), g.Invariant[w.name]; got != want {
		bad = append(bad, fmt.Sprintf("stdout (seed-independent part) sha256 %s, golden %s", got, want))
	}
	if w.seeded && seed == 1 {
		if got, want := digest(stdout), g.Stdout[w.name]; got != want {
			bad = append(bad, fmt.Sprintf("stdout sha256 %s, golden %s at seed 1", got, want))
		}
	}
	return bad
}
