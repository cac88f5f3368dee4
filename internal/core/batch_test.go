package core

import (
	"bytes"
	"reflect"
	"strings"
	"testing"

	"quest/internal/heatmap"
	"quest/internal/ledger"
	"quest/internal/mc"
	"quest/internal/metrics"
)

// thresholdSweep runs one sweep through the batched engine or the scalar
// oracle and returns the rows, the raw ledger bytes, the heatmap JSON and
// the non-zero decoder.* counters and mc.trials of a private registry.
func thresholdSweep(t *testing.T, batched bool, workers, trials int,
	rates []float64, distances []int) ([]ThresholdRow, []byte, []byte, map[string]uint64) {
	t.Helper()
	reg := metrics.New()
	var buf bytes.Buffer
	lw, err := ledger.NewWriter(&buf, "threshold-batch-test", map[string]string{"suite": "batch_test"})
	if err != nil {
		t.Fatalf("NewWriter: %v", err)
	}
	heat := heatmap.NewSet()
	obs := SweepObs{Ledger: lw, Heat: heat}
	var rows []ThresholdRow
	var serr error
	if batched {
		rows, serr = Threshold(reg, nil, rates, distances, trials, workers, obs)
	} else {
		rows, serr = thresholdScalar(reg, nil, rates, distances, trials, workers, obs)
	}
	if serr != nil {
		t.Fatalf("sweep: %v", serr)
	}
	if err := lw.Flush(); err != nil {
		t.Fatalf("Flush: %v", err)
	}
	var hj bytes.Buffer
	if err := heat.WriteJSON(&hj); err != nil {
		t.Fatalf("WriteJSON: %v", err)
	}
	counters := map[string]uint64{}
	for _, c := range reg.Snapshot().Counters {
		if c.Value != 0 && (strings.HasPrefix(c.Name, "decoder.") || c.Name == "mc.trials") {
			counters[c.Name] = c.Value
		}
	}
	return rows, buf.Bytes(), hj.Bytes(), counters
}

// TestThresholdBatchedMatchesScalar pins the batched engine's whole contract:
// for every cell, Result rows, ledger bytes, heat JSON, the non-zero
// decoder.* counters and mc.trials are identical to the scalar tableau
// oracle's, across worker counts (including lane-count mismatches), trial
// counts that leave a ragged final 64-trial lane, and the exact grid
// `questbench threshold` ships. The scalar oracle runs at workers=1 as the
// reference. The grid holds trials that drew no fault, whose decode the
// engine skips, and trials that drew one.
func TestThresholdBatchedMatchesScalar(t *testing.T) {
	rates := []float64{2e-3, 4e-3}
	var clean, faulty int
	for _, tc := range []struct {
		name   string
		trials int
		rates  []float64
		dists  []int
	}{
		{"single-trial", 1, rates, []int{3}},
		{"sub-lane", 7, rates, []int{3}},
		{"full-lane", 64, rates, []int{3}},
		{"ragged", 100, rates, []int{3}},
		{"two-lanes-ragged", 130, rates, []int{3}},
		{"d5-ragged", 30, rates, []int{5}},
		{"cli-grid", 70, []float64{2e-3, 1e-3, 5e-4}, []int{3, 5}},
	} {
		for _, p := range tc.rates {
			for _, d := range tc.dists {
				c, f := faultCounts(&thresholdProgramFor(d).stream, p, thresholdInjSeed,
					mc.Seed(ExperimentSeed, mc.F64(p), uint64(d)), tc.trials) // the cell seed logicalFailRateBatched derives
				clean, faulty = clean+c, faulty+f
			}
		}
		t.Run(tc.name, func(t *testing.T) {
			wantRows, wantLed, wantHeat, wantCounters := thresholdSweep(t, false, 1, tc.trials, tc.rates, tc.dists)
			for _, workers := range []int{1, 8} {
				rows, led, heat, counters := thresholdSweep(t, true, workers, tc.trials, tc.rates, tc.dists)
				if !reflect.DeepEqual(rows, wantRows) {
					t.Errorf("workers=%d: batched rows differ from scalar oracle:\nbatched: %+v\nscalar:  %+v",
						workers, rows, wantRows)
				}
				if !bytes.Equal(led, wantLed) {
					t.Errorf("workers=%d: batched ledger bytes differ from scalar oracle", workers)
				}
				if !bytes.Equal(heat, wantHeat) {
					t.Errorf("workers=%d: batched heat JSON differs from scalar oracle", workers)
				}
				if !reflect.DeepEqual(counters, wantCounters) {
					t.Errorf("workers=%d: batched counters differ from scalar oracle:\nbatched: %v\nscalar:  %v",
						workers, counters, wantCounters)
				}
			}
			if _, err := ledger.Validate(wantLed); err != nil {
				t.Fatalf("questcheck rejects the sweep ledger: %v", err)
			}
		})
	}
	if clean == 0 || faulty == 0 {
		t.Errorf("the grid holds %d fault-free and %d faulty trials; it must hold both", clean, faulty)
	}
}

// TestThresholdRoundsTrackDistance is the regression test for the
// hardcoded-4-rounds bug: every trial must absorb d noisy rounds plus the
// final clean round, so the per-trial decoder.window.rounds count tracks the
// code distance (the decode window is d rounds deep and must fill exactly
// once before the final flush). The engine and the scalar oracle are both
// checked.
func TestThresholdRoundsTrackDistance(t *testing.T) {
	for _, d := range []int{3, 5, 7} {
		for _, batched := range []bool{false, true} {
			reg := metrics.New()
			if batched {
				_, _ = Threshold(reg, nil, []float64{2e-3}, []int{d}, 1, 1, SweepObs{})
			} else {
				_, _ = thresholdScalar(reg, nil, []float64{2e-3}, []int{d}, 1, 1, SweepObs{})
			}
			got := reg.Counter("decoder.window.rounds").Value()
			want := uint64(d + 1) // d noisy rounds + the final clean round
			if got != want {
				t.Errorf("d=%d batched=%v: %d window rounds absorbed per trial, want %d",
					d, batched, got, want)
			}
		}
	}
}
