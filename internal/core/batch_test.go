package core

import (
	"bytes"
	"reflect"
	"testing"

	"quest/internal/heatmap"
	"quest/internal/ledger"
	"quest/internal/metrics"
)

// thresholdSweep runs one sweep through the batched engine or the scalar
// oracle and returns the rows, the raw ledger bytes and the heatmap JSON.
func thresholdSweep(t *testing.T, batched bool, workers, trials int, ciWidth float64,
	rates []float64, distances []int) ([]ThresholdRow, []byte, []byte) {
	t.Helper()
	var buf bytes.Buffer
	lw, err := ledger.NewWriter(&buf, "threshold-batch-test", map[string]string{"suite": "batch_test"}, 1)
	if err != nil {
		t.Fatalf("NewWriter: %v", err)
	}
	heat := heatmap.NewSet()
	obs := SweepObs{Ledger: lw, Heat: heat, CIWidth: ciWidth}
	var rows []ThresholdRow
	var serr error
	if batched {
		rows, serr = Threshold(nil, nil, rates, distances, trials, workers, obs)
	} else {
		rows, serr = thresholdScalar(nil, nil, rates, distances, trials, workers, obs)
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
	return rows, buf.Bytes(), hj.Bytes()
}

// TestThresholdBatchedMatchesScalar pins the batched engine's whole contract:
// for every cell, Result rows, ledger bytes and heat JSON are byte-identical
// to the scalar tableau oracle, across worker counts (including lane-count
// mismatches), trial counts that leave a ragged final 64-trial lane, CI
// early stop, and the exact grid `questbench threshold` ships. The scalar
// oracle runs at workers=1 as the reference.
func TestThresholdBatchedMatchesScalar(t *testing.T) {
	rates := []float64{2e-3, 4e-3}
	for _, tc := range []struct {
		name    string
		trials  int
		ciWidth float64
		rates   []float64
		dists   []int
	}{
		{"single-trial", 1, 0, rates, []int{3}},
		{"sub-lane", 7, 0, rates, []int{3}},
		{"full-lane", 64, 0, rates, []int{3}},
		{"ragged", 100, 0, rates, []int{3}},
		{"two-lanes-ragged", 130, 0, rates, []int{3}},
		{"ci-stop", 120, 0.15, rates, []int{3}},
		{"d5-ragged", 30, 0, rates, []int{5}},
		{"cli-grid", 70, 0, []float64{2e-3, 1e-3, 5e-4}, []int{3, 5}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			wantRows, wantLed, wantHeat := thresholdSweep(t, false, 1, tc.trials, tc.ciWidth, tc.rates, tc.dists)
			for _, workers := range []int{1, 8} {
				rows, led, heat := thresholdSweep(t, true, workers, tc.trials, tc.ciWidth, tc.rates, tc.dists)
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
			}
			if _, err := ledger.Validate(wantLed); err != nil {
				t.Fatalf("ledgercheck rejects the sweep ledger: %v", err)
			}
		})
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
