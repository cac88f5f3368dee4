package core

import (
	"bytes"
	"reflect"
	"testing"

	"quest/internal/bwprofile"
	"quest/internal/heatmap"
	"quest/internal/ledger"
	"quest/internal/mc"
)

// observedThreshold runs a small observed threshold sweep and returns the
// rows, the raw ledger bytes and the heatmap JSON, all produced with the
// given worker count.
func observedThreshold(t *testing.T, workers, trials int) ([]ThresholdRow, []byte, []byte) {
	t.Helper()
	var buf bytes.Buffer
	lw, err := ledger.NewWriter(&buf, "threshold-test", map[string]string{"suite": "observe_test"})
	if err != nil {
		t.Fatalf("NewWriter: %v", err)
	}
	heat := heatmap.NewSet()
	rows, err := Threshold(nil, nil, []float64{2e-3, 4e-3}, []int{3}, trials, workers,
		SweepObs{Ledger: lw, Heat: heat})
	if err != nil {
		t.Fatalf("Threshold: %v", err)
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

// TestThresholdObservedLedgerDeterminism pins the headline acceptance
// criterion: the ledger (and the heatmaps, and the rows) are byte-identical
// for workers=1 and workers=8. 120 trials make two lanes per cell, so eight
// workers record them into different heat shards.
func TestThresholdObservedLedgerDeterminism(t *testing.T) {
	rows1, led1, heat1 := observedThreshold(t, 1, 120)
	rows8, led8, heat8 := observedThreshold(t, 8, 120)
	if !reflect.DeepEqual(rows1, rows8) {
		t.Errorf("rows differ across worker counts:\n1: %+v\n8: %+v", rows1, rows8)
	}
	if !bytes.Equal(led1, led8) {
		t.Error("ledger bytes differ across worker counts")
	}
	if !bytes.Equal(heat1, heat8) {
		t.Error("heatmap JSON differs across worker counts")
	}
	rep, err := ledger.Validate(led1)
	if err != nil {
		t.Fatalf("questcheck rejects the sweep ledger: %v", err)
	}
	if rep.Cells != 2 {
		t.Errorf("ledger has %d cells, want 2", rep.Cells)
	}
}

// TestThresholdObservedHeatContent sanity-checks what the heatmaps say for a
// d=5 cell: defects were born, matching recorded endpoints, and the grid has
// the lattice's shape.
func TestThresholdObservedHeatContent(t *testing.T) {
	heat := heatmap.NewSet()
	_, _ = Threshold(nil, nil, []float64{4e-3}, []int{5}, 40, 4, SweepObs{Heat: heat})
	names := heat.Names()
	if len(names) != 1 {
		t.Fatalf("heat set has grids %v, want exactly one", names)
	}
	c := heat.Collector(names[0], 9, 9) // d=5 planar lattice is 9×9
	if c.TotalDefects() == 0 {
		t.Error("no defect births recorded at p=4e-3")
	}
	if c.Pairs()+c.Boundary() == 0 {
		t.Error("no matches recorded at p=4e-3")
	}
}

// TestThresholdObservedProgressStream pins the progress plumbing end to end:
// cell-labelled snapshots arrive for every sweep cell and each cell ends
// with a Done snapshot matching its row.
func TestThresholdObservedProgressStream(t *testing.T) {
	finals := map[string]mc.Progress{}
	rows, err := Threshold(nil, nil, []float64{2e-3, 4e-3}, []int{3}, 60, 4,
		SweepObs{Progress: func(cell string, p mc.Progress) {
			if p.Done {
				finals[cell] = p
			}
		}})
	if err != nil {
		t.Fatalf("Threshold: %v", err)
	}
	if len(finals) != len(rows) {
		t.Fatalf("Done snapshots for %d cells, want %d", len(finals), len(rows))
	}
	for cell, p := range finals {
		if p.Completed != 60 {
			t.Errorf("%s: final Completed = %d, want 60", cell, p.Completed)
		}
	}
}

// memoryPinTrials is the trial count of the memory worker-count pins: two
// full 64-trial lanes plus a short one, so every pin crosses lane
// boundaries and leaves a ragged final lane.
const memoryPinTrials = 130

// TestMachineMemoryObservedDeterminism runs the machine-level experiment with
// the full observer bundle and pins worker-count independence of the row,
// ledger and heat across three lanes split over 3 and 8 workers.
func TestMachineMemoryObservedDeterminism(t *testing.T) {
	runAt := func(workers int) (MemoryRow, []byte, []byte) {
		var buf bytes.Buffer
		lw, err := ledger.NewWriter(&buf, "memory-test", nil)
		if err != nil {
			t.Fatalf("NewWriter: %v", err)
		}
		heat := heatmap.NewSet()
		row, err := MachineMemory(nil, nil, 2e-3, 6, memoryPinTrials, workers,
			SweepObs{Ledger: lw, Heat: heat})
		if err != nil {
			t.Fatalf("MachineMemory: %v", err)
		}
		if err := lw.Flush(); err != nil {
			t.Fatalf("Flush: %v", err)
		}
		var hj bytes.Buffer
		if err := heat.WriteJSON(&hj); err != nil {
			t.Fatalf("WriteJSON: %v", err)
		}
		return row, buf.Bytes(), hj.Bytes()
	}
	row1, led1, heat1 := runAt(1)
	for _, workers := range []int{3, 8} {
		row, led, heat := runAt(workers)
		if row1 != row {
			t.Errorf("rows differ across worker counts:\n1: %+v\n%d: %+v", row1, workers, row)
		}
		if !bytes.Equal(led1, led) {
			t.Errorf("ledger bytes differ between 1 and %d workers", workers)
		}
		if !bytes.Equal(heat1, heat) {
			t.Errorf("heatmap JSON differs between 1 and %d workers", workers)
		}
	}
	if _, err := ledger.Validate(led1); err != nil {
		t.Errorf("questcheck rejects the memory ledger: %v", err)
	}
}

// TestThresholdObservedProgressPureSideband pins that the live progress
// stream is a pure side-band: with a Progress sink wired in, the rows,
// ledger bytes and heatmap JSON are byte-identical to the progress-off run,
// for 1 and 8 workers alike, and every cell ends with exactly one Done
// snapshot.
func TestThresholdObservedProgressPureSideband(t *testing.T) {
	run := func(workers int, progress func(string, mc.Progress)) ([]ThresholdRow, []byte, []byte) {
		t.Helper()
		var buf bytes.Buffer
		lw, err := ledger.NewWriter(&buf, "threshold-test", map[string]string{"suite": "observe_test"})
		if err != nil {
			t.Fatalf("NewWriter: %v", err)
		}
		heat := heatmap.NewSet()
		obs := SweepObs{Ledger: lw, Heat: heat, Progress: progress}
		rows, err := Threshold(nil, nil, []float64{2e-3, 4e-3}, []int{3}, 120, workers, obs)
		if err != nil {
			t.Fatalf("Threshold: %v", err)
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

	offRows, offLed, offHeat := run(1, nil)
	for _, workers := range []int{1, 8} {
		// Cells run one after another and the engine serializes a cell's
		// emits, so the sink needs no lock of its own.
		done := map[string]int{}
		rows, led, heat := run(workers, func(cell string, p mc.Progress) {
			if p.Done {
				done[cell]++
			}
		})
		if !reflect.DeepEqual(rows, offRows) {
			t.Errorf("workers=%d: rows differ with progress on:\noff: %+v\non:  %+v", workers, offRows, rows)
		}
		if !bytes.Equal(led, offLed) {
			t.Errorf("workers=%d: ledger bytes differ with progress on", workers)
		}
		if !bytes.Equal(heat, offHeat) {
			t.Errorf("workers=%d: heatmap JSON differs with progress on", workers)
		}
		if len(done) != len(rows) {
			t.Errorf("workers=%d: %d cell(s) reported Done, want %d: %v", workers, len(done), len(rows), done)
		}
		for cell, n := range done {
			if n != 1 {
				t.Errorf("workers=%d: cell %s reported Done %d times, want once", workers, cell, n)
			}
		}
	}
}

// TestMachineMemoryBWPureSideband pins the bandwidth profiler's acceptance
// criteria in one sweep: with a recorder wired through the machine, the row,
// ledger bytes and heatmap JSON are byte-identical to the profiler-off run
// (the recorder observes, it never perturbs), and the quest-bw/1 artifact's
// own bytes are identical for 1, 3 and 8 workers (per-worker shards whose
// merge is a sum).
func TestMachineMemoryBWPureSideband(t *testing.T) {
	run := func(workers int, withBW bool) (MemoryRow, []byte, []byte, []byte) {
		t.Helper()
		var buf bytes.Buffer
		lw, err := ledger.NewWriter(&buf, "memory-test", nil)
		if err != nil {
			t.Fatalf("NewWriter: %v", err)
		}
		heat := heatmap.NewSet()
		obs := SweepObs{Ledger: lw, Heat: heat}
		var bw *bwprofile.Recorder
		if withBW {
			bw = bwprofile.New(8)
			obs.BW = bw
		}
		row, err := MachineMemory(nil, nil, 2e-3, 6, memoryPinTrials, workers, obs)
		if err != nil {
			t.Fatalf("MachineMemory: %v", err)
		}
		if err := lw.Flush(); err != nil {
			t.Fatalf("Flush: %v", err)
		}
		var hj bytes.Buffer
		if err := heat.WriteJSON(&hj); err != nil {
			t.Fatalf("WriteJSON: %v", err)
		}
		var bwb bytes.Buffer
		if bw != nil {
			if err := bw.WriteJSONL(&bwb, "memory-test", nil); err != nil {
				t.Fatalf("WriteJSONL: %v", err)
			}
		}
		return row, buf.Bytes(), hj.Bytes(), bwb.Bytes()
	}

	offRow, offLed, offHeat, _ := run(1, false)
	var wave []byte
	for _, workers := range []int{1, 3, 8} {
		row, led, heat, bwBytes := run(workers, true)
		if row != offRow {
			t.Errorf("workers=%d: row differs with bw on:\noff: %+v\non:  %+v", workers, offRow, row)
		}
		if !bytes.Equal(led, offLed) {
			t.Errorf("workers=%d: ledger bytes differ with bw on", workers)
		}
		if !bytes.Equal(heat, offHeat) {
			t.Errorf("workers=%d: heatmap JSON differs with bw on", workers)
		}
		rep, err := bwprofile.Validate(bwBytes)
		if err != nil {
			t.Fatalf("workers=%d: bw artifact invalid: %v", workers, err)
		}
		if rep.Summary.TotalInstrs == 0 || rep.Summary.TotalBytes == 0 {
			t.Errorf("workers=%d: bw artifact recorded nothing: %+v", workers, rep.Summary)
		}
		if wave == nil {
			wave = bwBytes
		} else if !bytes.Equal(wave, bwBytes) {
			t.Errorf("bw artifact bytes differ between 1 and %d workers", workers)
		}
	}
}
