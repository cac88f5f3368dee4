package core

import (
	"bytes"
	"reflect"
	"testing"
	"time"

	"quest/internal/bwprofile"
	"quest/internal/events"
	"quest/internal/heatmap"
	"quest/internal/ledger"
	"quest/internal/mc"
	"quest/internal/metrics"
)

// observedThreshold runs a small observed threshold sweep and returns the
// rows, the raw ledger bytes and the heatmap JSON, all produced with the
// given worker count.
func observedThreshold(t *testing.T, workers int, ciWidth float64, trials int) ([]ThresholdRow, []byte, []byte) {
	t.Helper()
	var buf bytes.Buffer
	lw, err := ledger.NewWriter(&buf, "threshold-test", map[string]string{"suite": "observe_test"}, ledger.ShardInfo{})
	if err != nil {
		t.Fatalf("NewWriter: %v", err)
	}
	heat := heatmap.NewSet()
	rows, err := Threshold(nil, nil, []float64{2e-3, 4e-3}, []int{3}, trials, workers,
		SweepObs{Ledger: lw, Heat: heat, CIWidth: ciWidth})
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
// for workers=1 and workers=8, with and without CI early stop.
func TestThresholdObservedLedgerDeterminism(t *testing.T) {
	for _, ciWidth := range []float64{0, 0.15} {
		rows1, led1, heat1 := observedThreshold(t, 1, ciWidth, 120)
		rows8, led8, heat8 := observedThreshold(t, 8, ciWidth, 120)
		if !reflect.DeepEqual(rows1, rows8) {
			t.Errorf("ciWidth=%v: rows differ across worker counts:\n1: %+v\n8: %+v", ciWidth, rows1, rows8)
		}
		if !bytes.Equal(led1, led8) {
			t.Errorf("ciWidth=%v: ledger bytes differ across worker counts", ciWidth)
		}
		if !bytes.Equal(heat1, heat8) {
			t.Errorf("ciWidth=%v: heatmap JSON differs across worker counts", ciWidth)
		}
		rep, err := ledger.Validate(led1)
		if err != nil {
			t.Fatalf("ciWidth=%v: questcheck rejects the sweep ledger: %v", ciWidth, err)
		}
		if rep.Cells != 2 {
			t.Errorf("ciWidth=%v: ledger has %d cells, want 2", ciWidth, rep.Cells)
		}
	}
}

// TestThresholdObservedCIStopSavesTrials pins the point of adaptive stopping:
// with a loose width at least one cell converges well before the budget, the
// reported interval meets the requested width, and the estimate agrees with
// the fixed-budget run on the trials both executed (they share per-trial
// seeds, so the early-stop row is a strict prefix of the fixed run).
func TestThresholdObservedCIStopSavesTrials(t *testing.T) {
	const budget = 400
	const width = 0.15
	fixed, _ := Threshold(nil, nil, []float64{2e-3}, []int{3}, budget, 4, SweepObs{})
	stopped, _ := Threshold(nil, nil, []float64{2e-3}, []int{3}, budget, 4, SweepObs{CIWidth: width})
	f, s := fixed[0], stopped[0]
	if s.Trials >= budget {
		t.Fatalf("ci-stop ran the whole budget (%d trials); widen the test margin", s.Trials)
	}
	if got := s.WilsonHi - s.WilsonLo; got > width {
		t.Errorf("stopped cell interval width %.4f exceeds requested %.4f", got, width)
	}
	if s.FailRate < f.WilsonLo-width || s.FailRate > f.WilsonHi+width {
		t.Errorf("early-stop estimate %.4f far from fixed-budget %.4f [%.4f, %.4f]",
			s.FailRate, f.FailRate, f.WilsonLo, f.WilsonHi)
	}
	if f.Trials != budget {
		t.Errorf("fixed run reports %d trials, want the full budget %d", f.Trials, budget)
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
// ledger and heat, with and without CI early stop. The CI width stops the
// cell inside its second lane, so whole in-flight lanes run past the stop
// point and their overrun must be discarded identically at every worker
// count.
func TestMachineMemoryObservedDeterminism(t *testing.T) {
	runAt := func(workers int, ciWidth float64) (MemoryRow, []byte, []byte) {
		var buf bytes.Buffer
		lw, err := ledger.NewWriter(&buf, "memory-test", nil, ledger.ShardInfo{})
		if err != nil {
			t.Fatalf("NewWriter: %v", err)
		}
		heat := heatmap.NewSet()
		row, ran, err := MachineMemory(nil, nil, 2e-3, 6, memoryPinTrials, workers,
			SweepObs{Ledger: lw, Heat: heat, CIWidth: ciWidth})
		if err != nil {
			t.Fatalf("MachineMemory: %v", err)
		}
		if !ran {
			t.Fatal("MachineMemory skipped its cell without a Shard")
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
	for _, ciWidth := range []float64{0, 0.12} {
		row1, led1, heat1 := runAt(1, ciWidth)
		if ciWidth > 0 && (row1.Trials <= 64 || row1.Trials >= memoryPinTrials) {
			t.Errorf("ci=%v: cell stopped at %d trials, want inside the second lane", ciWidth, row1.Trials)
		}
		for _, workers := range []int{3, 8} {
			row, led, heat := runAt(workers, ciWidth)
			if row1 != row {
				t.Errorf("ci=%v: rows differ across worker counts:\n1: %+v\n%d: %+v", ciWidth, row1, workers, row)
			}
			if !bytes.Equal(led1, led) {
				t.Errorf("ci=%v: ledger bytes differ between 1 and %d workers", ciWidth, workers)
			}
			if !bytes.Equal(heat1, heat) {
				t.Errorf("ci=%v: heatmap JSON differs between 1 and %d workers", ciWidth, workers)
			}
		}
		if _, err := ledger.Validate(led1); err != nil {
			t.Errorf("ci=%v: questcheck rejects the memory ledger: %v", ciWidth, err)
		}
	}
}

// TestThresholdObservedEventsPureSideband pins the telemetry acceptance
// criterion: with a live events sampler wired into the progress stream, the
// rows, ledger bytes and heatmap JSON are byte-identical to the events-off
// run, for 1 and 8 workers alike — the sampler observes, it never perturbs.
func TestThresholdObservedEventsPureSideband(t *testing.T) {
	run := func(workers int, withEvents bool) ([]ThresholdRow, []byte, []byte, []byte) {
		t.Helper()
		var buf bytes.Buffer
		lw, err := ledger.NewWriter(&buf, "threshold-test", map[string]string{"suite": "observe_test"}, ledger.ShardInfo{})
		if err != nil {
			t.Fatalf("NewWriter: %v", err)
		}
		heat := heatmap.NewSet()
		obs := SweepObs{Ledger: lw, Heat: heat, CIWidth: 0.15}
		var evbuf bytes.Buffer
		var smp *events.Sampler
		if withEvents {
			smp = events.NewSampler(events.NewWriter(&evbuf, nil), metrics.New())
			if err := smp.Start(events.Header{Experiment: "threshold-test"}, time.Hour); err != nil {
				t.Fatalf("sampler Start: %v", err)
			}
			obs.Progress = func(cell string, p mc.Progress) { smp.ObserveCell(cell, p) }
		}
		rows, err := Threshold(nil, nil, []float64{2e-3, 4e-3}, []int{3}, 120, workers, obs)
		if err != nil {
			t.Fatalf("Threshold: %v", err)
		}
		if err := smp.Stop(); err != nil {
			t.Fatalf("sampler Stop: %v", err)
		}
		if err := lw.Flush(); err != nil {
			t.Fatalf("Flush: %v", err)
		}
		var hj bytes.Buffer
		if err := heat.WriteJSON(&hj); err != nil {
			t.Fatalf("WriteJSON: %v", err)
		}
		return rows, buf.Bytes(), hj.Bytes(), evbuf.Bytes()
	}

	offRows, offLed, offHeat, _ := run(1, false)
	for _, workers := range []int{1, 8} {
		rows, led, heat, ev := run(workers, true)
		if !reflect.DeepEqual(rows, offRows) {
			t.Errorf("workers=%d: rows differ with events on:\noff: %+v\non:  %+v", workers, offRows, rows)
		}
		if !bytes.Equal(led, offLed) {
			t.Errorf("workers=%d: ledger bytes differ with events on", workers)
		}
		if !bytes.Equal(heat, offHeat) {
			t.Errorf("workers=%d: heatmap JSON differs with events on", workers)
		}
		// The side-band itself must be a valid stream with both cells done.
		rep, err := events.Validate(ev)
		if err != nil {
			t.Fatalf("workers=%d: event stream invalid: %v", workers, err)
		}
		if rep.Cells != 2 || rep.DoneCells != 2 {
			t.Errorf("workers=%d: event report = %+v, want 2 done cells", workers, rep)
		}
	}
}

// TestBeginCellReplayEmitsDoneProgress pins that a resume-replayed cell
// still surfaces on the progress stream (and thus in a live events view) as
// a terminal Done snapshot carrying the recorded counts.
func TestBeginCellReplayEmitsDoneProgress(t *testing.T) {
	// Record a complete 2-cell sweep, then resume from it with a progress
	// sink attached: both cells replay without executing a trial, and both
	// must emit exactly one Done snapshot.
	var buf bytes.Buffer
	lw, err := ledger.NewWriter(&buf, "threshold-test", map[string]string{"suite": "observe_test"}, ledger.ShardInfo{})
	if err != nil {
		t.Fatalf("NewWriter: %v", err)
	}
	if _, err := Threshold(nil, nil, []float64{2e-3, 4e-3}, []int{3}, 30, 4,
		SweepObs{Ledger: lw}); err != nil {
		t.Fatalf("Threshold: %v", err)
	}
	if err := lw.Flush(); err != nil {
		t.Fatalf("Flush: %v", err)
	}
	res, err := ledger.NewResume(buf.Bytes())
	if err != nil {
		t.Fatalf("NewResume: %v", err)
	}
	type snap struct {
		cell string
		p    mc.Progress
	}
	var got []snap
	rows, err := Threshold(nil, nil, []float64{2e-3, 4e-3}, []int{3}, 30, 4, SweepObs{
		Resume:   res,
		Progress: func(cell string, p mc.Progress) { got = append(got, snap{cell, p}) },
	})
	if err != nil {
		t.Fatalf("resumed Threshold: %v", err)
	}
	if len(got) != 2 {
		t.Fatalf("got %d progress snapshots, want 2 (one per replayed cell): %+v", len(got), got)
	}
	for i, s := range got {
		r := rows[i]
		if !s.p.Done || s.p.Completed != r.Trials || s.p.Budget != 30 {
			t.Errorf("snapshot %d = %+v, want Done with trials=%d budget=30", i, s.p, r.Trials)
		}
		lo, hi := mc.Wilson(s.p.Failures, s.p.Completed, 1.96)
		if s.p.WilsonLo != lo || s.p.WilsonHi != hi || s.p.WilsonLo != r.WilsonLo {
			t.Errorf("snapshot %d interval [%v, %v] inconsistent with recorded cell [%v, %v]",
				i, s.p.WilsonLo, s.p.WilsonHi, r.WilsonLo, r.WilsonHi)
		}
	}
}

// TestMachineMemoryBWPureSideband pins the bandwidth profiler's acceptance
// criteria in one sweep: with a recorder wired through the machine, the row,
// ledger bytes and heatmap JSON are byte-identical to the profiler-off run
// (the recorder observes, it never perturbs), and the quest-bw/1 artifact's
// own bytes are identical for 1, 3 and 8 workers (per-trial shards merged in
// trial order, like the ledger).
func TestMachineMemoryBWPureSideband(t *testing.T) {
	run := func(workers int, withBW bool) (MemoryRow, []byte, []byte, []byte) {
		t.Helper()
		var buf bytes.Buffer
		lw, err := ledger.NewWriter(&buf, "memory-test", nil, ledger.ShardInfo{})
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
		row, ran, err := MachineMemory(nil, nil, 2e-3, 6, memoryPinTrials, workers, obs)
		if err != nil {
			t.Fatalf("MachineMemory: %v", err)
		}
		if !ran {
			t.Fatal("MachineMemory skipped its cell without a Shard")
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
