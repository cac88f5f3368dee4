package core

import (
	"fmt"

	"quest/internal/bwprofile"
	"quest/internal/heatmap"
	"quest/internal/ledger"
	"quest/internal/mc"
	"quest/internal/metrics"
	"quest/internal/tracing"
)

// SweepObs bundles the experiment-observability hooks a sweep driver wires
// through the Monte-Carlo engine: a run ledger, spatial heat collection,
// bandwidth profiling and a live progress sink. The zero value observes
// nothing.
//
// Everything written through these hooks is worker-count independent: the
// ledger is a pure function of trial-ordered outcomes, and heat and
// bandwidth shards are per-worker sums merged after the pool drains (pinned
// by TestThresholdObservedLedgerDeterminism and friends). Only the Progress
// stream reflects live completion order — it is display, not data.
type SweepObs struct {
	// Ledger receives one sampled record per trial and one summary per
	// sweep cell. Nil disables the ledger.
	Ledger *ledger.Writer
	// Heat accumulates defect-birth and matched-chain statistics, one
	// collector per lattice shape. Nil disables collection (and keeps the
	// decode paths allocation-free).
	Heat *heatmap.Set
	// BW accumulates cycle-windowed instruction-bandwidth samples from every
	// trial machine's master/MCE buses. Nil disables profiling (and keeps
	// the dispatch paths allocation-free). Shards are per-worker sums, so
	// the quest-bw/1 waveform is worker-count independent like the ledger
	// and heatmaps.
	BW *bwprofile.Recorder
	// Progress receives throttled per-cell progress snapshots. Nil
	// disables the stream.
	Progress func(cell string, p mc.Progress)
}

// observers assembles the engine-level hooks for one named sweep cell.
func (s SweepObs) observers(cell string, heat *heatmap.Collector) mc.Observers {
	obs := mc.Observers{Heat: heat, BW: s.BW}
	if s.Progress != nil {
		progress := s.Progress
		obs.Progress = func(p mc.Progress) { progress(cell, p) }
	}
	if s.Ledger != nil {
		lw := s.Ledger
		obs.Sink = func(trial int, seed uint64, out mc.Outcome) {
			// The Sink contract is void (the engine cannot abort a drained
			// trial on an I/O error); the Writer latches the first error and
			// closeCell surfaces it when the cell finishes.
			//quest:allow(errsink) Sink is void by contract; Writer.Err latches the failure and closeCell returns it
			lw.WriteTrial(ledger.Trial{
				Cell: cell, Trial: trial, Seed: ledger.SeedString(seed),
				Fail: out.Fail, Err: errString(out.Err),
			})
		}
	}
	return obs
}

// closeCell writes the cell's ledger summary after its pool drained. It
// also surfaces any trial-write error the void Sink hook latched into the
// Writer, so a failed write mid-cell fails the sweep rather than
// truncating the ledger silently.
func (s SweepObs) closeCell(cell string, params map[string]float64, cellSeed uint64, budget int, res mc.Result) error {
	if s.Ledger == nil {
		return nil
	}
	if err := s.Ledger.WriteCell(ledger.Cell{
		Cell:   cell,
		Params: params,
		Seed:   ledger.SeedString(cellSeed),
		Budget: budget, Trials: res.Trials, Failures: res.Failures,
		Rate: res.Rate, WilsonLo: res.WilsonLo, WilsonHi: res.WilsonHi,
		Err: errString(res.Err),
	}); err != nil {
		return err
	}
	return s.Ledger.Err()
}

// collector resolves the heat collector for a lattice shape, nil when heat
// collection is off.
func (s SweepObs) collector(rows, cols int) *heatmap.Collector {
	if s.Heat == nil {
		return nil
	}
	return s.Heat.Collector(heatmap.GridName(rows, cols), rows, cols)
}

func errString(err error) string {
	if err == nil {
		return ""
	}
	return err.Error()
}

// Threshold sweeps physical error rates and code distances through the full
// decode path: noisy syndrome extraction, d-round space-time windowed
// matching, Pauli-frame verification against ground truth. Cells run on the
// lane-batched Pauli-frame engine (batch.go) over `workers` goroutines (<=0
// means GOMAXPROCS). Every trial is seeded from (ExperimentSeed, p, d,
// trial) alone, so rows are bit-identical for any worker count, with or
// without observation. Trial instrumentation is aggregated into reg and tr
// (nil skips either); obs adds per-cell ledger records, defect/matched-chain
// heatmaps and live progress. Every cell runs all of its trials. The error
// reports a failed ledger write — never
// a trial-level failure, which stays in its row — so a SweepObs without a
// Ledger never returns one.
func Threshold(reg *metrics.Registry, tr *tracing.Tracer, rates []float64, distances []int,
	trials, workers int, obs SweepObs) ([]ThresholdRow, error) {
	var rows []ThresholdRow
	for _, p := range rates {
		for _, d := range distances {
			res, err := logicalFailRateBatched(reg, tr, d, p, trials, workers, obs)
			if err != nil {
				return rows, err
			}
			rows = append(rows, ThresholdRow{
				PhysRate: p,
				Distance: d,
				FailRate: res.Rate,
				WilsonLo: res.WilsonLo,
				WilsonHi: res.WilsonHi,
				Trials:   res.Trials,
			})
		}
	}
	return rows, nil
}

// MachineMemory runs the end-to-end memory experiment at one operating point
// over `workers` goroutines (<=0 means GOMAXPROCS). Each trial is one
// machine — DefaultMachineConfig with one patch per tile and a
// distance-deep decode window — seeded from (ExperimentSeed, physRate,
// rounds, trial), so the row is bit-identical for any worker count and
// uncorrelated with the Threshold sweep's fault patterns. Trials run 64 to a
// lane on the batched Pauli-frame engine (memory.go), which reproduces the
// machine trial byte for byte: its counters (mce.*, master.*, decoder.*)
// land in per-worker shards merged into reg, its window-decoder spans in
// tracer shards merged into tr (nil skips either), and the SweepObs hooks
// see the machine's defect births, matched chains and bus traffic in
// worker-private shards. The cell runs all of its trials. The error is a
// failed ledger write or else the first trial-level error, in trial order.
func MachineMemory(reg *metrics.Registry, tr *tracing.Tracer, physRate float64,
	rounds, trials, workers int, obs SweepObs) (MemoryRow, error) {
	cell := mc.Seed(ExperimentSeed, mc.F64(physRate), uint64(rounds), 0x3e3)
	name := fmt.Sprintf("memory p=%g rounds=%d", physRate, rounds)
	mp := memoryProgramFor(rounds)
	heat := obs.collector(mp.lay.Lat.Rows, mp.lay.Lat.Cols)
	res := mc.RunBatch(trials, workers, cell, reg, tr, obs.observers(name, heat),
		func(_ int, seeds []uint64, ctx mc.BatchCtx, out []mc.Outcome) {
			mp.runLane(physRate, seeds, ctx, out)
		})
	if err := obs.closeCell(name, map[string]float64{"p": physRate, "rounds": float64(rounds)}, cell, trials, res); err != nil {
		return MemoryRow{}, err
	}
	row := MemoryRow{
		PhysRate: physRate,
		Rounds:   rounds,
		Failures: res.Failures,
		WilsonLo: res.WilsonLo,
		WilsonHi: res.WilsonHi,
		Trials:   res.Trials,
	}
	return row, res.Err
}
