package core

import (
	"fmt"
	"math/rand"

	"quest/internal/awg"
	"quest/internal/clifford"
	"quest/internal/decoder"
	"quest/internal/mc"
	"quest/internal/metrics"
	"quest/internal/noise"
	"quest/internal/surface"
	"quest/internal/tracing"
)

// thresholdScalar is Threshold on the scalar tableau oracle: every
// trial re-simulates the full stabilizer tableau through the AWG unit with a
// live noise injector, then decodes and measures the logical observable. It
// is the ground truth the batched Pauli-frame engine is pinned against
// (TestThresholdBatchedMatchesScalar): same cells, seeds and observers, so
// rows, ledger bytes and heat JSON must agree exactly.
func thresholdScalar(reg *metrics.Registry, tr *tracing.Tracer, rates []float64, distances []int,
	trials, workers int, obs SweepObs) ([]ThresholdRow, error) {
	var rows []ThresholdRow
	for _, p := range rates {
		for _, d := range distances {
			res, err := logicalFailRateScalar(reg, tr, d, p, trials, workers, obs)
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

// logicalFailRateScalar is one oracle cell: the windowed-decode memory
// experiment on the tableau, with every observation hook nil-gated.
func logicalFailRateScalar(reg *metrics.Registry, tr *tracing.Tracer, d int, p float64,
	trials, workers int, obs SweepObs) (mc.Result, error) {
	cell := mc.Seed(ExperimentSeed, mc.F64(p), uint64(d))
	name := fmt.Sprintf("threshold p=%g d=%d", p, d)
	lat := surface.NewPlanar(d)
	words := surface.CompileCycle(lat, surface.Steane, nil)
	heat := obs.collector(lat.Rows, lat.Cols)
	res := mc.RunBatch(trials, workers, cell, reg, tr, obs.observers(name, heat),
		func(start int, seeds []uint64, ctx mc.BatchCtx, out []mc.Outcome) {
			for i, seed := range seeds {
				tb := clifford.New(lat.NumQubits(), rand.New(rand.NewSource(int64(mc.Derive(seed, 0)))))
				inj := noise.NewInjector(noise.Uniform(p), int64(mc.Derive(seed, 1)))
				noisy := awg.New(tb, inj)
				clean := awg.New(tb, nil)
				run := func(u *awg.ExecutionUnit) map[int]int {
					synd := make(map[int]int)
					u.MeasSink = func(q, bit int) { synd[q] = bit }
					for _, w := range words {
						u.ExecuteWord(w)
					}
					return synd
				}
				hist := decoder.NewHistory(lat)
				frame := decoder.NewPauliFrame()
				win := decoder.NewWindowDecoder(decoder.NewGlobalDecoder(lat), d)
				if ctx.Shard != nil {
					win.SetInstr(decoder.NewInstr(ctx.Shard))
				}
				if ctx.Trace != nil {
					win.SetTracer(ctx.Trace, 0)
				}
				hist.SetHeat(ctx.Heat)
				win.SetHeat(ctx.Heat)
				run(clean)
				hist.Absorb(run(clean))
				// The noisy-round count tracks the code distance: the window
				// decoder is d rounds deep, so fewer rounds would never fill —
				// let alone exercise — a d=5 or d=7 cell's own decode window.
				for round := 0; round < d; round++ {
					inj.SetLocation(round, 0)
					win.Absorb(hist.Absorb(run(noisy)), frame)
				}
				win.Absorb(hist.Absorb(run(clean)), frame)
				win.Flush(frame)
				logZ := lat.LogicalZ()
				raw := tb.MeasureObservable(nil, logZ)
				want := 1 - 2*frame.ParityOn(logZ, true)
				out[i] = mc.Outcome{Fail: raw != 0 && raw != want}
			}
		})
	return res, obs.closeCell(name, map[string]float64{"p": p, "d": float64(d)}, cell, trials, res)
}
