package core

import (
	"fmt"
	"sync"

	"quest/internal/compiler"
	"quest/internal/heatmap"
	"quest/internal/isa"
	"quest/internal/mc"
	"quest/internal/metrics"
	"quest/internal/noise"
	"quest/internal/tracing"
)

// machineMemoryScalar is MachineMemory on the scalar machine oracle: every
// trial steps a full pooled Machine — master dispatch, MCE microcode replay
// onto the stabilizer tableau with a live noise injector, local and windowed
// global decode — cycle by cycle. It is the ground truth the batched engine
// is pinned against (TestMachineMemoryBatchedMatchesScalar): same cell,
// seeds and observers, so rows, ledger bytes, heat JSON, quest-bw/1 bytes
// and counters must agree exactly.
func machineMemoryScalar(reg *metrics.Registry, tr *tracing.Tracer, physRate float64,
	rounds, trials, workers int, obs SweepObs) (MemoryRow, error) {
	cell := mc.Seed(ExperimentSeed, mc.F64(physRate), uint64(rounds), 0x3e3)
	name := fmt.Sprintf("memory p=%g rounds=%d", physRate, rounds)
	// Every trial machine is shaped by DefaultMachineConfig with one patch
	// per tile (see the trial body); resolve the shared parent collector
	// for exactly that lattice.
	base := DefaultMachineConfig()
	lat := compiler.NewLayout(base.Distance, 1).Lat
	heat := obs.collector(lat.Rows, lat.Cols)
	// Trials pool machines: every trial of this cell uses the identical
	// machine shape (only the seed and the observation hooks vary), so the
	// expensive trial-independent construction — microcode stores, decoder
	// lookup tables, tableau storage — is paid roughly once per worker and
	// Reset rewinds the rest. Reset-vs-fresh equality is pinned by
	// TestMachineResetMatchesFresh.
	var pool sync.Pool
	trial := func(t int, seed uint64, ctx mc.BatchCtx) mc.Outcome {
		// The machine records into a trial-private set; its (single) grid is
		// folded into the worker's engine shard at the end, so the merged
		// heatmap stays worker-count independent.
		var hs *heatmap.Set
		if ctx.Heat != nil {
			hs = heatmap.NewSet()
		}
		var m *Machine
		if v := pool.Get(); v != nil {
			m = v.(*Machine)
			m.Reset(int64(seed), ctx.Shard, ctx.Trace, hs, ctx.BW)
		} else {
			cfg := DefaultMachineConfig()
			cfg.PatchesPerTile = 1
			cfg.Seed = int64(seed)
			cfg.DecodeWindow = cfg.Distance
			cfg.Metrics = ctx.Shard
			cfg.Tracer = ctx.Trace
			cfg.Heat = hs
			cfg.BW = ctx.BW
			if physRate > 0 {
				nm := noise.Uniform(physRate)
				cfg.Noise = &nm
			}
			m = NewMachine(cfg)
		}
		defer pool.Put(m)
		got, err := memoryTrial(m, rounds)
		if err != nil {
			return mc.Outcome{Err: fmt.Errorf("core: memory trial %d: %w", t, err)}
		}
		if hs != nil {
			ctx.Heat.Merge(hs.Collector(heatmap.GridName(lat.Rows, lat.Cols), lat.Rows, lat.Cols))
		}
		return mc.Outcome{Fail: got != 0}
	}
	res := mc.RunBatch(trials, workers, cell, reg, tr, obs.observers(name, heat),
		func(start int, seeds []uint64, ctx mc.BatchCtx, out []mc.Outcome) {
			for i, seed := range seeds {
				out[i] = trial(start+i, seed, ctx)
			}
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

// memoryTrial drives one machine through the memory-experiment trial —
// settle, LPrep0, rounds cycles, LMeasZ, drain — and returns the measured
// logical bit.
func memoryTrial(m *Machine, rounds int) (int, error) {
	mm := m.Master()
	mm.StepCycle()
	if err := mm.Dispatch(0, isa.LogicalInstr{Op: isa.LPrep0, Target: 0}); err != nil {
		return 0, err
	}
	for c := 0; c < rounds; c++ {
		mm.StepCycle()
	}
	if err := mm.Dispatch(0, isa.LogicalInstr{Op: isa.LMeasZ, Target: 0}); err != nil {
		return 0, err
	}
	d, ok := mm.Drain(rounds + 50)
	if !ok {
		return 0, fmt.Errorf("did not drain")
	}
	got := -1
	if n := len(d.Results); n > 0 {
		got = d.Results[n-1].Bit
	}
	return got, nil
}
