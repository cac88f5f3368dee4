package main

import (
	"fmt"
	"math/rand"

	"quest/internal/awg"
	"quest/internal/clifford"
	"quest/internal/compiler"
	"quest/internal/core"
	"quest/internal/decoder"
	"quest/internal/isa"
	"quest/internal/mc"
	"quest/internal/noise"
	"quest/internal/surface"
	qworkload "quest/internal/workload"
)

// The replicas re-run each workload's work in process through the layers'
// public functions, with a span around every call, so the per-layer numbers
// come from the benchmark's own files and not from timers in the program.
// Each replica mirrors what the CLI does for the first trials of a sweep
// cell, or for the whole questsim run. That mirror is checked, not assumed:
// per-trial fail bits must equal the traced run's ledger, and µop, cycle and
// escalation counts must equal questsim's report.

// tracedRun is what the traced CLI run reported, for the fidelity checks.
type tracedRun struct {
	fails map[string][]bool // sweeps: ledger fail bits per cell, in trial order
	sim   simReport         // questsim: the parsed report
}

// compareFails checks the replica's fail bits against the ledger's leading
// trials of the same cell.
func compareFails(cell string, got []bool, cli tracedRun) []string {
	want := cli.fails[cell]
	if len(want) < len(got) {
		return []string{fmt.Sprintf("trace replica diverged: ledger has %d trials of %q, replica ran %d", len(want), cell, len(got))}
	}
	for i := range got {
		if got[i] != want[i] {
			return []string{fmt.Sprintf("trace replica diverged: %q trial %d fail=%v, ledger says %v", cell, i, got[i], want[i])}
		}
	}
	return nil
}

// replicaThreshold mirrors questbench's threshold sweep trial: a tableau
// substrate driven word by word through two AWG units (noisy and clean),
// syndrome differencing, d-round windowed decoding, and the logical check.
func replicaThreshold(rec *Recorder, _ int64, cli tracedRun) []string {
	var warn []string
	for _, p := range thresholdRates {
		for _, d := range thresholdDistances {
			cell := mc.Seed(core.ExperimentSeed, mc.F64(p), uint64(d))
			name := fmt.Sprintf("threshold p=%g d=%d", p, d)
			lat := surface.NewPlanar(d)
			words := surface.CompileCycle(lat, surface.Steane, nil)
			var fails []bool
			for t := 0; t < replicaThresholdTrials; t++ {
				rec.StartTrace(fmt.Sprintf("%s trial=%d", name, t), fmt.Sprintf("d%d", d))
				rec.Begin("trial", false)
				fails = append(fails, thresholdTrial(rec, lat, words, d, p, mc.TrialSeed(cell, t)))
				rec.End()
			}
			warn = append(warn, compareFails(name, fails, cli)...)
		}
	}
	return warn
}

func thresholdTrial(rec *Recorder, lat surface.Lattice, words []isa.VLIW, d int, p float64, seed uint64) bool {
	var (
		tb           *clifford.Tableau
		inj          *noise.Injector
		noisy, clean *awg.ExecutionUnit
		hist         *decoder.SyndromeHistory
		frame        *decoder.PauliFrame
		win          *decoder.WindowDecoder
	)
	rec.Do("clifford.new", func() {
		tb = clifford.New(lat.NumQubits(), rand.New(rand.NewSource(int64(mc.Derive(seed, 0)))))
	})
	rec.Do("noise.new_injector", func() { inj = noise.NewInjector(noise.Uniform(p), int64(mc.Derive(seed, 1))) })
	rec.Do("awg.new", func() {
		noisy = awg.New(tb, inj)
		clean = awg.New(tb, nil)
	})
	rec.Do("decoder.new", func() {
		hist = decoder.NewHistory(lat)
		frame = decoder.NewPauliFrame()
		win = decoder.NewWindowDecoder(decoder.NewGlobalDecoder(lat), d)
	})
	cycle := func(span string, u *awg.ExecutionUnit) map[int]int {
		synd := make(map[int]int)
		rec.Do(span, func() {
			u.MeasSink = func(q, bit int) { synd[q] = bit }
			for _, w := range words {
				u.ExecuteWord(w)
			}
		})
		return synd
	}
	absorb := func(synd map[int]int) []decoder.Defect {
		var defects []decoder.Defect
		rec.Do("decoder.history_absorb", func() { defects = hist.Absorb(synd) })
		return defects
	}
	window := func(defects []decoder.Defect) {
		rec.Do("decoder.window_absorb", func() { win.Absorb(defects, frame) })
	}
	cycle("awg.cycle_clean", clean)
	absorb(cycle("awg.cycle_clean", clean))
	for round := 0; round < d; round++ {
		inj.SetLocation(round, 0)
		window(absorb(cycle("awg.cycle_noisy", noisy)))
	}
	window(absorb(cycle("awg.cycle_clean", clean)))
	rec.Do("decoder.window_flush", func() { win.Flush(frame) })
	var raw int
	logZ := lat.LogicalZ()
	rec.Do("clifford.measure_observable", func() { raw = tb.MeasureObservable(nil, logZ) })
	want := 1 - 2*frame.ParityOn(logZ, true)
	return raw != 0 && raw != want
}

// replicaMemory mirrors questbench's memory sweep trial on the full machine:
// one pooled machine per cell, Reset between trials, prepare a logical |0>,
// hold it for memoryRounds QECC cycles, measure, drain.
func replicaMemory(rec *Recorder, _ int64, cli tracedRun) []string {
	var warn []string
	for _, p := range memoryRates {
		cell := mc.Seed(core.ExperimentSeed, mc.F64(p), uint64(memoryRounds), 0x3e3)
		name := fmt.Sprintf("memory p=%g rounds=%d", p, memoryRounds)
		var m *core.Machine
		var fails []bool
		for t := 0; t < replicaMemoryTrials; t++ {
			seed := mc.TrialSeed(cell, t)
			rec.StartTrace(fmt.Sprintf("%s trial=%d", name, t), "d3x1")
			rec.Begin("trial", false)
			if m == nil {
				rec.Do("core.new_machine", func() {
					cfg := core.DefaultMachineConfig()
					cfg.PatchesPerTile = 1
					cfg.Seed = int64(seed)
					cfg.DecodeWindow = cfg.Distance
					if p > 0 {
						nm := noise.Uniform(p)
						cfg.Noise = &nm
					}
					m = core.NewMachine(cfg)
				})
			} else {
				rec.Do("core.machine_reset", func() { m.Reset(int64(seed), nil, nil, nil, nil) })
			}
			fail, err := memoryTrial(rec, m)
			rec.End()
			if err != nil {
				warn = append(warn, fmt.Sprintf("trace replica diverged: %q trial %d: %v", name, t, err))
				break
			}
			fails = append(fails, fail)
		}
		warn = append(warn, compareFails(name, fails, cli)...)
	}
	return warn
}

func memoryTrial(rec *Recorder, m *core.Machine) (bool, error) {
	mm := m.Master()
	step := func() { rec.DoProbed("master.step_cycle", func() { mm.StepCycle() }) }
	dispatch := func(op isa.LogicalOpcode) (err error) {
		rec.Do("master.dispatch", func() { err = mm.Dispatch(0, isa.LogicalInstr{Op: op, Target: 0}) })
		return err
	}
	step()
	if err := dispatch(isa.LPrep0); err != nil {
		return false, err
	}
	for c := 0; c < memoryRounds; c++ {
		step()
	}
	if err := dispatch(isa.LMeasZ); err != nil {
		return false, err
	}
	drained, got := false, -1
	rec.DoProbed("master.run_until_drained", func() {
		reps, ok := mm.RunUntilDrained(memoryRounds + 50)
		drained = ok
		for _, r := range reps {
			for _, res := range r.Results {
				got = res.Bit
			}
		}
	})
	if !drained {
		return false, fmt.Errorf("machine did not drain")
	}
	return got != 0, nil
}

// simConfig is the machine questsim builds from its flags, for the flags the
// questsim workloads set (the rest at questsim's defaults: two patches per
// tile, unit-cell microcode, Projected_D gate timing).
func simConfig(tiles, d int, seed int64) core.MachineConfig {
	cfg := core.DefaultMachineConfig()
	cfg.Tiles = tiles
	cfg.PatchesPerTile = 2
	cfg.Distance = d
	cfg.Seed = seed
	nm := noise.Uniform(1e-3)
	cfg.Noise = &nm
	t := qworkload.ProjectedD
	cfg.Timing = &awg.Timing{PrepNs: t.TPrep, Gate1Ns: t.T1, MeasNs: t.TMeas, CNOTNs: t.TCNOT, IdleNs: t.T1}
	return cfg
}

// compareSim checks a replica machine against questsim's report.
func compareSim(m *core.Machine, cycles int, cli tracedRun) []string {
	var uops []int
	for _, t := range m.Master().Tiles() {
		u, _, _, _, _ := t.Stats()
		uops = append(uops, int(u))
	}
	esc, decodes := m.Master().Stats()
	got := fmt.Sprintf("cycles=%d uops=%v escalated=%d decodes=%d", cycles, uops, esc, decodes)
	want := fmt.Sprintf("cycles=%d uops=%v escalated=%d decodes=%d",
		cli.sim.Cycles, cli.sim.TileUops, cli.sim.Escalated, cli.sim.GlobalDecodes)
	if got != want {
		return []string{fmt.Sprintf("trace replica diverged: replica %s, questsim %s", got, want)}
	}
	return nil
}

// idle steps the machine through questsim's idle tail.
func idle(rec *Recorder, m *core.Machine, cycles int) {
	for c := 0; c < cycles; c++ {
		rec.DoProbed("master.step_cycle", func() { m.Master().StepCycle() })
	}
}

// replicaDistill runs the cached distillation loop at a short and at the
// workload's replay count; the full-length run is checked against questsim.
func replicaDistill(rec *Recorder, seed int64, cli tracedRun) []string {
	var warn []string
	for _, replays := range []int{distillShortReplays, distillReplays} {
		rec.StartTrace(distillTrace(replays), "d3x1")
		rec.Begin("run", false)
		var m *core.Machine
		rec.Do("core.new_machine", func() { m = core.NewMachine(simConfig(1, 3, seed)) })
		var rep core.RunReport
		var err error
		rec.DoProbed("core.run_distillation", func() { rep, err = m.RunDistillationCached(replays, 0) })
		if err == nil {
			idle(rec, m, distillIdle)
		}
		rec.End()
		switch {
		case err != nil:
			warn = append(warn, fmt.Sprintf("trace replica diverged: distillation failed: %v", err))
		case replays == distillReplays:
			warn = append(warn, compareSim(m, rep.Cycles, cli)...)
		}
	}
	return warn
}

func distillTrace(replays int) string { return fmt.Sprintf("distill replays=%d", replays) }

// replicaGHZ runs questsim's GHZ program on four d=5 tiles, then its idle
// tail, and checks the result against questsim.
func replicaGHZ(rec *Recorder, seed int64, cli tracedRun) []string {
	rec.StartTrace("ghz tiles=4 d=5", "d5x4")
	rec.Begin("run", false)
	var m *core.Machine
	rec.Do("core.new_machine", func() { m = core.NewMachine(simConfig(4, 5, seed)) })
	// questsim's ghz program over its default two patches.
	p := compiler.NewProgram(2)
	p.Prep0(0).Prep0(1).H(0).CNOT(0, 1).MeasZ(0).MeasZ(1)
	var rep core.RunReport
	var err error
	rec.DoProbed("core.run_program", func() { rep, err = m.RunProgram(p, 0) })
	if err == nil {
		idle(rec, m, ghzCycles)
	}
	rec.End()
	if err != nil {
		return []string{fmt.Sprintf("trace replica diverged: ghz program failed: %v", err)}
	}
	return compareSim(m, rep.Cycles, cli)
}
