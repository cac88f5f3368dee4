// Benchmark harness: one testing.B benchmark per table and figure of the
// paper's evaluation, plus ablation benches for the design choices called
// out in DESIGN.md. Each benchmark regenerates its experiment's data and
// reports the headline quantity as a custom metric, so
//
//	go test -bench=. -benchmem
//
// reproduces the entire evaluation section (see EXPERIMENTS.md for the
// paper-vs-measured record).
package quest_test

import (
	"math"
	"testing"

	"fmt"
	"math/rand"
	"runtime"

	"quest/internal/awg"
	"quest/internal/clifford"
	"quest/internal/compiler"
	"quest/internal/concat"
	"quest/internal/core"
	"quest/internal/decoder"
	"quest/internal/isa"
	"quest/internal/jj"
	"quest/internal/master"
	"quest/internal/mce"
	"quest/internal/microcode"
	"quest/internal/noc"
	"quest/internal/noise"
	"quest/internal/place"
	"quest/internal/surface"
	"quest/internal/workload"
)

// BenchmarkFig2ShorBandwidthScaling regenerates Figure 2: baseline
// instruction bandwidth versus machine size for Shor-128..1024.
func BenchmarkFig2ShorBandwidthScaling(b *testing.B) {
	var last []core.Fig2Row
	for i := 0; i < b.N; i++ {
		last = core.Fig2()
	}
	b.ReportMetric(float64(last[len(last)-1].Bandwidth)/1e12, "TBps@1024bit")
	b.ReportMetric(float64(last[len(last)-1].PhysQubits)/1e6, "Mqubits@1024bit")
}

// BenchmarkFig6QECCOverhead regenerates Figure 6: the QECC:regular
// instruction ratio across the seven workloads.
func BenchmarkFig6QECCOverhead(b *testing.B) {
	var rows []core.Fig6Row
	for i := 0; i < b.N; i++ {
		rows = core.Fig6()
	}
	lo, hi := math.Inf(1), math.Inf(-1)
	for _, r := range rows {
		lo = math.Min(lo, r.Orders)
		hi = math.Max(hi, r.Orders)
	}
	b.ReportMetric(lo, "min-orders")
	b.ReportMetric(hi, "max-orders")
}

// BenchmarkFig10CapacityScaling regenerates Figure 10: microcode capacity
// versus serviced qubits for the three organizations.
func BenchmarkFig10CapacityScaling(b *testing.B) {
	var rows []core.Fig10Row
	for i := 0; i < b.N; i++ {
		rows = core.Fig10()
	}
	last := rows[len(rows)-1]
	b.ReportMetric(float64(last.RAMBits)/float64(last.FIFOBits), "ram/fifo@4096q")
	b.ReportMetric(float64(last.CellBits), "unitcell-bits")
}

// BenchmarkFig11QubitsPerMCE regenerates Figure 11: qubits serviced per MCE
// at a fixed 4 Kb budget across channel configurations.
func BenchmarkFig11QubitsPerMCE(b *testing.B) {
	var rows []core.Fig11Row
	for i := 0; i < b.N; i++ {
		rows = core.Fig11()
	}
	b.ReportMetric(float64(rows[0].RAM), "ram-qubits")
	b.ReportMetric(float64(rows[0].FIFO), "fifo-qubits")
	b.ReportMetric(float64(rows[2].UnitCell), "unitcell-qubits@4ch")
	b.ReportMetric(float64(rows[2].UnitCell)/float64(rows[0].RAM), "improvement-x")
}

// BenchmarkFig13TFactoryOverhead regenerates Figure 13: distillation
// instruction overhead across the workloads.
func BenchmarkFig13TFactoryOverhead(b *testing.B) {
	var rows []core.Fig13Row
	for i := 0; i < b.N; i++ {
		rows = core.Fig13()
	}
	hi := 0.0
	for _, r := range rows {
		hi = math.Max(hi, r.Orders)
	}
	b.ReportMetric(hi, "max-orders")
}

// BenchmarkFig14GlobalSavings regenerates Figure 14: QuEST and QuEST+cache
// bandwidth savings across the workloads.
func BenchmarkFig14GlobalSavings(b *testing.B) {
	var rows []core.Fig14Row
	for i := 0; i < b.N; i++ {
		rows = core.Fig14()
	}
	minQ, maxC := math.Inf(1), 0.0
	for _, r := range rows {
		minQ = math.Min(minQ, r.OrdersQuEST)
		maxC = math.Max(maxC, r.OrdersCache)
	}
	b.ReportMetric(minQ, "min-quest-orders")
	b.ReportMetric(maxC, "max-cache-orders")
}

// BenchmarkFig15ErrorRateSensitivity regenerates Figure 15: savings across
// physical error rates 1e-3..1e-5.
func BenchmarkFig15ErrorRateSensitivity(b *testing.B) {
	var rows []core.Fig15Row
	for i := 0; i < b.N; i++ {
		rows = core.Fig15()
	}
	var at3, at5 float64
	for _, r := range rows {
		if r.Workload == "GSE" {
			switch r.ErrorRate {
			case 1e-3:
				at3 = r.SavingsQuEST
			case 1e-5:
				at5 = r.SavingsQuEST
			}
		}
	}
	b.ReportMetric(at3/at5, "gse-savings-spread")
}

// BenchmarkFig16MCEThroughput regenerates Figure 16: qubits per MCE across
// technologies and syndrome designs.
func BenchmarkFig16MCEThroughput(b *testing.B) {
	var rows []core.Fig16Row
	for i := 0; i < b.N; i++ {
		rows = core.Fig16()
	}
	for _, r := range rows {
		if r.Tech == "Projected_D" && r.Schedule == "Steane" {
			b.ReportMetric(float64(r.Qubits), "steane-projD-qubits")
		}
	}
}

// BenchmarkTable2MicrocodeDesign regenerates Table 2: the per-syndrome
// optimal microcode configuration, JJ count and power.
func BenchmarkTable2MicrocodeDesign(b *testing.B) {
	var rows []core.Table2Row
	for i := 0; i < b.N; i++ {
		rows = core.Table2()
	}
	for _, r := range rows {
		if r.Schedule == "Steane" {
			b.ReportMetric(float64(r.JJs), "steane-jjs")
			b.ReportMetric(r.PowerUW, "steane-uW")
		}
	}
}

// BenchmarkMachineEndToEnd runs the cycle-level machine (the executable
// grounding of the analytical figures): a cached distillation loop on a
// simulated substrate, reporting measured savings.
func BenchmarkMachineEndToEnd(b *testing.B) {
	var res core.MachineDemoResult
	var err error
	for i := 0; i < b.N; i++ {
		res, err = core.MachineDemo(10)
		if err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(res.MeasuredSavings, "measured-savings-x")
}

// ---- Ablations (DESIGN.md §5) ----

// BenchmarkAblationMaskCoalescing compares raw per-qubit mask storage
// against the d²-coalesced mask table.
func BenchmarkAblationMaskCoalescing(b *testing.B) {
	lat := surface.NewLattice(99, 99)
	m := surface.NewMask(lat)
	var raw, coalesced int
	for i := 0; i < b.N; i++ {
		raw = m.RawBits()
		coalesced = m.CoalescedBits(9)
	}
	b.ReportMetric(float64(raw)/float64(coalesced), "mask-reduction-x")
}

// BenchmarkAblationLocalDecoder measures how much global-decoder load the
// MCE's lookup table strips off under noise.
func BenchmarkAblationLocalDecoder(b *testing.B) {
	for i := 0; i < b.N; i++ {
		nm := noise.Uniform(1e-3)
		eng := mce.New(mce.Config{
			Design:   microcode.DesignUnitCell,
			Schedule: surface.Steane,
			Layout:   compiler.NewLayout(3, 2),
			Noise:    &nm,
			Seed:     int64(i + 1),
		})
		local, escalated := 0, 0
		for c := 0; c < 100; c++ {
			rep := eng.StepCycle()
			local += rep.DefectsLocal
			escalated += len(rep.DefectsEscalated)
		}
		if i == b.N-1 {
			b.ReportMetric(float64(local), "lut-resolved")
			b.ReportMetric(float64(escalated), "escalated")
		}
	}
}

// BenchmarkAblationMicrocodeDesigns compares replay cost of the three
// organizations on the same tile (RAM pays address decode, FIFO streams
// flat, unit cell regenerates from the pattern table). Each iteration flips
// one mask bit on and back off: the contents stay the same, but the changed
// Version makes the store expand afresh instead of returning its last
// expansion.
func BenchmarkAblationMicrocodeDesigns(b *testing.B) {
	lat := surface.NewLattice(9, 19)
	mask := surface.NewMask(lat)
	for _, d := range microcode.Designs() {
		b.Run(d.String(), func(b *testing.B) {
			st := microcode.NewStore(d, surface.Steane, lat)
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				mask.SetDisabled(0, true)
				mask.SetDisabled(0, false)
				st.ReplayCycle(mask)
			}
			b.ReportMetric(float64(st.CapacityBits()), "capacity-bits")
		})
	}
}

// BenchmarkAblationSyndromeSchedules compares the four syndrome designs'
// per-cycle instruction volume on one tile.
func BenchmarkAblationSyndromeSchedules(b *testing.B) {
	lat := surface.NewPlanar(5)
	for _, sched := range surface.Schedules() {
		b.Run(sched.Name, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				surface.CompileCycle(lat, sched, nil)
			}
			b.ReportMetric(float64(sched.Depth*lat.NumQubits()), "uops-per-cycle")
		})
	}
}

// BenchmarkAblationCacheOnOff measures the measured bus traffic of the
// distillation loop with and without the logical instruction cache.
func BenchmarkAblationCacheOnOff(b *testing.B) {
	b.Run("cached", func(b *testing.B) {
		var bytes uint64
		for i := 0; i < b.N; i++ {
			m := core.NewMachine(core.DefaultMachineConfig())
			rep, err := m.RunDistillationCached(5, 0)
			if err != nil {
				b.Fatal(err)
			}
			bytes = rep.QuESTBusBytes
		}
		b.ReportMetric(float64(bytes), "bus-bytes")
	})
	b.Run("uncached", func(b *testing.B) {
		var bytes uint64
		for i := 0; i < b.N; i++ {
			// Ship the loop body instruction by instruction instead.
			m := core.NewMachine(core.DefaultMachineConfig())
			mm := m.Master()
			mm.StepCycle()
			for rep := 0; rep < 5; rep++ {
				for j := 0; j < 106; j++ {
					if err := mm.Dispatch(0, pauliInstr(j)); err != nil {
						b.Fatal(err)
					}
				}
			}
			if _, ok := mm.Drain(100000); !ok {
				b.Fatal("did not drain")
			}
			bytes = mm.InstructionBusBytes()
		}
		b.ReportMetric(float64(bytes), "bus-bytes")
	})
}

// BenchmarkAblationWindowedDecode compares per-round and windowed global
// decoding on the same noisy trace.
func BenchmarkAblationWindowedDecode(b *testing.B) {
	lat := surface.NewPlanar(5)
	g := decoder.NewGlobalDecoder(lat)
	zs := lat.Qubits(surface.RoleAncillaZ)
	mk := func(q, round int) decoder.Defect {
		r, c := lat.Coord(q)
		return decoder.Defect{Round: round, Qubit: q, R: r, C: c}
	}
	// A synthetic trace of measurement-error pairs plus real errors.
	var trace [][]decoder.Defect
	for round := 0; round < 8; round++ {
		trace = append(trace, []decoder.Defect{
			mk(zs[round%len(zs)], round), mk(zs[round%len(zs)], round+1),
		})
	}
	b.Run("per-round", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			frame := decoder.NewPauliFrame()
			w := decoder.NewWindowDecoder(g, 1)
			for _, defects := range trace {
				w.Absorb(defects, frame)
			}
		}
	})
	b.Run("windowed", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			frame := decoder.NewPauliFrame()
			w := decoder.NewWindowDecoder(g, 5)
			for _, defects := range trace {
				w.Absorb(defects, frame)
			}
			w.Flush(frame)
		}
	})
}

// BenchmarkThresholdSweepWorkers measures the parallel Monte-Carlo engine
// on the threshold sweep: the same (rates × distances × trials) cell grid
// at 1 worker versus all cores. The rows are bit-identical across the two
// runs (per-trial seeding, trial-order reduction); only wall-clock changes.
// On a 4+-core box the workers-N variant should run ≥2× faster.
func BenchmarkThresholdSweepWorkers(b *testing.B) {
	rates := []float64{1e-3}
	distances := []int{3, 5}
	const trials = 48
	counts := []int{1}
	if n := runtime.GOMAXPROCS(0); n > 1 {
		counts = append(counts, n)
	}
	for _, w := range counts {
		b.Run(fmt.Sprintf("workers-%d", w), func(b *testing.B) {
			var rows []core.ThresholdRow
			for i := 0; i < b.N; i++ {
				rows, _ = core.Threshold(nil, nil, rates, distances, trials, w, core.SweepObs{})
			}
			b.ReportMetric(rows[0].FailRate, "d3-fail-rate")
			b.ReportMetric(float64(w), "workers")
		})
	}
}

// BenchmarkEstimatorFullSuite times a complete workload-suite estimation.
func BenchmarkEstimatorFullSuite(b *testing.B) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		est := workload.NewEstimator()
		for _, p := range workload.Suite() {
			est.Estimate(p)
		}
	}
}

// BenchmarkJJConfigSweep times the Table 2 configuration search.
func BenchmarkJJConfigSweep(b *testing.B) {
	for i := 0; i < b.N; i++ {
		for _, sched := range surface.Schedules() {
			if _, err := microcode.OptimalConfig(sched); err != nil {
				b.Fatal(err)
			}
			for _, cfg := range jj.Configs4Kb() {
				_ = cfg.JJCount()
				_ = cfg.PowerMicroWatts()
			}
		}
	}
}

// pauliInstr mimics one instruction of the uncached distillation stream:
// frame-level Paulis alternating over the tile's two patches, matching the
// cadence the cached variant replays.
func pauliInstr(j int) isa.LogicalInstr {
	op := isa.LX
	if j%2 == 1 {
		op = isa.LZ
	}
	return isa.LogicalInstr{Op: op, Target: uint8(j % 2)}
}

// BenchmarkExtensionConcatenatedCodes evaluates the §9 extension: hybrid
// microcode-inner/software-outer concatenation versus full software
// management, across outer levels.
func BenchmarkExtensionConcatenatedCodes(b *testing.B) {
	innerPhys := 2112 // 12.5·d² at d=13
	for levels := 0; levels <= 3; levels++ {
		s := concat.Scheme{Levels: levels, InnerErrorRate: 1e-9}
		b.Run(fmt.Sprintf("levels-%d", levels), func(b *testing.B) {
			var savings float64
			for i := 0; i < b.N; i++ {
				savings = s.Savings(innerPhys, 9, 13)
			}
			b.ReportMetric(savings, "hybrid-savings-x")
			b.ReportMetric(s.LogicalErrorRate(), "logical-error")
		})
	}
}

// BenchmarkStabilizerSubstrate measures the raw substrate: full QECC cycles
// on a distance-7 patch (609 qubits), the simulator workload behind every
// machine experiment.
func BenchmarkStabilizerSubstrate(b *testing.B) {
	lat := surface.NewPlanar(7)
	words := surface.CompileCycle(lat, surface.Steane, nil)
	tb := clifford.New(lat.NumQubits(), rand.New(rand.NewSource(1)))
	u := awg.New(tb, nil)
	u.MeasSink = func(int, int) {}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		for _, w := range words {
			u.ExecuteWord(w)
		}
	}
	b.ReportMetric(float64(lat.NumQubits()), "qubits")
}

// BenchmarkDecoderScaling sweeps defect-batch sizes across the two global
// matchers (exact DP is exponential, greedy quadratic) — the latency trade
// that picks the master's decoder at scale. Match takes the greedy fallback
// only past MaxExact defects, so greedy has its own, larger batch.
func BenchmarkDecoderScaling(b *testing.B) {
	lat := surface.NewPlanar(11)
	g := decoder.NewGlobalDecoder(lat)
	zs := lat.Qubits(surface.RoleAncillaZ)
	mk := func(k int) []decoder.Defect {
		var out []decoder.Defect
		for i := 0; i < k; i++ {
			q := zs[(i*13)%len(zs)]
			r, c := lat.Coord(q)
			out = append(out, decoder.Defect{Round: i % 4, Qubit: q, R: r, C: c})
		}
		return out
	}
	for _, k := range []int{4, 8, 12} {
		defects := mk(k)
		b.Run(fmt.Sprintf("exact-%d", k), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				g.Match(defects)
			}
		})
	}
	greedy := mk(24)
	if len(greedy) <= decoder.MaxExact {
		b.Fatalf("greedy case has %d defects, within the exact range %d", len(greedy), decoder.MaxExact)
	}
	b.Run("greedy-24", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			g.Match(greedy)
		}
	})
}

// BenchmarkNoCDelivery measures the mesh under contention: all packets to
// the far corner of a 4x4 mesh.
func BenchmarkNoCDelivery(b *testing.B) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		m := noc.NewMesh(4, 4)
		for p := 0; p < 32; p++ {
			if err := m.Inject(noc.Packet{Dst: 15}); err != nil {
				b.Fatal(err)
			}
		}
		if _, ok := m.Drain(500); !ok {
			b.Fatal("did not drain")
		}
	}
}

// BenchmarkPlacement times the interaction-graph placement pass on a dense
// random program.
func BenchmarkPlacement(b *testing.B) {
	prog := compiler.NewProgram(16)
	rng := rand.New(rand.NewSource(1))
	for i := 0; i < 2000; i++ {
		q := rng.Intn(16)
		prog.CNOT(q, (q+1+rng.Intn(15))%16)
	}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := place.Place(prog, 4, 4); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkAblationBufferCapacity sweeps the MCE instruction-buffer size
// under a flood of frame-level Paulis: tiny buffers throttle issue through
// the master's flow control, large ones let the network run ahead.
func BenchmarkAblationBufferCapacity(b *testing.B) {
	for _, capSlots := range []int{1, 4, 16} {
		b.Run(fmt.Sprintf("slots-%d", capSlots), func(b *testing.B) {
			var cycles int
			for i := 0; i < b.N; i++ {
				eng := mce.New(mce.Config{
					Design:         microcode.DesignUnitCell,
					Schedule:       surface.Steane,
					Layout:         compiler.NewLayout(3, 2),
					Seed:           1,
					BufferCapacity: capSlots,
				})
				mm := master.New(master.Config{PacketsPerCycle: 16}, []*mce.MCE{eng})
				mm.StepCycle()
				for j := 0; j < 64; j++ {
					if err := mm.Dispatch(0, isa.LogicalInstr{Op: isa.LX, Target: uint8(j % 2)}); err != nil {
						b.Fatal(err)
					}
				}
				d, ok := mm.Drain(500)
				if !ok {
					b.Fatal("did not drain")
				}
				cycles = d.Cycles
			}
			b.ReportMetric(float64(cycles), "cycles-to-drain")
		})
	}
}
