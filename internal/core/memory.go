package core

import (
	"slices"
	"sync"

	"quest/internal/awg"
	"quest/internal/bwprofile"
	"quest/internal/clifford"
	"quest/internal/compiler"
	"quest/internal/decoder"
	"quest/internal/isa"
	"quest/internal/master"
	"quest/internal/mc"
	"quest/internal/mce"
	"quest/internal/microcode"
	"quest/internal/noise"
	"quest/internal/surface"
)

// This file is the memory sweep's trial engine. A memory trial is one
// machine — DefaultMachineConfig with one patch per tile and a
// distance-deep decode window — that settles, prepares its patch, holds it
// for a number of QECC rounds, measures it and drains. The reference
// formulation (the pooled-machine oracle in memory_oracle_test.go) steps
// that machine cycle by cycle: the master dispatches, the MCE replays its
// microcode onto a stabilizer tableau, decodes locally and escalates, the
// master decodes globally.
//
// But the µop stream the MCE replays is the same in every trial: the
// dispatch schedule is fixed, and mask changes follow the dispatches alone.
// The stream is compiled once per rounds value, from the same calls the MCE
// makes (microcode replay under the mask, the transverse overlay, awg's Word
// compile), and the lane kernel (batch.go) propagates 64 trials' faults
// through it as bit lanes. The trial outcome depends only on the tile injector's fault
// stream: the tableau's measurement randomness only sets the first value
// each syndrome history takes as its reference after a Forget, which no
// defect sees, and the readout is a parity over the logical-Z support that
// the fault-free state fixes at 0. What remains per trial is the decode, run
// on the machine's own decoder objects in the machine's order, so defects,
// matchings, frame corrections, heat records, bus traffic and counters
// replicate the scalar machine exactly (TestMachineMemoryBatchedMatchesScalar).
// A trial that drew no fault skips it: it passes, and its rounds reach the
// window decoder empty (see laneScratch.run).

// memoryProgram is the once-per-rounds precompute of a memory cell: tile
// 0's cycle stream and what the decode replay needs to know about each
// cycle. It is independent of the physical error rate, so the cells of a
// sweep share it.
type memoryProgram struct {
	lay    compiler.Layout
	window int
	stream laneStream
	// prep and meas are the cycles that issue LPrep0 and LMeasZ on patch 0;
	// measAt is the cycle LMeasZ is dispatched in.
	prep, meas, measAt int
	// synd[c] lists the ancillas cycle c measures, the syndrome the MCE
	// routes to its history, and syndMask[c] marks them, 64 a word.
	synd     [][]int
	syndMask [][]uint64
	// anc, patch and logZ are patch 0's ancillas (forgotten at prep and
	// measure), qubits (cleared from the frame at prep) and logical-Z
	// support (read out at measure).
	anc, patch, logZ []int
	// uops is the µops one trial issues: every word latches every qubit.
	uops  uint64
	local *decoder.LocalDecoder
	pool  sync.Pool // *memoryScratch
}

// memoryPrograms caches compiled memory cells by rounds.
var memoryPrograms sync.Map // int -> *memoryProgram

func memoryProgramFor(rounds int) *memoryProgram {
	if v, ok := memoryPrograms.Load(rounds); ok {
		return v.(*memoryProgram)
	}
	// The machine every trial runs, as the oracle configures it.
	cfg := DefaultMachineConfig()
	cfg.PatchesPerTile = 1
	cfg.DecodeWindow = cfg.Distance
	lay := compiler.NewLayout(cfg.Distance, cfg.PatchesPerTile)
	lat := lay.Lat
	store := microcode.NewStore(cfg.Design, cfg.Schedule, lat)
	rest := mce.RestMask(lay)
	// A transverse instruction masks its patch for the cycle it issues in,
	// and its µops overlay the first word of that cycle's replay.
	held := rest.Clone()
	r0, c0, r1, c1 := lay.PatchRegion(0)
	held.SetRegion(r0, c0, r1, c1, true)
	transverse := func(op isa.LogicalOpcode) []isa.MicroOp {
		ops, err := compiler.ExpandTransverse(lay, isa.LogicalInstr{Op: op, Target: 0})
		if err != nil {
			panic(err)
		}
		return ops
	}
	var uops uint64
	compile := func(mask *surface.Mask, overlay []isa.MicroOp, times int) []*awg.Word {
		// The replay's words are shared with the store: overlay a copy.
		words := slices.Clone(store.ReplayCycle(mask))
		words[0] = words[0].Clone()
		for _, o := range overlay {
			words[0].Set(o.Qubit, o.Op)
		}
		for _, w := range words {
			uops += uint64(times * w.Len())
		}
		return compileCycle(words)
	}
	// The trial's cycles: a settle cycle, then the rounds the trial steps
	// after dispatching LPrep0 — the first issues it — then LMeasZ, issued
	// in the cycle that delivers it. With zero rounds LPrep0 and LMeasZ
	// arrive together, and LMeasZ waits one cycle behind LPrep0 on the
	// patch: the same three cycles as one round.
	plain := max(rounds-1, 0)
	settle := compile(rest, nil, 1+plain)
	cycles := [][]*awg.Word{settle, compile(held, transverse(isa.LPrep0), 1)}
	for c := 0; c < plain; c++ {
		cycles = append(cycles, settle)
	}
	cycles = append(cycles, compile(held, transverse(isa.LMeasZ), 1))
	mp := &memoryProgram{
		lay:    lay,
		window: cfg.DecodeWindow,
		stream: newLaneStream(lat.NumQubits(), cycles, len(cycles)),
		prep:   1,
		meas:   len(cycles) - 1,
		measAt: 1 + rounds,
		patch:  lay.PatchQubits(0),
		logZ:   lay.PatchLogicalZ(0),
		uops:   uops,
		local:  decoder.NewLocalDecoder(lat),
	}
	for _, q := range mp.patch {
		if lat.RoleOf(q) != surface.RoleData {
			mp.anc = append(mp.anc, q)
		}
	}
	for _, cycle := range cycles {
		var synd []int
		mask := make([]uint64, (lat.NumQubits()+63)/64)
		for _, cw := range cycle {
			for _, g := range cw.Acts() {
				measures := g.Op == clifford.OpMeasureZ || g.Op == clifford.OpMeasureX
				if measures && lat.RoleOf(g.A) != surface.RoleData {
					synd = append(synd, g.A)
					mask[g.A>>6] |= 1 << (g.A & 63)
				}
			}
		}
		mp.synd = append(mp.synd, synd)
		mp.syndMask = append(mp.syndMask, mask)
	}
	mp.pool.New = func() any { return newMemoryScratch(mp) }
	v, _ := memoryPrograms.LoadOrStore(rounds, mp)
	return v.(*memoryProgram)
}

// memoryScratch is the pooled memory lane state: the kernel's lanes and one
// machine's worth of decode state — the MCE's syndrome history and Pauli
// frame, the master's window decoder over tile 0's global matcher.
type memoryScratch struct {
	lanes laneScratch
	// outcomes is the cycle's syndrome round, 64 qubits a word: the bit of
	// each ancilla the cycle measures (syndMask), stale elsewhere.
	outcomes []uint64
	hist     *decoder.SyndromeHistory
	frame    *decoder.PauliFrame
	win      *decoder.WindowDecoder
	// resolved and residual are the local decode's output scratch, as the
	// MCE keeps them.
	resolved []decoder.Correction
	residual []decoder.Defect
}

func newMemoryScratch(mp *memoryProgram) *memoryScratch {
	return &memoryScratch{
		lanes:    newLaneScratch(&mp.stream),
		outcomes: make([]uint64, (mp.stream.n+63)/64),
		hist:     decoder.NewHistory(mp.lay.Lat),
		frame:    decoder.NewPauliFrame(),
		win:      decoder.NewWindowDecoder(decoder.NewGlobalDecoder(mp.lay.Lat), mp.window),
	}
}

// runLane executes one lane of memory trials at physical rate p. out[i]
// receives trial seeds[i]'s outcome.
func (mp *memoryProgram) runLane(p float64, seeds []uint64, ctx mc.BatchCtx, out []mc.Outcome) {
	s := mp.pool.Get().(*memoryScratch)
	defer mp.pool.Put(s)
	// A noiseless machine has no injector; a noisy one seeds tile 0's
	// injector with the trial seed + 1, as Machine.Reset does.
	var model *noise.Model
	if p > 0 {
		m := noise.Uniform(p)
		model = &m
	}
	s.lanes.run(&mp.stream, s.lanes.replayer(model), seeds, func(seed uint64) int64 { return int64(seed) + 1 })

	var instr *decoder.Instr
	if ctx.Shard != nil {
		instr = decoder.NewInstr(ctx.Shard)
	}
	n := mp.stream.n
	cycles := len(mp.stream.cycles)
	// Every trial steps each cycle of the stream once and dispatches,
	// enqueues and retires two instructions, LPrep0 and LMeasZ.
	trials := uint64(len(seeds))
	const instrs = 2
	tile := mce.Tally{
		Cycles: trials * uint64(cycles), MicroOps: trials * mp.uops,
		LogicalEnqueued: instrs * trials, LogicalRetired: instrs * trials,
	}
	ctl := master.Tally{Cycles: trials * uint64(cycles), Dispatched: instrs * trials}
	s.win.SetInstr(instr) // nil leaves the window unobserved, like an unobserved machine's
	s.win.SetTracer(ctx.Trace, 0)
	s.win.SetHeat(ctx.Heat)
	s.hist.SetHeat(ctx.Heat)
	for i := range seeds {
		if ctx.BW != nil {
			ctx.BW.Observe(1, bwprofile.BusLogical, bwprofile.ClassOf(isa.LPrep0), 1, isa.LogicalInstrBytes)
			ctx.BW.Observe(mp.measAt, bwprofile.BusLogical, bwprofile.ClassOf(isa.LMeasZ), 1, isa.LogicalInstrBytes)
		}
		s.win.Reset()
		if s.lanes.hits>>uint(i)&1 == 0 {
			// No fault: one empty round per cycle, and the trial passes.
			for c := 0; c < cycles; c++ {
				s.win.Absorb(nil, s.frame)
			}
			out[i] = mc.Outcome{}
			continue
		}
		s.hist.Reset()
		s.frame.Reset()
		got := -1
		for c := 0; c < cycles; c++ {
			// Issue: a fresh or measured patch owes nothing to past
			// syndromes, and a fresh one nothing to past corrections.
			switch c {
			case mp.prep:
				s.hist.Forget(mp.anc)
				s.frame.Clear(mp.patch)
			case mp.meas:
				s.hist.Forget(mp.anc)
			}
			row := s.lanes.flips[(c+1)*n : (c+2)*n]
			// The readout completes before the cycle's own decode: the
			// parity of the data bits' flips over the logical-Z support
			// (the fault-free parity is 0), corrected by the frame.
			if c == mp.meas {
				parity := 0
				for _, q := range mp.logZ {
					parity ^= int(row[q] >> uint(i) & 1)
				}
				got = parity ^ s.frame.ParityOn(mp.logZ, true)
			}
			for _, q := range mp.synd[c] {
				w, b := q>>6, uint(q)&63
				s.outcomes[w] = s.outcomes[w]&^(1<<b) | (row[q]>>uint(i)&1)<<b
			}
			defects := s.hist.AbsorbRound(mp.syndMask[c], s.outcomes)
			s.resolved, s.residual = mp.local.Decode(defects, s.resolved[:0], s.residual[:0])
			for _, corr := range s.resolved {
				s.frame.Apply(corr)
			}
			tile.DefectsLocal += uint64(len(s.resolved))
			if k := uint64(len(s.residual)); k > 0 {
				tile.DefectsEscalated += k
				ctl.Escalated += k
				if ctx.BW != nil {
					ctx.BW.Observe(c, bwprofile.BusSyndrome, bwprofile.ClassSyndrome, k, k)
				}
			}
			ctl.GlobalDecodes += uint64(s.win.Absorb(s.residual, s.frame))
		}
		// The drain's closing flush, as the master's FlushDecodeWindows.
		ctl.GlobalDecodes += uint64(s.win.Flush(s.frame))
		out[i] = mc.Outcome{Fail: got != 0}
	}
	tile.Record(ctx.Shard)
	ctl.Record(ctx.Shard)
}
