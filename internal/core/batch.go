package core

import (
	"fmt"
	"sync"

	"quest/internal/clifford"
	"quest/internal/decoder"
	"quest/internal/heatmap"
	"quest/internal/mc"
	"quest/internal/metrics"
	"quest/internal/noise"
	"quest/internal/surface"
	"quest/internal/tracing"
)

// This file holds the lane kernel both batched engines share — fault
// sampling by injector replay, as one scan over the stream's flattened noise
// sites, and bit-sliced Pauli-frame propagation over a compiled cycle
// stream — and the threshold sweep's trial engine on top of
// it: the windowed-decode memory experiment, structured so that per-trial
// setup is compiled once per cell and the per-trial fault state is
// bit-sliced across a 64-trial lane. The machine-level memory sweep's engine
// (memory.go) runs on the same kernel.
//
// The reference formulation (the scalar oracle in threshold_oracle_test.go)
// re-simulates the full stabilizer tableau through the AWG unit every trial.
// But after the first (discarded) clean extraction cycle projects the state,
// every subsequent ancilla measurement outcome is deterministic: Pauli faults
// flip outcomes without introducing randomness, the clean-syndrome reference
// is identical every trial, and the logical-Z readout of the zero-fault state
// is always +1. The trial outcome is therefore a pure function of the
// injector's fault stream: Fail iff the X-fault parity on the logical-Z
// support disagrees with the decoder frame's X-parity there. That lets the
// batched engine replace the tableau with Pauli-frame fault propagation
// through the precompiled extraction program — replaying the scalar
// injector's RNG draws site by site (noise.Replayer) so the fault pattern,
// defect stream, decode, ledger bytes and heat JSON stay byte-identical to
// the scalar oracle (pinned by TestThresholdBatchedMatchesScalar).

// laneStream is the kernel's input: a fixed sequence of compiled QECC
// cycles that every trial of a cell executes, as one tile's execution unit
// would fire it. The first `noisy` cycles draw from the trial's injector; the
// rest run clean. Cycles may share a program.
type laneStream struct {
	n      int
	cycles []*surface.ExtractionProgram
	noisy  int
	// off[c] numbers cycle c's first word in the stream's flat word index.
	off   []int
	words int
	// chans and sites are the noisy cycles' noise sites flattened in draw
	// order — cycle, word, then Fire order within the word — so a trial's
	// whole fault stream is one scan: chans[k] is site k's channel, sites[k]
	// where a fault it samples lands.
	chans []noise.Channel
	sites []laneSite
}

// laneSite is one flattened noise site: the qubit (the control of a CNOT),
// the CNOT's target, the stream word and cycle it fires in, and the
// preparation basis.
type laneSite struct {
	q, pair, word, cycle int32
	basisX               bool
}

func newLaneStream(cycles []*surface.ExtractionProgram, noisy int) laneStream {
	ls := laneStream{n: cycles[0].NumQubits, cycles: cycles, noisy: noisy, off: make([]int, len(cycles))}
	for c, prog := range cycles {
		ls.off[c] = ls.words
		ls.words += len(prog.Words)
	}
	count := 0
	for _, prog := range cycles[:noisy] {
		for w := range prog.Words {
			count += len(prog.Words[w].Sites)
		}
	}
	ls.chans = make([]noise.Channel, 0, count)
	ls.sites = make([]laneSite, 0, count)
	for c, prog := range cycles[:noisy] {
		for w := range prog.Words {
			for _, site := range prog.Words[w].Sites {
				ls.chans = append(ls.chans, site.Kind)
				ls.sites = append(ls.sites, laneSite{
					q: int32(site.Qubit), pair: int32(site.Pair),
					word: int32(ls.off[c] + w), cycle: int32(c), basisX: site.BasisX,
				})
			}
		}
	}
	return ls
}

// laneScratch is the kernel's pooled lane state: dense fault lanes indexed
// by (stream word, qubit), the live Pauli-frame lanes and the
// measurement-flip lanes the kernel outputs. One scratch serves one lane at
// a time.
type laneScratch struct {
	faultX, faultZ []uint64 // word*n + q: faults injected in that stream word
	measFlip       []uint64 // cycle*n + q: classical measurement flips
	dirty          []bool   // stream word: any fault lane set there
	fx, fz         []uint64 // live fault frame, one lane per qubit
	// flips[(c+1)*n+q] is the flip lane of qubit q's measurement in cycle
	// c, relative to the fault-free run: the outcome XOR the fault-free
	// outcome. Row 0 stays zero, the reference of the first cycle. Entries
	// of qubits a cycle does not measure are stale.
	flips []uint64
	rep   *noise.Replayer
}

func newLaneScratch(ls *laneStream) laneScratch {
	n, cycles := ls.n, len(ls.cycles)
	return laneScratch{
		faultX:   make([]uint64, ls.words*n),
		faultZ:   make([]uint64, ls.words*n),
		measFlip: make([]uint64, cycles*n),
		dirty:    make([]bool, ls.words),
		fx:       make([]uint64, n),
		fz:       make([]uint64, n),
		flips:    make([]uint64, (cycles+1)*n),
		rep:      noise.NewReplayer(noise.Model{}, 1),
	}
}

// replayer returns the scratch's replayer bound to model, or nil for a
// noiseless tile (a nil model), whose trials draw nothing.
func (s *laneScratch) replayer(model *noise.Model) *noise.Replayer {
	if model == nil {
		return nil
	}
	s.rep.Bind(*model)
	return s.rep
}

// addFault XORs a sampled Pauli into trial bit's fault lanes at (base, q).
func (s *laneScratch) addFault(base, q int, p clifford.Pauli, bit uint64) {
	if p == clifford.PauliX || p == clifford.PauliY {
		s.faultX[base+q] ^= bit
	}
	if p == clifford.PauliZ || p == clifford.PauliY {
		s.faultZ[base+q] ^= bit
	}
}

// hit records trial bit's fault at flattened site k, which rep's scan
// reported fired, drawing its Paulis.
func (s *laneScratch) hit(ls *laneStream, rep *noise.Replayer, k int, bit uint64) {
	site := &ls.sites[k]
	n := ls.n
	if ch := ls.chans[k]; ch == noise.ChanMeas {
		s.measFlip[int(site.cycle)*n+int(site.q)] ^= bit
	} else {
		pa, pb := rep.Fault(ch, site.basisX)
		base := int(site.word) * n
		s.addFault(base, int(site.q), pa, bit)
		if pb != clifford.PauliI {
			s.addFault(base, int(site.pair), pb, bit)
		}
		s.dirty[site.word] = true
	}
}

// run is the lane kernel both engines call. It samples trial i's fault
// stream by exact replay of the injector the scalar engine seeds with
// injSeed(seeds[i]), drawing from rep (bound to the cell's model), then
// propagates all lanes through the stream at once, leaving the measurement
// flip lanes in s.flips and the final fault frame in s.fx/s.fz. A nil rep
// is a noiseless tile — no injector, so no draws.
//
// The replay is inherently sequential per trial (each draw's position
// depends on the previous draws), but it touches no tableau: rep.Next scans
// the flattened sites at one integer compare each and stops only at the
// few that fire, and a fault is a single XOR into the trial's bit lane. The
// propagation is bit-sliced: within a word the phase order (measure, prep,
// propagate, inject) is equivalent to the AWG unit's interleaved per-qubit
// execution because each qubit carries exactly one µop per word — see
// ProgramWord.
func (s *laneScratch) run(ls *laneStream, rep *noise.Replayer, seeds []uint64, injSeed func(uint64) int64) {
	n := ls.n
	for w, d := range s.dirty {
		if d {
			clear(s.faultX[w*n : (w+1)*n])
			clear(s.faultZ[w*n : (w+1)*n])
			s.dirty[w] = false
		}
	}
	clear(s.measFlip)
	if rep != nil {
		for i, seed := range seeds {
			rep.Reseed(injSeed(seed))
			bit := uint64(1) << uint(i)
			for k := rep.Next(ls.chans, 0); k < len(ls.chans); k = rep.Next(ls.chans, k+1) {
				s.hit(ls, rep, k, bit)
			}
		}
	}

	clear(s.fx)
	clear(s.fz)
	for c, prog := range ls.cycles {
		row := s.flips[(c+1)*n : (c+2)*n]
		mrow := s.measFlip[c*n : (c+1)*n]
		for w := range prog.Words {
			word := &prog.Words[w]
			for _, m := range word.Meas {
				flip := s.fx[m.Qubit]
				if m.IsX {
					flip = s.fz[m.Qubit]
				}
				row[m.Qubit] = flip ^ mrow[m.Qubit]
			}
			for _, pr := range word.Preps {
				s.fx[pr.Qubit] = 0
				s.fz[pr.Qubit] = 0
			}
			for _, g := range word.CNOTs {
				s.fx[g.Target] ^= s.fx[g.Control]
				s.fz[g.Control] ^= s.fz[g.Target]
			}
			if sw := ls.off[c] + w; s.dirty[sw] {
				base := sw * n
				for q := 0; q < n; q++ {
					s.fx[q] ^= s.faultX[base+q]
					s.fz[q] ^= s.faultZ[base+q]
				}
			}
		}
	}
}

// thresholdProgram is the once-per-distance precompute of a threshold cell:
// the lattice, the cycle stream, the logical-Z support and the ancilla scan
// order. It is independent of the physical error rate, so cells of one
// distance share it across the whole sweep.
type thresholdProgram struct {
	lat    surface.Lattice
	d      int
	stream laneStream
	logZ   []int
	anc    []batchAncilla
	pool   sync.Pool // *batchScratch
}

// batchAncilla caches an ancilla's coordinates and type for defect emission
// in qubit-index order — the order SyndromeHistory.Absorb scans, which the
// ledger/heat byte-equality with the scalar engine depends on.
type batchAncilla struct {
	q, r, c int
	isX     bool
}

// thresholdPrograms caches compiled cells by distance.
var thresholdPrograms sync.Map // int -> *thresholdProgram

func thresholdProgramFor(d int) *thresholdProgram {
	if v, ok := thresholdPrograms.Load(d); ok {
		return v.(*thresholdProgram)
	}
	lat := surface.NewPlanar(d)
	prog := surface.BuildProgram(lat, surface.CompileCycle(lat, surface.Steane, nil))
	// The scalar trial's injector draws only during its d noisy cycles: the
	// clean reference cycle before them draws nothing (and is the all-zero
	// flip reference), the final clean cycle after them flushes late data
	// faults into the syndrome.
	cycles := make([]*surface.ExtractionProgram, d+1)
	for c := range cycles {
		cycles[c] = prog
	}
	tp := &thresholdProgram{
		lat:    lat,
		d:      d,
		stream: newLaneStream(cycles, d),
		logZ:   lat.LogicalZ(),
	}
	for q := 0; q < lat.NumQubits(); q++ {
		role := lat.RoleOf(q)
		if role == surface.RoleData {
			continue
		}
		r, c := lat.Coord(q)
		tp.anc = append(tp.anc, batchAncilla{q: q, r: r, c: c, isX: role == surface.RoleAncillaX})
	}
	tp.pool.New = func() any { return newBatchScratch(tp) }
	v, _ := thresholdPrograms.LoadOrStore(d, tp)
	return v.(*thresholdProgram)
}

// batchScratch is the pooled threshold lane state: the kernel's lanes and
// the per-trial decoder scratch (window + matcher + frame) that the scalar
// engine reallocated every trial.
type batchScratch struct {
	lanes   laneScratch
	defects []decoder.Defect
	frame   *decoder.PauliFrame
	win     *decoder.WindowDecoder
}

func newBatchScratch(tp *thresholdProgram) *batchScratch {
	return &batchScratch{
		lanes: newLaneScratch(&tp.stream),
		frame: decoder.NewPauliFrame(),
		win:   decoder.NewWindowDecoder(decoder.NewGlobalDecoder(tp.lat), tp.d),
	}
}

// runLane executes one lane of trials: the kernel samples and propagates
// every trial's faults, then each trial decodes against the pooled window
// decoder. out[i] receives trial seeds[i]'s outcome.
func (tp *thresholdProgram) runLane(p float64, seeds []uint64, ctx mc.BatchCtx, out []mc.Outcome) {
	s := tp.pool.Get().(*batchScratch)
	defer tp.pool.Put(s)
	n := tp.stream.n
	d := tp.d
	model := noise.Uniform(p)
	s.lanes.run(&tp.stream, s.lanes.replayer(&model), seeds, func(seed uint64) int64 { return int64(mc.Derive(seed, 1)) })
	flips := s.lanes.flips

	// xp lane: X-fault parity over the logical-Z support at readout time.
	var xp uint64
	for _, q := range tp.logZ {
		xp ^= s.lanes.fx[q]
	}

	// Per-trial windowed decode over the defect lanes, driving the same
	// WindowDecoder the scalar engine uses — Absorb per round, Flush at the
	// end — so matchings, corrections, instrument counts, tracer spans and
	// heat records replicate the scalar path exactly. Round r is stream
	// cycle r-1: rounds 1..d are the noisy cycles, round d+1 the clean one.
	var instr *decoder.Instr
	if ctx.Shard != nil {
		instr = decoder.NewInstr(ctx.Shard)
	}
	for i := range seeds {
		bit := uint64(1) << uint(i)
		var heat *heatmap.Collector
		if ctx.Heat != nil {
			heat = ctx.Heat[i]
		}
		s.win.Reset()
		s.frame.Reset()
		s.win.SetInstr(instr) // nil restores the default, like the scalar unwired path
		s.win.SetTracer(ctx.Trace, 0)
		s.win.SetHeat(heat)
		for r := 1; r <= d+1; r++ {
			defs := s.defects[:0]
			row, prev := r*n, (r-1)*n
			for _, a := range tp.anc {
				if (flips[row+a.q]^flips[prev+a.q])&bit != 0 {
					defs = append(defs, decoder.Defect{Round: r, Qubit: a.q, R: a.r, C: a.c, IsX: a.isX})
					if heat != nil {
						heat.Defect(a.r, a.c)
					}
				}
			}
			s.win.Absorb(defs, s.frame) // copies; defs backing store is reused
			s.defects = defs[:0]
		}
		s.win.Flush(s.frame)
		fail := (xp>>uint(i))&1 != uint64(s.frame.ParityOn(tp.logZ, true))
		out[i] = mc.Outcome{Fail: fail}
	}
}

// logicalFailRateBatched runs one threshold cell: `trials` independent noisy
// memory experiments at distance d and physical rate p, decoded with a
// d-round window. The noise model is noise.Uniform(p) — every location
// including preparation fails at p, the paper's single-rate convention.
// Resume replays completed cells verbatim, and a partially-recorded cell's
// leading trials reach RunBatch as Prior, so only its unrecorded trials
// execute. ran=false means the cell belongs to another shard; err reports a
// resume/shard mismatch (trial-level failures stay inside the Result).
func logicalFailRateBatched(reg *metrics.Registry, tr *tracing.Tracer, d int, p float64,
	trials, workers int, obs SweepObs) (mc.Result, bool, error) {
	cell := mc.Seed(ExperimentSeed, mc.F64(p), uint64(d))
	name := fmt.Sprintf("threshold p=%g d=%d", p, d)
	plan, err := obs.beginCell(name, cell, trials)
	if err != nil {
		return mc.Result{}, true, err
	}
	if plan.skip {
		return mc.Result{}, false, nil
	}
	if plan.replayed != nil {
		return *plan.replayed, true, nil
	}
	tp := thresholdProgramFor(d)
	heat := obs.collector(tp.lat.Rows, tp.lat.Cols)
	mobs := obs.observers(name, heat)
	mobs.Prior = plan.prior
	res := mc.RunBatch(trials, workers, cell, reg, tr, mobs,
		func(_ int, seeds []uint64, ctx mc.BatchCtx, out []mc.Outcome) {
			tp.runLane(p, seeds, ctx, out)
		})
	if err := obs.closeCell(name, map[string]float64{"p": p, "d": float64(d)}, cell, trials, res); err != nil {
		return res, true, err
	}
	return res, true, nil
}
