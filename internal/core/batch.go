package core

import (
	"fmt"
	"sync"

	"quest/internal/awg"
	"quest/internal/clifford"
	"quest/internal/decoder"
	"quest/internal/isa"
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
// through the cycle's compiled words (awg.Word) — replaying the scalar
// injector's RNG draws site by site (noise.Replayer) so the fault pattern,
// defect stream, decode, ledger bytes and heat JSON stay byte-identical to
// the scalar oracle (pinned by TestThresholdBatchedMatchesScalar).

// laneStream is the kernel's input: a fixed sequence of compiled QECC
// cycles (compileCycle) that every trial of a cell executes, as one tile's
// execution unit would fire it. The first cycles, as many as newLaneStream's
// noisy argument, draw from the trial's injector; the rest run clean.
// Cycles may share their words.
type laneStream struct {
	n      int
	cycles [][]*awg.Word
	// off[c] numbers cycle c's first word in the stream's flat word index.
	off   []int
	words int
	// chans and sites are the noisy cycles' noise sites flattened in draw
	// order — cycle, word, then the execution unit's order within the
	// word — so a trial's whole fault stream is one scan: chans[k] is site
	// k's channel, sites[k] where a fault it samples lands.
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

// newLaneStream lays out a stream of n-qubit cycles.
func newLaneStream(n int, cycles [][]*awg.Word, noisy int) laneStream {
	ls := laneStream{n: n, cycles: cycles, off: make([]int, len(cycles))}
	for c, cycle := range cycles {
		ls.off[c] = ls.words
		ls.words += len(cycle)
	}
	count := 0
	for _, cycle := range cycles[:noisy] {
		for _, cw := range cycle {
			chans, _ := cw.Sites()
			count += len(chans)
		}
	}
	ls.chans = make([]noise.Channel, 0, count)
	ls.sites = make([]laneSite, 0, count)
	for c, cycle := range cycles[:noisy] {
		for w, cw := range cycle {
			chans, sites := cw.Sites()
			ls.chans = append(ls.chans, chans...)
			for _, site := range sites {
				ls.sites = append(ls.sites, laneSite{
					q: int32(site.Qubit), pair: int32(site.Pair),
					word: int32(ls.off[c] + w), cycle: int32(c), basisX: site.BasisX,
				})
			}
		}
	}
	return ls
}

// compileCycle compiles a QECC cycle's words for the lane kernel. Its Pauli
// frame propagates preparations, measurements, CNOTs and idles only, so
// compileCycle panics, naming the µop, on a word holding any other: run as
// an identity, it would desynchronize the fault replay. A T acts on
// nothing; only its one-qubit gate site shows it.
func compileCycle(words []isa.VLIW) []*awg.Word {
	cycle := make([]*awg.Word, len(words))
	for s, w := range words {
		cw := awg.NewWord(w.Len())
		cw.Compile(w)
		refuse := func(q int) {
			panic(fmt.Sprintf("core: µop %s at qubit %d of word %d has no Pauli-frame propagation", w.Ops[q], q, s))
		}
		for _, g := range cw.Acts() {
			switch g.Op {
			case clifford.OpPrep0, clifford.OpPrep1, clifford.OpPrepPlus,
				clifford.OpMeasureZ, clifford.OpMeasureX, clifford.OpCNOT:
			default:
				refuse(g.A)
			}
		}
		chans, sites := cw.Sites()
		for i, ch := range chans {
			if ch == noise.ChanGate1 {
				refuse(sites[i].Qubit)
			}
		}
		cycle[s] = cw
	}
	return cycle
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
	// hits has bit i set when trial i's scan hit a site: a trial whose
	// bit is clear drew no fault, so every flip lane is 0 at its bit.
	hits uint64
	rep  *noise.Replayer
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

// hit records trial bit's fault at flattened site k: a measurement site's
// classical flip, or Paulis pa on the site's qubit and pb on a CNOT's
// target.
func (s *laneScratch) hit(ls *laneStream, k int, pa, pb clifford.Pauli, bit uint64) {
	s.hits |= bit
	site := &ls.sites[k]
	n := ls.n
	if ls.chans[k] == noise.ChanMeas {
		s.measFlip[int(site.cycle)*n+int(site.q)] ^= bit
		return
	}
	base := int(site.word) * n
	s.addFault(base, int(site.q), pa, bit)
	if pb != clifford.PauliI {
		s.addFault(base, int(site.pair), pb, bit)
	}
	s.dirty[site.word] = true
}

// run is the lane kernel both engines call. It samples trial i's fault
// stream by exact replay of the injector the scalar engine seeds with
// injSeed(seeds[i]), drawing from rep (bound to the cell's model), then
// propagates all lanes through the stream at once, leaving the measurement
// flip lanes in s.flips, the final fault frame in s.fx/s.fz and the trials
// that drew a fault in s.hits. A nil rep is a noiseless tile — no
// injector, so no draws. The two halves are sample and propagate; a
// caller that records chosen faults (hit) between them propagates those.
//
// Flip lanes are relative to the fault-free run, so a trial whose hits bit
// is clear has a known outcome: no round yields a defect, the decoders see
// nothing and the readout parity is 0. The engines run the decode only for
// the trials that drew a fault; the others just absorb their rounds as
// empty rounds into the window decoder, which records exactly what their
// full decode would (one decoder.window.rounds per round; an empty flush
// matches nothing and writes no span and no heat record).
//
// The replay is inherently sequential per trial (each draw's position
// depends on the previous draws), but it touches no tableau: rep.Next scans
// the flattened sites at one integer compare each and stops only at the
// few that fire, and a fault is a single XOR into the trial's bit lane. The
// propagation is bit-sliced, one word's acts at a time.
func (s *laneScratch) run(ls *laneStream, rep *noise.Replayer, seeds []uint64, injSeed func(uint64) int64) {
	s.sample(ls, rep, seeds, injSeed)
	s.propagate(ls)
}

// sample clears the fault lanes and the hits, then records trial i's
// faults, replayed from rep, in lane i.
func (s *laneScratch) sample(ls *laneStream, rep *noise.Replayer, seeds []uint64, injSeed func(uint64) int64) {
	n := ls.n
	for w, d := range s.dirty {
		if d {
			clear(s.faultX[w*n : (w+1)*n])
			clear(s.faultZ[w*n : (w+1)*n])
			s.dirty[w] = false
		}
	}
	clear(s.measFlip)
	s.hits = 0
	if rep != nil {
		for i, seed := range seeds {
			rep.Reseed(injSeed(seed))
			bit := uint64(1) << uint(i)
			for k := rep.Next(ls.chans, 0); k < len(ls.chans); k = rep.Next(ls.chans, k+1) {
				var pa, pb clifford.Pauli
				if ch := ls.chans[k]; ch != noise.ChanMeas {
					pa, pb = rep.Fault(ch, ls.sites[k].basisX)
				}
				s.hit(ls, k, pa, pb, bit)
			}
		}
	}
}

// propagate runs the fault lanes through the stream from an empty frame.
func (s *laneScratch) propagate(ls *laneStream) {
	n := ls.n
	fx, fz := s.fx, s.fz
	clear(fx)
	clear(fz)
	for c, cycle := range ls.cycles {
		row := s.flips[(c+1)*n : (c+2)*n]
		mrow := s.measFlip[c*n : (c+1)*n]
		for w, cw := range cycle {
			// Each qubit carries one µop per word, so no act touches a
			// qubit another act of the word reads or writes: running the
			// acts in qubit order, then landing the word's faults, is the
			// per-qubit execution the execution unit fires.
			for _, g := range cw.Acts() {
				switch g.Op {
				case clifford.OpMeasureZ:
					row[g.A] = fx[g.A] ^ mrow[g.A]
				case clifford.OpMeasureX:
					row[g.A] = fz[g.A] ^ mrow[g.A]
				case clifford.OpCNOT:
					fx[g.B] ^= fx[g.A]
					fz[g.A] ^= fz[g.B]
				default: // a preparation; compileCycle refuses the rest
					fx[g.A], fz[g.A] = 0, 0
				}
			}
			if sw := ls.off[c] + w; s.dirty[sw] {
				base := sw * n
				for q := 0; q < n; q++ {
					fx[q] ^= s.faultX[base+q]
					fz[q] ^= s.faultZ[base+q]
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
	cycle := compileCycle(surface.CompileCycle(lat, surface.Steane, nil))
	// The scalar trial's injector draws only during its d noisy cycles: the
	// clean reference cycle before them draws nothing (and is the all-zero
	// flip reference), the final clean cycle after them flushes late data
	// faults into the syndrome.
	cycles := make([][]*awg.Word, d+1)
	for c := range cycles {
		cycles[c] = cycle
	}
	tp := &thresholdProgram{
		lat:    lat,
		d:      d,
		stream: newLaneStream(lat.NumQubits(), cycles, d),
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
// every trial's faults, then each trial that drew a fault decodes against
// the pooled window decoder. out[i] receives trial seeds[i]'s outcome.
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
	s.win.SetInstr(instr) // nil leaves the window unobserved, like an unobserved scalar trial's
	s.win.SetTracer(ctx.Trace, 0)
	s.win.SetHeat(ctx.Heat)
	for i := range seeds {
		bit := uint64(1) << uint(i)
		s.win.Reset()
		if s.lanes.hits&bit == 0 {
			// No fault: d+1 empty rounds, and the trial passes.
			for r := 1; r <= d+1; r++ {
				s.win.Absorb(nil, s.frame)
			}
			out[i] = mc.Outcome{}
			continue
		}
		s.frame.Reset()
		for r := 1; r <= d+1; r++ {
			defs := s.defects[:0]
			row, prev := r*n, (r-1)*n
			for _, a := range tp.anc {
				if (flips[row+a.q]^flips[prev+a.q])&bit != 0 {
					defs = append(defs, decoder.Defect{Round: r, Qubit: a.q, R: a.r, C: a.c, IsX: a.isX})
					if ctx.Heat != nil {
						ctx.Heat.Defect(a.r, a.c)
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
// The error reports a failed ledger write; trial-level failures stay inside
// the Result.
func logicalFailRateBatched(reg *metrics.Registry, tr *tracing.Tracer, d int, p float64,
	trials, workers int, obs SweepObs) (mc.Result, error) {
	cell := mc.Seed(ExperimentSeed, mc.F64(p), uint64(d))
	name := fmt.Sprintf("threshold p=%g d=%d", p, d)
	tp := thresholdProgramFor(d)
	heat := obs.collector(tp.lat.Rows, tp.lat.Cols)
	res := mc.RunBatch(trials, workers, cell, reg, tr, obs.observers(name, heat),
		func(_ int, seeds []uint64, ctx mc.BatchCtx, out []mc.Outcome) {
			tp.runLane(p, seeds, ctx, out)
		})
	return res, obs.closeCell(name, map[string]float64{"p": p, "d": float64(d)}, cell, trials, res)
}
