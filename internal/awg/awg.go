// Package awg models the quantum execution unit of the paper's §2.3: the
// primeline multiplexing architecture of Hornibrook et al., in which a small
// set of arbitrary waveform generators (AWGs) continuously drive an analog
// prime-line bus, and a matrix of microwave switches — one per qubit —
// selects which waveform reaches which qubit. A physical instruction is
// nothing more than the select bits latched onto the switches; when the
// master clock fires, every latched switch passes its waveform and the whole
// tile executes one lock-step sub-cycle.
//
// The model is behavioural: latching fills a per-qubit select register (in
// any order, since order does not matter — the property the FIFO microcode
// optimization rests on), and Fire applies the selected gates to the
// stabilizer substrate, injecting noise at each location. The unit also
// counts latch and fire events so microarchitecture experiments can audit
// that every qubit is serviced every sub-cycle.
//
// A word executes in compiled form (Word): the operations that act, each
// naming the qubits it acts on, and the word's noise sites, the way
// single-operation-multiple-qubit encodings name a gate once rather than a
// slot per qubit. Compile belongs to Word, and it is the module's one
// translation of a VLIW word into acting gates and draw-ordered noise
// sites: ExecuteWord and Fire compile into the unit's scratch word, a caller
// that replays the same word compiles it once and fires it with FireWord,
// and the sweeps' Pauli-frame lane kernel reads a compiled word's Acts and
// Sites.
//
// A caller that fires the same words again from the same X/Z planes can fire
// them as sign updates (see package clifford). LoadCycle lays a sequence of
// compiled words out as a Cycle: every word's noise channels in one list,
// word after word, and each word's measured qubits as a mask. RecordCycle fires
// the cycle word by word, as FireWord does, and compiles each word with the
// constants of its sign updates into a Recording. ReplayCycle fires it again
// from a recording in one call: each word is a few masked operations on the
// packed signs, one injector scan draws the whole cycle's noise, each hit
// lands after its own word's gates, and the outcomes stay in the cycle as
// one bitset per measuring word for the caller to read (Outcomes) instead
// of going to MeasSink. It draws exactly what firing the words would.
package awg

import (
	"fmt"
	"math/bits"
	"slices"

	"quest/internal/clifford"
	"quest/internal/isa"
	"quest/internal/noise"
)

// Waveform identifies one of the analog control pulses an AWG produces. Each
// opcode maps to a waveform; the switch matrix routes it.
type Waveform uint8

// NumWaveforms is the number of distinct pulses the AWG bank produces — one
// per physical opcode class.
const NumWaveforms = isa.NumOpcodes

// ExecutionUnit is one tile's AWG bank plus switch matrix plus the
// measurement return path.
type ExecutionUnit struct {
	n       int
	tableau *clifford.Tableau
	inj     *noise.Injector

	selects []isa.Opcode // latched select register per switch
	pairs   []int
	latched []bool
	pending int // switches latched since the last fire

	// scratch is the compiled form of the word ExecuteWord or Fire runs,
	// consts the sign constants of the word last fired, in act order, and
	// bits the measurement outcomes of the word being fired, by qubit.
	scratch *Word
	consts  []uint8
	bits    []uint8

	latchCount uint64
	fireCount  uint64
	measCount  uint64

	timing *Timing
	// latencyNs is timing's waveform duration per opcode, filled once by
	// SetTiming so fire looks each one up.
	latencyNs [isa.NumOpcodes]float64
	elapsedNs float64

	// MeasSink receives every measurement produced by Fire; the MCE points
	// it at its error-decoder pipeline.
	MeasSink func(qubit int, bit int)
}

// New returns an execution unit driving n qubits of the given substrate with
// the given noise injector (nil means noiseless).
func New(tableau *clifford.Tableau, inj *noise.Injector) *ExecutionUnit {
	n := tableau.N()
	return &ExecutionUnit{
		n:       n,
		tableau: tableau,
		inj:     inj,
		selects: make([]isa.Opcode, n),
		pairs:   make([]int, n),
		latched: make([]bool, n),
		scratch: NewWord(n),
		consts:  make([]uint8, n),
		bits:    make([]uint8, n),
	}
}

// N returns the number of switches (qubits) in the matrix.
func (u *ExecutionUnit) N() int { return u.n }

// Tableau exposes the underlying substrate (used by tests and verification).
func (u *ExecutionUnit) Tableau() *clifford.Tableau { return u.tableau }

// Latch loads one µop's select bits onto its qubit's switch. Latching twice
// without an intervening Fire indicates a microcode pipeline bug and panics.
func (u *ExecutionUnit) Latch(m isa.MicroOp) {
	if m.Qubit < 0 || m.Qubit >= u.n {
		panic(fmt.Sprintf("awg: latch for qubit %d outside %d-switch matrix", m.Qubit, u.n))
	}
	if u.latched[m.Qubit] {
		panic(fmt.Sprintf("awg: double latch on qubit %d before fire", m.Qubit))
	}
	u.selects[m.Qubit] = m.Op
	u.pairs[m.Qubit] = m.Pair
	u.latched[m.Qubit] = true
	u.pending++
	u.latchCount++
}

// LatchWord latches a whole VLIW word (convenience for lock-step callers).
func (u *ExecutionUnit) LatchWord(w isa.VLIW) {
	for _, m := range w.MicroOps() {
		u.Latch(m)
	}
}

// Ready reports whether every switch has been latched since the last Fire —
// the determinism invariant: the master clock may only fire when no qubit
// would be left uncontrolled.
func (u *ExecutionUnit) Ready() bool { return u.pending == u.n }

// Fire applies the master clock: every latched waveform executes
// simultaneously on the substrate, measurements are routed to MeasSink, and
// all latches clear. Fire panics if any switch is unlatched (a violated
// lock-step guarantee) or if paired two-qubit µops are inconsistent.
func (u *ExecutionUnit) Fire() {
	if !u.Ready() {
		panic("awg: fire with unlatched switches (lock-step violation)")
	}
	u.scratch.compile(u.selects, u.pairs)
	clear(u.latched)
	u.pending = 0
	u.fire(u.scratch)
}

// ExecuteWord latches and fires a complete VLIW word — one lock-step
// sub-cycle. Measurements flow to MeasSink. The word is compiled into the
// unit's scratch word and fired from there: one word latches every switch
// exactly once.
func (u *ExecutionUnit) ExecuteWord(w isa.VLIW) {
	u.scratch.Compile(w)
	u.FireWord(u.scratch)
}

// Word is a VLIW word compiled for an execution unit: what one lock-step
// sub-cycle does, named by operation and operand instead of by switch.
// Compile fills it and FireWord executes it, as often as the caller likes;
// it keeps no reference to the VLIW it came from. Its storage is sized for
// a unit's width once, by NewWord, and compiling writes it by index.
type Word struct {
	n int
	// acts are the µops that act on the substrate, as tableau gates in
	// qubit order. A CNOT appears once, at its control, and a CZ once, at
	// its lower qubit, so random measurements keep their qubit order.
	// Idles, T placement markers and the other halves of pairs act on
	// nothing and carry none.
	acts []clifford.Gate
	// chans and sites are the word's noise sites in draw order: ascending
	// qubit, one per µop that draws, a two-qubit gate's at its act. chans
	// is the channel list the injector's scan reads; sites[i] are site i's
	// operands.
	chans []noise.Channel
	sites []Site
	// meas lists the measured qubits, ascending: the order outcomes are
	// delivered in.
	meas []int
	// ops has bit op set for every opcode the word latches; the timing
	// model takes the slowest.
	ops uint16
}

// substrateOp is the tableau operation of each opcode that acts.
var substrateOp = [isa.NumOpcodes]clifford.Op{
	isa.OpPrep0:       clifford.OpPrep0,
	isa.OpPrep1:       clifford.OpPrep1,
	isa.OpPrepPlus:    clifford.OpPrepPlus,
	isa.OpMeasZ:       clifford.OpMeasureZ,
	isa.OpMeasX:       clifford.OpMeasureX,
	isa.OpX:           clifford.OpX,
	isa.OpY:           clifford.OpY,
	isa.OpZ:           clifford.OpZ,
	isa.OpH:           clifford.OpH,
	isa.OpS:           clifford.OpS,
	isa.OpSDagger:     clifford.OpSDagger,
	isa.OpCNOTControl: clifford.OpCNOT,
	isa.OpCZ:          clifford.OpCZ,
}

// Site is one noise site's operands: the qubit a fault lands on, the
// partner a two-qubit fault's second Pauli lands on (-1 for the others)
// and a preparation's basis.
type Site struct {
	Qubit, Pair int
	BasisX      bool
}

// NewWord returns storage for one compiled word of an n-switch unit: a
// word has at most n acting µops, n noise sites and n measurements.
func NewWord(n int) *Word {
	return &Word{
		n:     n,
		acts:  make([]clifford.Gate, n),
		chans: make([]noise.Channel, n),
		sites: make([]Site, n),
		meas:  make([]int, n),
	}
}

// Compile checks w and compiles it into cw, replacing what cw held. It
// panics on a word of another width, an undefined opcode or an inconsistent
// two-qubit pairing: every word a unit fires passes these checks once, here.
func (cw *Word) Compile(w isa.VLIW) {
	if w.Len() != cw.n || len(w.Pairs) != cw.n {
		panic(fmt.Sprintf("awg: word width %d != compiled width %d", w.Len(), cw.n))
	}
	cw.compile(w.Ops, w.Pairs)
}

// Acts returns the word's acting µops as tableau gates, in qubit order. The
// slice is the word's storage: read it, do not modify it.
func (cw *Word) Acts() []clifford.Gate { return cw.acts }

// Sites returns the word's noise sites in draw order: site i's channel is
// chans[i] and its operands sites[i]. Both slices are the word's storage:
// read them, do not modify them.
func (cw *Word) Sites() (chans []noise.Channel, sites []Site) { return cw.chans, cw.sites }

// compile translates one select register per switch into cw.
func (cw *Word) compile(ops []isa.Opcode, pairs []int) {
	n := cw.n
	acts, chans, sites, meas := cw.acts[:n], cw.chans[:n], cw.sites[:n], cw.meas[:n]
	na, ns, nm := 0, 0, 0
	var set uint16
	for q, op := range ops {
		if !op.Valid() {
			panic(fmt.Sprintf("awg: unhandled opcode %s on qubit %d", op, q))
		}
		set |= 1 << op
		// The site this µop draws: one-qubit gates, T included, draw the
		// gate channel.
		ch, p, basisX := noise.ChanGate1, -1, false
		switch op {
		case isa.OpIdle:
			ch = noise.ChanIdle
		case isa.OpPrep0, isa.OpPrep1:
			ch = noise.ChanPrep
		case isa.OpPrepPlus:
			ch, basisX = noise.ChanPrep, true
		case isa.OpMeasZ, isa.OpMeasX:
			ch = noise.ChanMeas
			meas[nm] = q
			nm++
		case isa.OpCNOTControl:
			p = pairs[q]
			checkPair(ops, pairs, q, p, isa.OpCNOTTarget)
			ch = noise.ChanGate2
		case isa.OpCNOTTarget:
			checkPair(ops, pairs, q, pairs[q], isa.OpCNOTControl)
			continue // executed, and drawn, at the control
		case isa.OpCZ:
			p = pairs[q]
			checkPair(ops, pairs, q, p, isa.OpCZ)
			if p < q {
				continue // executed, and drawn, at the lower qubit
			}
			ch = noise.ChanGate2
		}
		// T is non-Clifford; at the physical level it is realized by
		// magic-state injection. The substrate simulator treats it as a
		// placement marker: the gate-count and timing effects are what the
		// architecture experiments measure. Noise still applies.
		if op != isa.OpIdle && op != isa.OpT {
			acts[na] = clifford.Gate{Op: substrateOp[op], A: q, B: p}
			na++
		}
		chans[ns], sites[ns] = ch, Site{Qubit: q, Pair: p, BasisX: basisX}
		ns++
	}
	cw.acts, cw.chans, cw.sites, cw.meas = acts[:na], chans[:ns], sites[:ns], meas[:nm]
	cw.ops = set
}

// checkPair panics unless q's partner p is another qubit in range, latched
// as want and paired back to q.
func checkPair(ops []isa.Opcode, pairs []int, q, p int, want isa.Opcode) {
	if p == q || p < 0 || p >= len(ops) || ops[p] != want || pairs[p] != q {
		panic(fmt.Sprintf("awg: qubit %d (%s) is not paired with a %s at qubit %d", q, ops[q], want, p))
	}
}

// FireWord latches and fires a compiled word: one lock-step sub-cycle, as
// ExecuteWord of the word it was compiled from. It panics on a word
// compiled for another width, or while a switch is latched.
func (u *ExecutionUnit) FireWord(cw *Word) {
	u.latch(cw)
	u.fire(cw)
}

// Cycle is a sequence of compiled words laid out for ReplayCycle by
// LoadCycle. It keeps the words it was loaded from and reads them on every
// replay, so they must not be recompiled while it is in use.
type Cycle struct {
	n     int
	words []*Word
	// chans is every word's channel list, word after word: the whole
	// cycle's noise sites in draw order, for one scan. ends[w] is the end
	// of word w's; a hit's operands stay in its word's sites.
	chans []noise.Channel
	ends  []int
	// slot[w] is word w's place among the measuring words, or -1. Measuring
	// word k's measured qubits are the bitset meas[k*width:(k+1)*width],
	// and the last replay's outcomes lie at the same place in out.
	slot      []int
	meas, out []uint64
	width     int    // uint64 words per bitset
	nmeas     uint64 // measurements per cycle
	// ns[w] is word w's duration under the unit's timing at load; empty
	// without one.
	ns []float64
}

// Recording is a Cycle recorded from one X/Z state by RecordCycle: each
// word's sign updates, compiled. Its storage is reused by the next record.
type Recording struct {
	signs []clifford.SignWord
}

// LoadCycle lays words out in c for this unit, replacing what c held and
// reusing its storage. The cycle keeps each word's duration under the
// unit's timing as it stands, so SetTiming comes first.
func (u *ExecutionUnit) LoadCycle(words []*Word, c *Cycle) {
	w64 := (u.n + 63) / 64
	sites, measuring := 0, 0
	for _, cw := range words {
		if cw.n != u.n {
			panic(fmt.Sprintf("awg: %d-switch unit loading a %d-wide word", u.n, cw.n))
		}
		sites += len(cw.chans)
		if len(cw.meas) > 0 {
			measuring++
		}
	}
	c.n, c.width, c.nmeas = u.n, w64, 0
	c.words = append(c.words[:0], words...)
	c.chans = slices.Grow(c.chans[:0], sites)
	c.ends = slices.Grow(c.ends[:0], len(words))
	c.slot = slices.Grow(c.slot[:0], len(words))
	c.meas = append(c.meas[:0], make([]uint64, measuring*w64)...)
	c.out = append(c.out[:0], make([]uint64, measuring*w64)...)
	c.ns = c.ns[:0]
	k := 0
	for _, cw := range words {
		if u.timing != nil {
			c.ns = append(c.ns, u.wordNs(cw))
		}
		c.chans = append(c.chans, cw.chans...)
		c.ends = append(c.ends, len(c.chans))
		if len(cw.meas) == 0 {
			c.slot = append(c.slot, -1)
			continue
		}
		c.slot = append(c.slot, k)
		for _, q := range cw.meas {
			c.meas[k*w64+q>>6] |= 1 << (uint(q) & 63)
		}
		c.nmeas += uint64(len(cw.meas))
		k++
	}
}

// Outcomes returns the measuring words' measured qubits and the last
// replay's outcomes, in word order, each word's a bitset of width uint64s
// (bit q of the whole is qubit q). They are the cycle's storage: the next
// replay overwrites the outcomes.
func (c *Cycle) Outcomes() (measured, bits []uint64, width int) {
	return c.meas, c.out, c.width
}

// RecordCycle fires c's words in order, as FireWord does, and compiles
// each one's sign updates into r. It reports whether r may be replayed:
// false when a preparation or measurement drew a random outcome.
func (u *ExecutionUnit) RecordCycle(c *Cycle, r *Recording) bool {
	if len(r.signs) < len(c.words) {
		r.signs = make([]clifford.SignWord, len(c.words))
	}
	replayable := true
	for w, cw := range c.words {
		u.latch(cw)
		if u.fire(cw) {
			replayable = false
		}
		if replayable {
			u.tableau.CompileSigns(cw.acts, u.consts, &r.signs[w])
		}
	}
	return replayable
}

// ReplayCycle fires c again from a recording of it: each word's sign
// updates, then its noise, with one injector scan over the whole cycle's
// sites, drawing exactly what firing the words in turn would. A measuring
// word's outcomes, with their noise flips, stay in c (Outcomes); MeasSink
// is not called. The tableau's X/Z planes must be those the recording
// started from, and ReplayCycle leaves them there: the caller restores the
// planes the recorded cycle ended on before anything reads them.
func (u *ExecutionUnit) ReplayCycle(c *Cycle, r *Recording) {
	if c.n != u.n || u.pending != 0 {
		panic(fmt.Sprintf("awg: replay of a %d-wide cycle on %d switches with %d latched", c.n, u.n, u.pending))
	}
	u.latchCount += uint64(u.n * len(c.words))
	u.fireCount += uint64(len(c.words))
	for _, ns := range c.ns {
		u.elapsedNs += ns // word by word: a sum per cycle would round otherwise
	}
	t, w64 := u.tableau, c.width
	hit := len(c.chans)
	if u.inj != nil {
		hit = u.inj.Next(c.chans, 0)
	}
	begin := 0
	for w, cw := range c.words {
		var out []uint64
		if k := c.slot[w]; k >= 0 {
			out = c.out[k*w64 : (k+1)*w64]
		}
		t.ReplaySigns(&r.signs[w], out)
		end := c.ends[w]
		for ; hit < end; hit = u.inj.Next(c.chans, hit+1) {
			s, ch := &cw.sites[hit-begin], c.chans[hit]
			if ch == noise.ChanMeas {
				out[s.Qubit>>6] ^= 1 << (uint(s.Qubit) & 63)
			}
			u.inj.Inject(t, ch, s.Qubit, s.Pair, s.BasisX)
		}
		begin = end
	}
	u.measCount += c.nmeas
}

// latch counts a compiled word's latches, panicking on a word compiled for
// another width or while a switch is latched.
func (u *ExecutionUnit) latch(cw *Word) {
	if cw.n != u.n || u.pending != 0 {
		panic(fmt.Sprintf("awg: fire of a %d-wide word on %d switches with %d latched", cw.n, u.n, u.pending))
	}
	u.latchCount += uint64(u.n)
}

// clock counts a fire and advances the wall clock by the word's slowest
// waveform.
func (u *ExecutionUnit) clock(cw *Word) {
	u.fireCount++
	if u.timing != nil {
		u.elapsedNs += u.wordNs(cw)
	}
}

// wordNs returns a word's duration under the unit's timing: its slowest
// waveform, floored at IdleNs.
func (u *ExecutionUnit) wordNs(cw *Word) float64 {
	max := u.timing.IdleNs
	for set := cw.ops; set != 0; set &= set - 1 {
		if l := u.latencyNs[bits.TrailingZeros16(set)]; l > max {
			max = l
		}
	}
	return max
}

// fire executes a compiled word in three steps, writing each acting µop's
// sign constant into u.consts and reporting whether an outcome was random.
// The acting µops run in qubit order, so random outcomes draw the tableau's
// randomness in the per-switch order. The word's noise is drawn in one scan
// of its sites and each hit applied after the gates: every qubit carries one
// µop, so no gate of the word acts on a qubit another site's fault hit, and
// a Pauli commutes with the sign updates of the others. Measurements are
// then delivered in qubit order, with their flips.
func (u *ExecutionUnit) fire(cw *Word) (random bool) {
	u.clock(cw)
	t := u.tableau
	for i, g := range cw.acts {
		// out is 0 for the µops that do not measure, whose bits nothing
		// delivers.
		k, out, rnd := t.Apply(g.Op, g.A, g.B)
		u.consts[i], u.bits[g.A] = k, uint8(out)
		random = random || rnd
	}
	u.noiseAndDeliver(cw)
	return random
}

// noiseAndDeliver draws and applies a fired word's noise, then delivers its
// measurements with their flips.
func (u *ExecutionUnit) noiseAndDeliver(cw *Word) {
	if u.inj != nil {
		chans := cw.chans
		for i := u.inj.Next(chans, 0); i < len(chans); i = u.inj.Next(chans, i+1) {
			s := &cw.sites[i]
			if chans[i] == noise.ChanMeas {
				u.bits[s.Qubit] ^= 1
			}
			u.inj.Inject(u.tableau, chans[i], s.Qubit, s.Pair, s.BasisX)
		}
	}
	u.measCount += uint64(len(cw.meas))
	if u.MeasSink != nil {
		for _, q := range cw.meas {
			u.MeasSink(q, int(u.bits[q]))
		}
	}
}

// Stats returns cumulative (latches, fires, measurements).
func (u *ExecutionUnit) Stats() (latches, fires, measurements uint64) {
	return u.latchCount, u.fireCount, u.measCount
}
