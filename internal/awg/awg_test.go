package awg

import (
	"math/rand"
	"reflect"
	"slices"
	"testing"

	"quest/internal/clifford"
	"quest/internal/compiler"
	"quest/internal/isa"
	"quest/internal/microcode"
	"quest/internal/noise"
	"quest/internal/surface"
)

func newUnit(n int, seed int64, m *noise.Model) *ExecutionUnit {
	tb := clifford.New(n, rand.New(rand.NewSource(seed)))
	var inj *noise.Injector
	if m != nil {
		inj = noise.NewInjector(*m, seed)
	}
	return New(tb, inj)
}

func TestLatchFireBasics(t *testing.T) {
	u := newUnit(3, 1, nil)
	if u.N() != 3 {
		t.Fatalf("N = %d", u.N())
	}
	w := isa.NewVLIW(3)
	w.Set(0, isa.OpX)
	u.LatchWord(w)
	if !u.Ready() {
		t.Fatal("fully latched unit not Ready")
	}
	u.Fire()
	if out := u.Tableau().MeasureZ(0); out != 1 {
		t.Errorf("X µop not applied: measured %d", out)
	}
	latches, fires, meas := u.Stats()
	if latches != 3 || fires != 1 || meas != 0 {
		t.Errorf("stats = (%d,%d,%d), want (3,1,0)", latches, fires, meas)
	}
}

func TestLatchOrderIndependence(t *testing.T) {
	// The FIFO microcode optimization rests on latch order not mattering:
	// executing the same word latched in different orders must produce the
	// same state.
	mkWord := func() isa.VLIW {
		w := isa.NewVLIW(4)
		w.Set(0, isa.OpH)
		w.SetPair(1, isa.OpCNOTControl, 2)
		w.SetPair(2, isa.OpCNOTTarget, 1)
		w.Set(3, isa.OpX)
		return w
	}
	orders := [][]int{{0, 1, 2, 3}, {3, 2, 1, 0}, {2, 0, 3, 1}}
	var states []*clifford.Tableau
	for _, ord := range orders {
		u := newUnit(4, 9, nil)
		u.Tableau().X(1) // make the CNOT act
		ops := mkWord().MicroOps()
		for _, i := range ord {
			u.Latch(ops[i])
		}
		u.Fire()
		states = append(states, u.Tableau())
	}
	for i := 1; i < len(states); i++ {
		for q := 0; q < 4; q++ {
			if states[0].ExpectationZ(q) != states[i].ExpectationZ(q) {
				t.Fatalf("order %d: qubit %d expectation differs", i, q)
			}
		}
	}
}

func TestFireRequiresFullLatch(t *testing.T) {
	u := newUnit(2, 1, nil)
	u.Latch(isa.MicroOp{Op: isa.OpX, Qubit: 0})
	if u.Ready() {
		t.Error("half-latched unit Ready")
	}
	defer func() {
		if recover() == nil {
			t.Error("Fire with unlatched switch did not panic")
		}
	}()
	u.Fire()
}

func TestDoubleLatchPanics(t *testing.T) {
	u := newUnit(2, 1, nil)
	u.Latch(isa.MicroOp{Op: isa.OpX, Qubit: 0})
	defer func() {
		if recover() == nil {
			t.Error("double latch did not panic")
		}
	}()
	u.Latch(isa.MicroOp{Op: isa.OpZ, Qubit: 0})
}

func TestExecuteWordOverLatchPanics(t *testing.T) {
	u := newUnit(2, 1, nil)
	u.Latch(isa.MicroOp{Op: isa.OpX, Qubit: 1})
	defer func() {
		if recover() == nil {
			t.Error("ExecuteWord over a pending latch did not panic")
		}
	}()
	u.ExecuteWord(isa.NewVLIW(2))
}

// TestExecuteWordAllocs pins a noiseless sub-cycle — prep, CNOT, CZ,
// one-qubit gates and measurements compiled into the unit's scratch word
// and fired — at zero allocations.
func TestExecuteWordAllocs(t *testing.T) {
	u := newUnit(8, 1, nil)
	u.MeasSink = func(int, int) {}
	w := isa.NewVLIW(8)
	w.Set(0, isa.OpPrepPlus)
	w.SetPair(1, isa.OpCNOTControl, 2)
	w.SetPair(2, isa.OpCNOTTarget, 1)
	w.SetPair(3, isa.OpCZ, 4)
	w.SetPair(4, isa.OpCZ, 3)
	w.Set(5, isa.OpH)
	w.Set(6, isa.OpMeasZ)
	w.Set(7, isa.OpMeasX)
	if a := testing.AllocsPerRun(100, func() { u.ExecuteWord(w) }); a != 0 {
		t.Errorf("ExecuteWord: %v allocs/op, want 0", a)
	}
	if latches, fires, _ := u.Stats(); latches != 8*fires {
		t.Errorf("latches %d for %d fires of an 8-switch word", latches, fires)
	}
}

func TestMeasurementsReachSink(t *testing.T) {
	u := newUnit(2, 1, nil)
	var got []int
	u.MeasSink = func(q, bit int) { got = append(got, q, bit) }
	w := isa.NewVLIW(2)
	w.Set(0, isa.OpPrep1)
	u.ExecuteWord(w)
	w2 := isa.NewVLIW(2)
	w2.Set(0, isa.OpMeasZ)
	u.ExecuteWord(w2)
	if len(got) != 2 || got[0] != 0 || got[1] != 1 {
		t.Errorf("sink received %v, want [0 1]", got)
	}
	_, _, meas := u.Stats()
	if meas != 1 {
		t.Errorf("measurement count = %d", meas)
	}
}

func TestAllOpcodesExecute(t *testing.T) {
	u := newUnit(4, 1, nil)
	u.MeasSink = func(int, int) {}
	for op := isa.Opcode(0); op.Valid(); op++ {
		w := isa.NewVLIW(4)
		switch {
		case op.IsTwoQubit():
			switch op {
			case isa.OpCNOTControl:
				w.SetPair(0, isa.OpCNOTControl, 1)
				w.SetPair(1, isa.OpCNOTTarget, 0)
			case isa.OpCNOTTarget:
				w.SetPair(0, isa.OpCNOTTarget, 1)
				w.SetPair(1, isa.OpCNOTControl, 0)
			case isa.OpCZ:
				w.SetPair(0, isa.OpCZ, 1)
				w.SetPair(1, isa.OpCZ, 0)
			}
		default:
			w.Set(0, op)
		}
		u.ExecuteWord(w) // must not panic
	}
}

func TestCZExecutesOncePerPair(t *testing.T) {
	// CZ applied twice is identity; if the unit executed the pair from both
	// sides the phase kickback would cancel. |+>|1> -> CZ -> |->|1>.
	u := newUnit(2, 1, nil)
	u.Tableau().H(0)
	u.Tableau().X(1)
	w := isa.NewVLIW(2)
	w.SetPair(0, isa.OpCZ, 1)
	w.SetPair(1, isa.OpCZ, 0)
	u.ExecuteWord(w)
	if out := u.Tableau().MeasureX(0); out != 1 {
		t.Errorf("CZ executed an even number of times (measured %d, want 1)", out)
	}
}

func TestMismatchedPairPanics(t *testing.T) {
	for name, w := range map[string]isa.VLIW{
		"dangling CNOT control": {
			Ops:   []isa.Opcode{isa.OpCNOTControl, isa.OpIdle, isa.OpIdle},
			Pairs: []int{1, -1, -1},
		},
		"asymmetric CZ": {
			Ops:   []isa.Opcode{isa.OpCZ, isa.OpCZ, isa.OpCZ},
			Pairs: []int{1, 2, 1},
		},
		"CZ paired with itself": {
			Ops:   []isa.Opcode{isa.OpCZ, isa.OpIdle, isa.OpIdle},
			Pairs: []int{0, -1, -1},
		},
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("%s did not panic at fire", name)
				}
			}()
			u := newUnit(3, 1, nil)
			u.LatchWord(w)
			u.Fire()
		}()
	}
}

func TestWrongWidthWordPanics(t *testing.T) {
	u := newUnit(3, 1, nil)
	defer func() {
		if recover() == nil {
			t.Error("wrong-width word accepted")
		}
	}()
	u.ExecuteWord(isa.NewVLIW(5))
}

func TestNoiseInjectionOnIdle(t *testing.T) {
	m := noise.Uniform(1)
	u := newUnit(1, 1, &m)
	w := isa.NewVLIW(1) // idle
	u.ExecuteWord(w)
	// With p=1 idle noise a Pauli was applied; state may or may not flip in
	// Z, but the injector log must have exactly one fault.
	// (Access via the noise injector isn't exposed; assert indirectly: run
	// many idles and check the state was disturbed at least once.)
	disturbed := false
	for i := 0; i < 20; i++ {
		u.ExecuteWord(isa.NewVLIW(1))
		if u.Tableau().ExpectationZ(0) != 1 {
			disturbed = true
			break
		}
	}
	if !disturbed {
		t.Error("certain idle noise never disturbed the qubit")
	}
}

func TestMeasurementNoiseFlipsReportedBit(t *testing.T) {
	m := noise.Model{Meas: 1}
	u := newUnit(1, 1, &m)
	var bits []int
	u.MeasSink = func(_, b int) { bits = append(bits, b) }
	w := isa.NewVLIW(1)
	w.Set(0, isa.OpMeasZ)
	u.ExecuteWord(w)
	// Qubit is |0>, certain measurement error flips the report to 1.
	if len(bits) != 1 || bits[0] != 1 {
		t.Errorf("reported bits %v, want [1]", bits)
	}
	// The projected state is still |0>: a second (also flipped) report is 1.
	u.ExecuteWord(w)
	if bits[1] != 1 {
		t.Errorf("second report %d, want 1", bits[1])
	}
}

func TestTGateIsCountedNotSimulated(t *testing.T) {
	u := newUnit(1, 1, nil)
	w := isa.NewVLIW(1)
	w.Set(0, isa.OpT)
	u.ExecuteWord(w) // must not panic and must not flip Z expectation
	if u.Tableau().ExpectationZ(0) != 1 {
		t.Error("T placeholder disturbed Z eigenstate")
	}
}

// oracleFire is the per-switch execution the compiled path replaced, kept
// as its oracle: each qubit in turn runs its µop and draws its noise site
// at once (a one-site scan), and each measurement is delivered, with its
// flip, as soon as it is taken.
func oracleFire(tb *clifford.Tableau, inj *noise.Injector, w isa.VLIW, sink func(q, bit int)) {
	draw := func(ch noise.Channel, q, b int, basisX bool) bool {
		if inj == nil || inj.Next([]noise.Channel{ch}, 0) != 0 {
			return false
		}
		inj.Inject(tb, ch, q, b, basisX)
		return true
	}
	for q, op := range w.Ops {
		p := w.Pairs[q]
		switch op {
		case isa.OpIdle:
			draw(noise.ChanIdle, q, -1, false)
		case isa.OpPrep0:
			tb.Prep0(q)
			draw(noise.ChanPrep, q, -1, false)
		case isa.OpPrep1:
			tb.Prep1(q)
			draw(noise.ChanPrep, q, -1, false)
		case isa.OpPrepPlus:
			tb.PrepPlus(q)
			draw(noise.ChanPrep, q, -1, true)
		case isa.OpX, isa.OpY, isa.OpZ, isa.OpH, isa.OpS, isa.OpSDagger, isa.OpT:
			switch op {
			case isa.OpX:
				tb.X(q)
			case isa.OpY:
				tb.Y(q)
			case isa.OpZ:
				tb.Z(q)
			case isa.OpH:
				tb.H(q)
			case isa.OpS:
				tb.S(q)
			case isa.OpSDagger:
				tb.SDagger(q)
			}
			draw(noise.ChanGate1, q, -1, false)
		case isa.OpCNOTControl:
			tb.CNOT(q, p)
			draw(noise.ChanGate2, q, p, false)
		case isa.OpCNOTTarget:
		case isa.OpCZ:
			if q < p {
				tb.CZ(q, p)
				draw(noise.ChanGate2, q, p, false)
			}
		case isa.OpMeasZ, isa.OpMeasX:
			var bit int
			if op == isa.OpMeasZ {
				bit = tb.MeasureZ(q)
			} else {
				bit = tb.MeasureX(q)
			}
			if draw(noise.ChanMeas, q, -1, false) {
				bit ^= 1
			}
			sink(q, bit)
		}
	}
}

// singleOps are the one-qubit opcodes randomWord draws from.
var singleOps = []isa.Opcode{
	isa.OpIdle, isa.OpPrep0, isa.OpPrep1, isa.OpPrepPlus, isa.OpMeasZ, isa.OpMeasX,
	isa.OpX, isa.OpY, isa.OpZ, isa.OpH, isa.OpS, isa.OpSDagger, isa.OpT,
}

// randomWord draws a valid n-qubit word: random disjoint pairs carry a CNOT
// (either way round) or a CZ, and every other qubit a random one-qubit
// opcode, idles, preparations and measurements included.
func randomWord(rng *rand.Rand, n int) isa.VLIW {
	w := isa.NewVLIW(n)
	perm := rng.Perm(n)
	for i := 0; i < n; i += 2 {
		a := perm[i]
		if i+1 == n {
			w.Set(a, singleOps[rng.Intn(len(singleOps))])
			break
		}
		b := perm[i+1]
		switch rng.Intn(6) {
		case 0, 1:
			w.SetPair(a, isa.OpCNOTControl, b)
			w.SetPair(b, isa.OpCNOTTarget, a)
		case 2:
			w.SetPair(a, isa.OpCZ, b)
			w.SetPair(b, isa.OpCZ, a)
		default:
			w.Set(a, singleOps[rng.Intn(len(singleOps))])
			w.Set(b, singleOps[rng.Intn(len(singleOps))])
		}
	}
	return w
}

// TestCompiledWordsMatchPerSwitchOracle runs random valid words, every
// opcode among them, at p=5e-2 through the unit — by ExecuteWord, by a
// word compiled once and fired with FireWord, and by latching and Fire —
// and through the per-switch oracle on a twin tableau and injector. After
// every word the tableaux (bits, signs and measurement randomness), the
// measurement streams and the fault logs must be identical.
func TestCompiledWordsMatchPerSwitchOracle(t *testing.T) {
	const n, words = 10, 300
	model := noise.Uniform(5e-2)
	for seed := int64(1); seed <= 6; seed++ {
		u := newUnit(n, seed, &model)
		tb := clifford.New(n, rand.New(rand.NewSource(seed)))
		inj := noise.NewInjector(model, seed)
		type meas struct{ q, bit int }
		var got, want []meas
		u.MeasSink = func(q, bit int) { got = append(got, meas{q, bit}) }
		sink := func(q, bit int) { want = append(want, meas{q, bit}) }
		cw := NewWord(n)
		rng := rand.New(rand.NewSource(seed * 7919))
		measured := 0
		for k := 0; k < words; k++ {
			w := randomWord(rng, n)
			switch k % 3 {
			case 0:
				u.ExecuteWord(w)
			case 1:
				cw.Compile(w)
				u.FireWord(cw)
			case 2:
				u.LatchWord(w)
				u.Fire()
			}
			oracleFire(tb, inj, w, sink)
			if !reflect.DeepEqual(u.Tableau(), tb) {
				t.Fatalf("seed %d word %d: tableau differs from the per-switch oracle's", seed, k)
			}
			if !reflect.DeepEqual(got, want) {
				t.Fatalf("seed %d word %d: measurements %v, oracle %v", seed, k, got, want)
			}
			if !reflect.DeepEqual(u.inj.Log(), inj.Log()) {
				t.Fatalf("seed %d word %d: fault log %v, oracle %v", seed, k, u.inj.Log(), inj.Log())
			}
			measured = len(want)
		}
		if measured == 0 || len(inj.Log()) == 0 {
			t.Fatalf("seed %d: %d measurements and %d faults; the comparison exercises nothing", seed, measured, len(inj.Log()))
		}
	}
}

// restMask disables every site outside the layout's patches, the rest
// state of a tile.
func restMask(lay compiler.Layout) *surface.Mask {
	mask := surface.NewMask(lay.Lat)
	in := make([]bool, lay.Lat.NumQubits())
	for p := 0; p < lay.NumPatches(); p++ {
		for _, q := range lay.PatchQubits(p) {
			in[q] = true
		}
	}
	for q, ok := range in {
		mask.SetDisabled(q, !ok)
	}
	return mask
}

// TestReplayCycleMatchesFire pins the cycle replay to firing the same words
// directly. Two units of one seed, with gate timing and p=2e-2 noise, run a
// tile's extraction cycle at d=3 and d=5 for every design. After three
// cycles fired directly, rec records the cycle from each of the two X/Z
// states it alternates between, then replays the recording of the state it
// is in, restoring the planes the recording ended on, while ref keeps
// firing word by word. After every cycle the outcome words must hold
// exactly the bits ref delivered, and the tableaux (once restored), fault
// logs, counters and wall clocks must be identical.
func TestReplayCycleMatchesFire(t *testing.T) {
	model := noise.Uniform(2e-2)
	timing := Timing{PrepNs: 20, Gate1Ns: 10, MeasNs: 140, CNOTNs: 40, IdleNs: 10}
	for _, d := range []int{3, 5} {
		lay := compiler.NewLayout(d, 2)
		n := lay.Lat.NumQubits()
		width := (n + 63) / 64
		for _, design := range microcode.Designs() {
			vliw := microcode.NewStore(design, surface.Steane, lay.Lat).ReplayCycle(restMask(lay))
			rec, ref := newUnit(n, 5, &model), newUnit(n, 5, &model)
			rec.SetTiming(timing)
			ref.SetTiming(timing)
			compile := func() []*Word {
				words := make([]*Word, len(vliw))
				for s, w := range vliw {
					words[s] = NewWord(n)
					words[s].Compile(w)
				}
				return words
			}
			recWords, refWords := compile(), compile()
			// wantMeas and wantOut gather ref's deliveries by measuring word.
			var wantMeas, wantOut []uint64
			slot := -1
			ref.MeasSink = func(q, bit int) {
				wantMeas[slot*width+q>>6] |= 1 << (q & 63)
				wantOut[slot*width+q>>6] |= uint64(bit) << (q & 63)
			}
			rec.MeasSink = func(int, int) {}
			fireRef := func() {
				wantMeas, wantOut, slot = nil, nil, -1
				for _, cw := range refWords {
					if len(cw.meas) > 0 {
						slot++
						wantMeas = append(wantMeas, make([]uint64, width)...)
						wantOut = append(wantOut, make([]uint64, width)...)
					}
					ref.FireWord(cw)
				}
			}
			same := func(cycle int) {
				t.Helper()
				l1, f1, m1 := rec.Stats()
				l2, f2, m2 := ref.Stats()
				switch {
				case !reflect.DeepEqual(rec.Tableau(), ref.Tableau()):
					t.Fatalf("d=%d %s cycle %d: tableaux differ", d, design, cycle)
				case !reflect.DeepEqual(rec.inj.Log(), ref.inj.Log()):
					t.Fatalf("d=%d %s cycle %d: fault logs differ", d, design, cycle)
				case l1 != l2 || f1 != f2 || m1 != m2 || rec.ElapsedNs() != ref.ElapsedNs():
					t.Fatalf("d=%d %s cycle %d: counters %d/%d/%d and clock %v, want %d/%d/%d and %v",
						d, design, cycle, l1, f1, m1, rec.ElapsedNs(), l2, f2, m2, ref.ElapsedNs())
				}
			}
			cycle := 0
			for ; cycle < 3; cycle++ {
				for _, cw := range recWords {
					rec.FireWord(cw)
				}
				fireRef()
				same(cycle)
			}
			var c Cycle
			rec.LoadCycle(recWords, &c)
			tb := rec.Tableau()
			var recs [2]Recording
			planes := [2]clifford.Planes{tb.NewPlanes(), tb.NewPlanes()}
			for s := range recs {
				tb.SavePlanes(planes[s])
				if !rec.RecordCycle(&c, &recs[s]) {
					t.Fatalf("d=%d %s: the cycle from state %d drew an outcome at random", d, design, s)
				}
				fireRef()
				same(cycle)
				cycle++
			}
			if !tb.EqualPlanes(planes[0]) {
				t.Fatalf("d=%d %s: the cycle's X/Z states do not alternate", d, design)
			}
			hits := 0
			for s := 0; cycle < 40; cycle, s = cycle+1, 1-s {
				rec.ReplayCycle(&c, &recs[s])
				tb.RestorePlanes(planes[1-s])
				fireRef()
				meas, out, w := c.Outcomes()
				if w != width || !slices.Equal(meas, wantMeas) || !slices.Equal(out, wantOut) {
					t.Fatalf("d=%d %s cycle %d: outcome words differ from the bits fired directly", d, design, cycle)
				}
				same(cycle)
				hits += len(ref.inj.Log())
				rec.inj.ClearLog()
				ref.inj.ClearLog()
			}
			if hits == 0 {
				t.Fatalf("d=%d %s: no fault in the replayed cycles; the comparison exercises no noise", d, design)
			}
		}
	}
}
