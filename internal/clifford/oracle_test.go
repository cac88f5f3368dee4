package clifford_test

import (
	"fmt"
	"math/rand"
	"testing"

	"quest/internal/awg"
	"quest/internal/clifford"
	"quest/internal/isa"
	"quest/internal/noise"
	"quest/internal/surface"
)

// stabilizer is the method set Tableau shares with the CHP oracle.
type stabilizer interface {
	H(q int)
	S(q int)
	SDagger(q int)
	X(q int)
	Y(q int)
	Z(q int)
	CNOT(c, t int)
	CZ(a, b int)
	ApplyPauli(q int, p clifford.Pauli)
	MeasureZ(q int) int
	MeasureX(q int) int
	Prep0(q int)
	Prep1(q int)
	PrepPlus(q int)
	ExpectationZ(q int) int
	MeasureObservable(xs, zs []int) int
}

// randomOp is one step of a random circuit. Steps that return a value
// (measurements, expectations, observables) are compared between the two
// simulators; gates return 0.
type randomOp struct {
	kind   int
	a, b   int
	xs, zs []int
	p      clifford.Pauli
}

const numOpKinds = 16

func (o randomOp) apply(s stabilizer) int {
	switch o.kind {
	case 0:
		s.H(o.a)
	case 1:
		s.S(o.a)
	case 2:
		s.SDagger(o.a)
	case 3:
		s.X(o.a)
	case 4:
		s.Y(o.a)
	case 5:
		s.Z(o.a)
	case 6:
		s.CNOT(o.a, o.b)
	case 7:
		s.CZ(o.a, o.b)
	case 8:
		s.ApplyPauli(o.a, o.p)
	case 9:
		return s.MeasureZ(o.a)
	case 10:
		return s.MeasureX(o.a)
	case 11:
		s.Prep0(o.a)
	case 12:
		s.Prep1(o.a)
	case 13:
		s.PrepPlus(o.a)
	case 14:
		return s.ExpectationZ(o.a)
	case 15:
		return s.MeasureObservable(o.xs, o.zs)
	}
	return 0
}

// genOp draws a random step. Most steps act on a handful of "hot" qubits
// scattered across the register, so states stay entangled across word
// boundaries while many observables remain deterministic.
func genOp(gen *rand.Rand, n int, hot []int) randomOp {
	pick := func() int {
		if gen.Intn(5) == 0 {
			return gen.Intn(n)
		}
		return hot[gen.Intn(len(hot))]
	}
	o := randomOp{kind: gen.Intn(numOpKinds), a: pick()}
	switch o.kind {
	case 6, 7:
		if n == 1 {
			o.kind = 0
			break
		}
		for o.b = pick(); o.b == o.a; o.b = pick() {
		}
	case 8:
		o.p = clifford.Pauli(gen.Intn(4))
	case 15:
		// One to four factors, X, Z or Y (the qubit in both lists), with
		// the odd repeated entry: a repeat names the same factor again.
		for k := gen.Intn(5); k > 0; k-- {
			q := pick()
			switch gen.Intn(3) {
			case 0:
				o.xs = append(o.xs, q)
			case 1:
				o.zs = append(o.zs, q)
			default:
				o.xs = append(o.xs, q)
				o.zs = append(o.zs, q)
			}
			if gen.Intn(8) == 0 {
				o.zs = append(o.zs, q)
			}
		}
		gen.Shuffle(len(o.xs), func(i, j int) { o.xs[i], o.xs[j] = o.xs[j], o.xs[i] })
	}
	return o
}

func (o randomOp) String() string {
	return fmt.Sprintf("kind %d a=%d b=%d xs=%v zs=%v p=%v", o.kind, o.a, o.b, o.xs, o.zs, o.p)
}

// TestTableauMatchesCHPOracle pins the inverse tableau to the
// Aaronson–Gottesman tableau: from the same rng seed, every measurement,
// expectation and observable must come out identical, on random circuits
// over every operation and on noisy surface-code extraction streams.
func TestTableauMatchesCHPOracle(t *testing.T) {
	t.Run("random-circuits", func(t *testing.T) {
		circuits := 3000
		if testing.Short() {
			circuits = 300
		}
		// Register sizes on and around the 64-bit word boundaries come
		// first; the rest are uniform over [1,140].
		sizes := []int{1, 2, 3, 63, 64, 65, 127, 128, 129, 140}
		// seen[kind][value+1] counts the results each reporting step gave.
		var seen [numOpKinds][3]int
		for c := 0; c < circuits; c++ {
			gen := rand.New(rand.NewSource(int64(c)))
			n := 1 + gen.Intn(140)
			if c < len(sizes) {
				n = sizes[c]
			}
			hot := make([]int, 1+gen.Intn(6))
			for i := range hot {
				hot[i] = gen.Intn(n)
			}
			tab := clifford.New(n, rand.New(rand.NewSource(int64(c)+7)))
			chp := clifford.NewCHP(n, rand.New(rand.NewSource(int64(c)+7)))
			steps := 10 + gen.Intn(150)
			for s := 0; s < steps; s++ {
				o := genOp(gen, n, hot)
				got, want := o.apply(tab), o.apply(chp)
				if got != want {
					t.Fatalf("circuit %d (n=%d) step %d %v: tableau %d, CHP %d", c, n, s, o, got, want)
				}
				if o.kind == 9 || o.kind == 10 || o.kind >= 14 {
					seen[o.kind][got+1]++
				}
			}
			for q := 0; q < n; q++ {
				if got, want := tab.ExpectationZ(q), chp.ExpectationZ(q); got != want {
					t.Fatalf("circuit %d (n=%d) final <Z_%d>: tableau %d, CHP %d", c, n, q, got, want)
				}
			}
		}
		// Each reporting step must have seen every result it can give.
		for _, k := range []struct {
			kind   int
			values []int
		}{{9, []int{0, 1}}, {10, []int{0, 1}}, {14, []int{-1, 0, 1}}, {15, []int{-1, 0, 1}}} {
			for _, v := range k.values {
				if seen[k.kind][v+1] == 0 {
					t.Errorf("op kind %d never returned %d: %v", k.kind, v, seen[k.kind])
				}
			}
		}
	})

	for _, d := range []int{3, 5} {
		t.Run(fmt.Sprintf("steane-stream-d%d", d), func(t *testing.T) {
			for seed := int64(1); seed <= 4; seed++ {
				checkStream(t, d, seed)
			}
		})
	}
}

// checkStream runs noisy Steane extraction cycles through an AWG execution
// unit on a Tableau and replays the same stream on the CHP oracle. The
// injector's fault log carries every Pauli it applied and every measurement
// it flipped, stamped with (cycle, sub-cycle). Within a sub-cycle each qubit
// receives one µop and a fault follows the µop of the qubit it hits, so
// applying a sub-cycle's faults after its µops reaches the same state and
// draws measurement randomness in the same order.
func checkStream(t *testing.T, d int, seed int64) {
	t.Helper()
	const cycles = 12
	lat := surface.NewPlanar(d)
	n := lat.NumQubits()
	words := surface.CompileCycle(lat, surface.Steane, nil)
	model := noise.Uniform(5e-3)
	inj := noise.NewInjector(model, seed+100)
	u := awg.New(clifford.New(n, rand.New(rand.NewSource(seed))), inj)
	type meas struct{ cycle, sub, q, bit int }
	var got []meas
	var cycle, sub int
	u.MeasSink = func(q, bit int) { got = append(got, meas{cycle, sub, q, bit}) }
	for cycle = 0; cycle < cycles; cycle++ {
		for sub = range words {
			inj.SetLocation(cycle, sub)
			u.ExecuteWord(words[sub])
		}
	}

	chp := clifford.NewCHP(n, rand.New(rand.NewSource(seed)))
	faults := inj.Log()
	var want []meas
	for c := 0; c < cycles; c++ {
		for s, w := range words {
			start := len(want)
			for q, op := range w.Ops {
				p := w.Pairs[q]
				switch op {
				case isa.OpPrep0:
					chp.Prep0(q)
				case isa.OpPrepPlus:
					chp.PrepPlus(q)
				case isa.OpCNOTControl:
					chp.CNOT(q, p)
				case isa.OpMeasZ:
					want = append(want, meas{c, s, q, chp.MeasureZ(q)})
				case isa.OpMeasX:
					want = append(want, meas{c, s, q, chp.MeasureX(q)})
				case isa.OpIdle, isa.OpCNOTTarget:
				default:
					t.Fatalf("stream carries %s, which this replay does not model", op)
				}
			}
			for len(faults) > 0 && faults[0].Cycle == c && faults[0].SubCycle == s {
				f := faults[0]
				faults = faults[1:]
				if f.Pauli != clifford.PauliI {
					chp.ApplyPauli(f.Qubit, f.Pauli)
					continue
				}
				for i := start; i < len(want); i++ {
					if want[i].q == f.Qubit {
						want[i].bit ^= 1
					}
				}
			}
		}
	}
	if len(faults) != 0 {
		t.Fatalf("d=%d seed %d: %d faults left unreplayed", d, seed, len(faults))
	}
	if len(inj.Log()) < 10 {
		t.Fatalf("d=%d seed %d: only %d faults; the stream is barely noisy", d, seed, len(inj.Log()))
	}
	if len(got) != len(want) {
		t.Fatalf("d=%d seed %d: %d measurements, oracle %d", d, seed, len(got), len(want))
	}
	for i := range got {
		if got[i] != want[i] {
			t.Fatalf("d=%d seed %d measurement %d: tableau %+v, CHP %+v", d, seed, i, got[i], want[i])
		}
	}
}

// TestTableauHotPathAllocs pins gates, deterministic and random measurement
// and observable queries at zero allocations.
func TestTableauHotPathAllocs(t *testing.T) {
	tb := clifford.New(130, rand.New(rand.NewSource(1)))
	xs, zs := []int{3, 64}, []int{64, 129}
	for name, f := range map[string]func(){
		"gates": func() {
			tb.H(3)
			tb.S(64)
			tb.SDagger(64)
			tb.CNOT(3, 129)
			tb.CZ(64, 3)
			tb.X(5)
			tb.Y(70)
			tb.Z(129)
			tb.ApplyPauli(1, clifford.PauliY)
		},
		"measure-deterministic": func() { tb.MeasureZ(100) },
		"measure-random":        func() { tb.H(100); tb.MeasureZ(100) },
		"observable":            func() { tb.MeasureObservable(xs, zs) },
		"expectation":           func() { tb.ExpectationZ(3) },
	} {
		if a := testing.AllocsPerRun(100, f); a != 0 {
			t.Errorf("%s: %v allocs/op, want 0", name, a)
		}
	}
}
