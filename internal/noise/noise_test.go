package noise

import (
	"math"
	"math/rand"
	"testing"

	"quest/internal/clifford"
)

func TestUniformModel(t *testing.T) {
	m := Uniform(1e-3)
	if m.Idle != 1e-3 || m.Gate1 != 1e-3 || m.Gate2 != 1e-3 || m.Meas != 1e-3 || m.Prep != 1e-3 {
		t.Errorf("Uniform did not fill all fields: %+v", m)
	}
	if err := m.Validate(); err != nil {
		t.Errorf("valid model rejected: %v", err)
	}
}

func TestValidateRejectsBadProbabilities(t *testing.T) {
	bad := []Model{
		{Idle: -0.1}, {Gate1: 1.5}, {Gate2: 2}, {Meas: -1}, {Prep: 1.0001},
	}
	for i, m := range bad {
		if err := m.Validate(); err == nil {
			t.Errorf("case %d: invalid model accepted: %+v", i, m)
		}
	}
	expectPanic := func() {
		defer func() {
			if recover() == nil {
				t.Error("NewInjector accepted invalid model")
			}
		}()
		NewInjector(Model{Idle: -1}, 1)
	}
	expectPanic()
}

// TestValidatePerChannel checks every channel on its own: 0 and 1 pass,
// while NaN, infinities and values just outside [0,1] fail. A NaN used to
// pass (p < 0 and p > 1 are both false for it) and then split: Float64() <
// NaN never fires, Float64() >= NaN never returns early.
func TestValidatePerChannel(t *testing.T) {
	set := map[string]func(*Model, float64){
		"Idle":  func(m *Model, p float64) { m.Idle = p },
		"Gate1": func(m *Model, p float64) { m.Gate1 = p },
		"Gate2": func(m *Model, p float64) { m.Gate2 = p },
		"Meas":  func(m *Model, p float64) { m.Meas = p },
		"Prep":  func(m *Model, p float64) { m.Prep = p },
	}
	for _, name := range []string{"Idle", "Gate1", "Gate2", "Meas", "Prep"} {
		t.Run(name, func(t *testing.T) {
			for _, p := range []float64{0, 1e-4, 1} {
				m := Uniform(0.5)
				set[name](&m, p)
				if err := m.Validate(); err != nil {
					t.Errorf("%s=%v rejected: %v", name, p, err)
				}
			}
			for _, p := range []float64{math.NaN(), math.Inf(1), math.Inf(-1), -1e-300, math.Nextafter(1, 2)} {
				m := Uniform(0.5)
				set[name](&m, p)
				if err := m.Validate(); err == nil {
					t.Errorf("%s=%v accepted", name, p)
				}
				func() {
					defer func() {
						if recover() == nil {
							t.Errorf("NewReplayer accepted %s=%v", name, p)
						}
					}()
					NewReplayer(m, 1)
				}()
			}
		})
	}
}

// injectSites scans sites with an Injector the way an execution unit fires
// a word: Next finds each site that fires and Inject applies it to tb. It
// returns what Inject logged, each entry with the index of its site: a
// measurement flip is PauliI on the measured qubit.
func injectSites(in *Injector, tb *clifford.Tableau, sites []oracleSite) []oracleFault {
	chans := make([]Channel, len(sites))
	for i, s := range sites {
		chans[i] = s.ch
	}
	var out []oracleFault
	for k := in.Next(chans, 0); k < len(chans); k = in.Next(chans, k+1) {
		s := sites[k]
		before := len(in.Log())
		in.Inject(tb, s.ch, s.q, s.b, s.basisX)
		for _, f := range in.Log()[before:] {
			out = append(out, oracleFault{k, f.Qubit, f.Pauli})
		}
	}
	return out
}

// repeatSite returns count copies of one site.
func repeatSite(s oracleSite, count int) []oracleSite {
	sites := make([]oracleSite, count)
	for i := range sites {
		sites[i] = s
	}
	return sites
}

func TestZeroNoiseInjectsNothing(t *testing.T) {
	in := NewInjector(Uniform(0), 1)
	tb := clifford.New(4, rand.New(rand.NewSource(1)))
	for i := 0; i < 1000; i++ {
		faults := injectSites(in, tb, []oracleSite{
			{ch: ChanIdle, q: i % 4},
			{ch: ChanGate1, q: i % 4},
			{ch: ChanGate2, q: 0, b: 1},
			{ch: ChanPrep, q: 2, basisX: i%2 == 0},
			{ch: ChanMeas, q: 3},
		})
		for _, f := range faults {
			if f.p == clifford.PauliI {
				t.Fatal("measurement flipped at zero noise")
			}
		}
	}
	if len(in.Log()) != 0 {
		t.Fatalf("zero-noise injector logged %d faults", len(in.Log()))
	}
	for q := 0; q < 4; q++ {
		if tb.ExpectationZ(q) != 1 {
			t.Fatalf("zero-noise run disturbed qubit %d", q)
		}
	}
}

func TestCertainNoiseAlwaysInjects(t *testing.T) {
	in := NewInjector(Uniform(1), 1)
	tb := clifford.New(2, rand.New(rand.NewSource(1)))
	faults := injectSites(in, tb, []oracleSite{{ch: ChanIdle, q: 0}, {ch: ChanGate1, q: 1}, {ch: ChanMeas, q: 0}})
	if len(faults) == 0 || faults[len(faults)-1] != (oracleFault{2, 0, clifford.PauliI}) {
		t.Errorf("certain measurement noise did not flip: faults %v", faults)
	}
	if len(in.Log()) != 3 {
		t.Errorf("log has %d entries, want 3", len(in.Log()))
	}
}

func TestInjectionRateMatchesModel(t *testing.T) {
	const p = 0.1
	const trials = 20000
	in := NewInjector(Uniform(p), 7)
	tb := clifford.New(1, rand.New(rand.NewSource(1)))
	injectSites(in, tb, repeatSite(oracleSite{ch: ChanIdle}, trials))
	rate := float64(len(in.Log())) / trials
	if math.Abs(rate-p) > 0.01 {
		t.Errorf("observed idle fault rate %.4f, want ≈ %.2f", rate, p)
	}
}

func TestTwoQubitFaultsCoverBothQubits(t *testing.T) {
	in := NewInjector(Model{Gate2: 1}, 3)
	tb := clifford.New(2, rand.New(rand.NewSource(1)))
	seenA, seenB := false, false
	for i := 0; i < 500; i++ {
		in.ClearLog()
		injectSites(in, tb, []oracleSite{{ch: ChanGate2, q: 0, b: 1}})
		for _, f := range in.Log() {
			if f.Pauli == clifford.PauliI {
				t.Fatal("two-qubit fault logged identity Pauli")
			}
			switch f.Qubit {
			case 0:
				seenA = true
			case 1:
				seenB = true
			default:
				t.Fatalf("fault on unexpected qubit %d", f.Qubit)
			}
		}
		if len(in.Log()) == 0 {
			t.Fatal("certain two-qubit noise injected nothing")
		}
	}
	if !seenA || !seenB {
		t.Errorf("fault coverage: qubit0=%v qubit1=%v, want both", seenA, seenB)
	}
}

func TestPrepErrorBasis(t *testing.T) {
	// Z-basis prep error is an X flip; X-basis prep error is a Z flip.
	in := NewInjector(Model{Prep: 1}, 5)
	tb := clifford.New(2, rand.New(rand.NewSource(1)))
	injectSites(in, tb, []oracleSite{{ch: ChanPrep, q: 0}})
	if out := tb.MeasureZ(0); out != 1 {
		t.Error("Z-basis prep error did not flip |0>")
	}
	tb.H(1) // |+>
	injectSites(in, tb, []oracleSite{{ch: ChanPrep, q: 1, basisX: true}})
	if out := tb.MeasureX(1); out != 1 {
		t.Error("X-basis prep error did not flip |+>")
	}
}

func TestFaultLocationsStamped(t *testing.T) {
	in := NewInjector(Uniform(1), 9)
	tb := clifford.New(1, rand.New(rand.NewSource(1)))
	in.SetLocation(3, 7)
	injectSites(in, tb, []oracleSite{{ch: ChanIdle}})
	fs := in.Log()
	if len(fs) != 1 || fs[0].Cycle != 3 || fs[0].SubCycle != 7 || fs[0].Qubit != 0 {
		t.Errorf("fault stamp wrong: %+v", fs)
	}
	in.ClearLog()
	if len(in.Log()) != 0 {
		t.Error("ClearLog kept entries")
	}
}

func TestDeterministicReplay(t *testing.T) {
	var word []oracleSite
	for q := 0; q < 8; q++ {
		word = append(word, oracleSite{ch: ChanIdle, q: q})
	}
	word = append(word, oracleSite{ch: ChanGate2, q: 0, b: 1})
	run := func() []Fault {
		in := NewInjector(Uniform(0.3), 42)
		tb := clifford.New(8, rand.New(rand.NewSource(1)))
		for c := 0; c < 50; c++ {
			in.SetLocation(c, 0)
			injectSites(in, tb, word)
		}
		return append([]Fault(nil), in.Log()...)
	}
	a, b := run(), run()
	if len(a) != len(b) {
		t.Fatalf("replay lengths differ: %d vs %d", len(a), len(b))
	}
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("fault %d differs: %+v vs %+v", i, a[i], b[i])
		}
	}
	if len(a) == 0 {
		t.Fatal("no faults at p=0.3 over 400 locations")
	}
}

func TestPauliMixIsBalanced(t *testing.T) {
	in := NewInjector(Uniform(1), 11)
	tb := clifford.New(1, rand.New(rand.NewSource(1)))
	counts := map[clifford.Pauli]int{}
	injectSites(in, tb, repeatSite(oracleSite{ch: ChanGate1}, 3000))
	for _, f := range in.Log() {
		counts[f.Pauli]++
	}
	for _, p := range []clifford.Pauli{clifford.PauliX, clifford.PauliY, clifford.PauliZ} {
		frac := float64(counts[p]) / 3000
		if math.Abs(frac-1.0/3) > 0.05 {
			t.Errorf("Pauli %s fraction %.3f, want ≈ 1/3", p, frac)
		}
	}
	if counts[clifford.PauliI] != 0 {
		t.Error("gate error injected identity")
	}
}
