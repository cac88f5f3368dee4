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

func TestZeroNoiseInjectsNothing(t *testing.T) {
	in := NewInjector(Uniform(0), 1)
	tb := clifford.New(4, rand.New(rand.NewSource(1)))
	for i := 0; i < 1000; i++ {
		in.Idle(tb, i%4)
		in.AfterGate1(tb, i%4)
		in.AfterGate2(tb, 0, 1)
		in.AfterPrep(tb, 2, i%2 == 0)
		if in.FlipMeasurement(3) {
			t.Fatal("measurement flipped at zero noise")
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
	in.Idle(tb, 0)
	in.AfterGate1(tb, 1)
	if !in.FlipMeasurement(0) {
		t.Error("certain measurement noise did not flip")
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
	for i := 0; i < trials; i++ {
		in.Idle(tb, 0)
	}
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
		in.AfterGate2(tb, 0, 1)
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
	in.AfterPrep(tb, 0, false)
	if out := tb.MeasureZ(0); out != 1 {
		t.Error("Z-basis prep error did not flip |0>")
	}
	tb.H(1) // |+>
	in.AfterPrep(tb, 1, true)
	if out := tb.MeasureX(1); out != 1 {
		t.Error("X-basis prep error did not flip |+>")
	}
}

func TestFaultLocationsStamped(t *testing.T) {
	in := NewInjector(Uniform(1), 9)
	tb := clifford.New(1, rand.New(rand.NewSource(1)))
	in.SetLocation(3, 7)
	in.Idle(tb, 0)
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
	run := func() []Fault {
		in := NewInjector(Uniform(0.3), 42)
		tb := clifford.New(8, rand.New(rand.NewSource(1)))
		for c := 0; c < 50; c++ {
			in.SetLocation(c, 0)
			for q := 0; q < 8; q++ {
				in.Idle(tb, q)
			}
			in.AfterGate2(tb, 0, 1)
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
	for i := 0; i < 3000; i++ {
		in.AfterGate1(tb, 0)
	}
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
