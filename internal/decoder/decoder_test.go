package decoder

import (
	"math/rand"
	"reflect"
	"testing"

	"quest/internal/awg"
	"quest/internal/clifford"
	"quest/internal/isa"
	"quest/internal/noise"
	"quest/internal/surface"
)

func TestHistoryDifferencing(t *testing.T) {
	lat := surface.NewPlanar(3)
	h := NewHistory(lat)
	a1 := lat.Qubits(surface.RoleAncillaZ)[0]
	a2 := lat.Qubits(surface.RoleAncillaX)[0]
	if d := h.Absorb(map[int]int{a1: 0, a2: 1}); len(d) != 0 {
		t.Errorf("first round produced %d defects", len(d))
	}
	if d := h.Absorb(map[int]int{a1: 0, a2: 1}); len(d) != 0 {
		t.Errorf("unchanged round produced %d defects", len(d))
	}
	d := h.Absorb(map[int]int{a1: 1, a2: 1})
	if len(d) != 1 || d[0].Qubit != a1 || d[0].IsX {
		t.Errorf("changed Z ancilla: defects = %+v", d)
	}
	if d[0].Round != 2 {
		t.Errorf("defect round = %d, want 2", d[0].Round)
	}
	h.Reset()
	if h.Round() != 0 {
		t.Error("Reset did not clear round counter")
	}
}

func TestPauliFrameToggles(t *testing.T) {
	f := NewPauliFrame()
	f.Apply(Correction{Qubit: 4, FlipX: true})
	if !f.XFlips()[4] {
		t.Error("X flip not recorded")
	}
	f.Apply(Correction{Qubit: 4, FlipX: true})
	if len(f.XFlips()) != 0 {
		t.Error("double correction did not cancel")
	}
	f.Apply(Correction{Qubit: 1, FlipX: false})
	f.Apply(Correction{Qubit: 3, FlipX: false})
	if got := f.ParityOn([]int{1, 2, 3}, false); got != 0 {
		t.Errorf("even parity = %d", got)
	}
	if got := f.ParityOn([]int{1, 2}, false); got != 1 {
		t.Errorf("odd parity = %d", got)
	}
	if got := f.ParityOn([]int{1, 2, 3}, true); got != 0 {
		t.Errorf("X parity = %d, want 0", got)
	}
}

func TestLocalDecoderPairLUT(t *testing.T) {
	lat := surface.NewPlanar(5)
	ld := NewLocalDecoder(lat)
	if ld.LUTSize() == 0 {
		t.Fatal("empty LUT")
	}
	// An interior data qubit sits between two Z ancillas (north/south) and
	// two X ancillas (west/east): its X error produces a Z-defect pair the
	// LUT must resolve to exactly that qubit.
	dq := lat.Index(4, 4)
	r, c := lat.Coord(dq)
	var zPair []int
	for _, dir := range []int{0, 3} {
		zPair = append(zPair, lat.Neighbor(r, c, dir))
	}
	defects := []Defect{
		mkDefect(lat, zPair[0], 1),
		mkDefect(lat, zPair[1], 1),
	}
	corr, residual := ld.Decode(defects)
	if len(residual) != 0 {
		t.Fatalf("LUT escalated a single-error pair: %+v", residual)
	}
	if len(corr) != 1 || corr[0].Qubit != dq || !corr[0].FlipX {
		t.Fatalf("correction = %+v, want X flip on %d", corr, dq)
	}
}

func mkDefect(lat surface.Lattice, q, round int) Defect {
	r, c := lat.Coord(q)
	return Defect{Round: round, Qubit: q, R: r, C: c, IsX: lat.RoleOf(q) == surface.RoleAncillaX}
}

func TestLocalDecoderBoundarySingle(t *testing.T) {
	lat := surface.NewPlanar(3)
	ld := NewLocalDecoder(lat)
	// Data qubit (0,0): an X error there flips only Z ancilla (1,0).
	a := lat.Index(1, 0)
	corr, residual := ld.Decode([]Defect{mkDefect(lat, a, 1)})
	if len(residual) != 0 || len(corr) != 1 {
		t.Fatalf("boundary single not resolved: corr=%v residual=%v", corr, residual)
	}
	if !corr[0].FlipX {
		t.Error("Z defect should yield an X correction")
	}
}

func TestLocalDecoderEscalatesComplexPatterns(t *testing.T) {
	lat := surface.NewPlanar(5)
	ld := NewLocalDecoder(lat)
	// Three same-type defects must escalate.
	zs := lat.Qubits(surface.RoleAncillaZ)
	defects := []Defect{mkDefect(lat, zs[0], 1), mkDefect(lat, zs[3], 1), mkDefect(lat, zs[5], 1)}
	corr, residual := ld.Decode(defects)
	if len(corr) != 0 || len(residual) != 3 {
		t.Errorf("3-defect group: corr=%d residual=%d, want 0/3", len(corr), len(residual))
	}
	// A far-apart pair (no shared data qubit) must escalate.
	far := []Defect{mkDefect(lat, zs[0], 1), mkDefect(lat, zs[len(zs)-1], 1)}
	corr, residual = ld.Decode(far)
	if len(corr) != 0 || len(residual) != 2 {
		t.Errorf("far pair: corr=%d residual=%d, want 0/2", len(corr), len(residual))
	}
	// Mixed X and Z singles decode independently.
	xs := lat.Qubits(surface.RoleAncillaX)
	mixed := []Defect{mkDefect(lat, lat.Index(1, 0), 1), mkDefect(lat, xs[0], 1)}
	corr, _ = ld.Decode(mixed)
	if len(corr) == 0 {
		t.Error("mixed-type singles: nothing resolved")
	}
}

func TestExactMatchOptimality(t *testing.T) {
	lat := surface.NewPlanar(5) // 9x9
	g := NewGlobalDecoder(lat)
	// Two adjacent Z-ancilla defects: pairing (weight 1) beats two boundary
	// matches (weight 1+1).
	d1 := mkDefect(lat, lat.Index(3, 4), 1)
	d2 := mkDefect(lat, lat.Index(5, 4), 1)
	m := g.Match([]Defect{d1, d2})
	if len(m.Pairs) != 1 || m.Weight != 1 {
		t.Errorf("adjacent pair: %+v", m)
	}
	// Two defects each hugging opposite boundaries: boundary matching wins.
	b1 := mkDefect(lat, lat.Index(1, 0), 1)
	b2 := mkDefect(lat, lat.Index(7, 8), 1)
	m = g.Match([]Defect{b1, b2})
	if len(m.ToBoundary) != 2 {
		t.Errorf("boundary-hugging defects paired: %+v", m)
	}
	// Empty input.
	if m := g.Match(nil); m.Weight != 0 || len(m.Pairs) != 0 {
		t.Errorf("empty match: %+v", m)
	}
}

func TestExactVsGreedyAgreeOnEasyCases(t *testing.T) {
	lat := surface.NewPlanar(7)
	g := NewGlobalDecoder(lat)
	rng := rand.New(rand.NewSource(5))
	zs := lat.Qubits(surface.RoleAncillaZ)
	for trial := 0; trial < 50; trial++ {
		n := 2 + rng.Intn(5)*2
		var defects []Defect
		seen := map[int]bool{}
		for len(defects) < n {
			q := zs[rng.Intn(len(zs))]
			if seen[q] {
				continue
			}
			seen[q] = true
			defects = append(defects, mkDefect(lat, q, 1))
		}
		exact := g.exactMatch(defects)
		greedy := g.greedyMatch(defects)
		if greedy.Weight < exact.Weight {
			t.Fatalf("greedy (%d) beat exact (%d): impossible", greedy.Weight, exact.Weight)
		}
	}
}

func TestMatchRejectsMixedTypes(t *testing.T) {
	lat := surface.NewPlanar(3)
	g := NewGlobalDecoder(lat)
	defer func() {
		if recover() == nil {
			t.Error("mixed-type Match did not panic")
		}
	}()
	g.Match([]Defect{
		mkDefect(lat, lat.Qubits(surface.RoleAncillaZ)[0], 1),
		mkDefect(lat, lat.Qubits(surface.RoleAncillaX)[0], 1),
	})
}

func TestCorrectionChainsLandOnDataQubits(t *testing.T) {
	lat := surface.NewPlanar(5)
	g := NewGlobalDecoder(lat)
	rng := rand.New(rand.NewSource(9))
	for _, role := range []surface.Role{surface.RoleAncillaZ, surface.RoleAncillaX} {
		as := lat.Qubits(role)
		for trial := 0; trial < 40; trial++ {
			var defects []Defect
			seen := map[int]bool{}
			for len(defects) < 4 {
				q := as[rng.Intn(len(as))]
				if seen[q] {
					continue
				}
				seen[q] = true
				defects = append(defects, mkDefect(lat, q, trial))
			}
			m := g.Match(defects)
			corr := g.Corrections(defects, m)
			if err := ChainIsValid(lat, corr); err != nil {
				t.Fatalf("%s trial %d: %v", role, trial, err)
			}
		}
	}
}

func TestMeasurementErrorPairNeedsNoDataCorrection(t *testing.T) {
	// A flipped measurement shows as two defects on the SAME ancilla in
	// consecutive rounds; matching them costs 1 (time) and must emit no data
	// corrections.
	lat := surface.NewPlanar(5)
	g := NewGlobalDecoder(lat)
	a := lat.Index(3, 4)
	d1 := mkDefect(lat, a, 3)
	d2 := mkDefect(lat, a, 4)
	m := g.Match([]Defect{d1, d2})
	if len(m.Pairs) != 1 || m.Weight != 1 {
		t.Fatalf("time pair: %+v", m)
	}
	if corr := g.Corrections([]Defect{d1, d2}, m); len(corr) != 0 {
		t.Errorf("time-like pair emitted %d data corrections", len(corr))
	}
}

// decodeRound is the production per-round decode at window 1: the local
// LUT resolves what it can into the frame, and the residual goes straight
// through a one-round window to the global matcher.
func decodeRound(ld *LocalDecoder, win *WindowDecoder, frame *PauliFrame, defects []Defect) {
	resolved, residual := ld.Decode(defects)
	for _, c := range resolved {
		frame.Apply(c)
	}
	win.Absorb(residual, frame)
}

// runFullCycle executes one compiled QECC cycle and returns syndromes.
func runFullCycle(u *awg.ExecutionUnit, words []isa.VLIW) map[int]int {
	synd := make(map[int]int)
	u.MeasSink = func(q, bit int) { synd[q] = bit }
	for _, w := range words {
		u.ExecuteWord(w)
	}
	return synd
}

// TestEndToEndSingleErrorRecovery injects one Pauli error on every data
// qubit in turn, runs the QECC cycle, decodes, and verifies the Pauli frame
// plus the substrate state restores the logical Z/X observables exactly.
func TestEndToEndSingleErrorRecovery(t *testing.T) {
	lat := surface.NewPlanar(3)
	words := surface.CompileCycle(lat, surface.Steane, nil)
	ld := NewLocalDecoder(lat)
	win := NewWindowDecoder(NewGlobalDecoder(lat), 1)
	for _, dq := range lat.Qubits(surface.RoleData) {
		for _, p := range []clifford.Pauli{clifford.PauliX, clifford.PauliZ} {
			tb := clifford.New(lat.NumQubits(), rand.New(rand.NewSource(int64(dq*3)+int64(p))))
			u := awg.New(tb, nil)
			h := NewHistory(lat)
			frame := NewPauliFrame()
			// Two clean rounds to establish the reference.
			h.Absorb(runFullCycle(u, words))
			h.Absorb(runFullCycle(u, words))
			tb.ApplyPauli(dq, p)
			defects := h.Absorb(runFullCycle(u, words))
			if len(defects) == 0 {
				t.Fatalf("qubit %d %s: error produced no defects", dq, p)
			}
			decodeRound(ld, win, frame, defects)
			// Check: frame-corrected logical Z expectation must be +1.
			logZ := lat.LogicalZ()
			logX := lat.LogicalX()
			rawZ := tb.MeasureObservable(nil, logZ)
			rawX := tb.MeasureObservable(logX, nil)
			wantZ := 1 - 2*frame.ParityOn(logZ, true)  // X flips affect Z parity
			wantX := 1 - 2*frame.ParityOn(logX, false) // Z flips affect X parity
			if rawZ != 0 && rawZ != wantZ {
				t.Errorf("qubit %d %s: logical Z %d, frame predicts %d", dq, p, rawZ, wantZ)
			}
			if rawX != 0 && rawX != wantX {
				t.Errorf("qubit %d %s: logical X %d, frame predicts %d", dq, p, rawX, wantX)
			}
		}
	}
}

// TestLogicalErrorRateBelowThreshold runs many noisy QECC cycles at a low
// physical error rate and verifies the decoder keeps the logical failure
// rate well below the raw physical rate — the qualitative correctness of the
// whole QECC substrate.
func TestLogicalErrorRateBelowThreshold(t *testing.T) {
	if testing.Short() {
		t.Skip("statistical test")
	}
	lat := surface.NewPlanar(3)
	words := surface.CompileCycle(lat, surface.Steane, nil)
	const trials = 60
	const rounds = 6
	const p = 2e-3
	failures := 0
	for trial := 0; trial < trials; trial++ {
		tb := clifford.New(lat.NumQubits(), rand.New(rand.NewSource(int64(trial))))
		inj := noise.NewInjector(noise.Model{Gate1: p, Gate2: p, Idle: p}, int64(trial)*7+1)
		u := awg.New(tb, inj)
		// Project into the codespace noiselessly first.
		clean := awg.New(tb, nil)
		runFullCycle(clean, words)
		h := NewHistory(lat)
		h.Absorb(runFullCycle(clean, words))
		ld := NewLocalDecoder(lat)
		win := NewWindowDecoder(NewGlobalDecoder(lat), 1)
		frame := NewPauliFrame()
		for round := 0; round < rounds; round++ {
			inj.SetLocation(round, 0)
			defects := h.Absorb(runFullCycle(u, words))
			decodeRound(ld, win, frame, defects)
		}
		// Final noiseless round to flush.
		defects := h.Absorb(runFullCycle(clean, words))
		decodeRound(ld, win, frame, defects)
		logZ := lat.LogicalZ()
		raw := tb.MeasureObservable(nil, logZ)
		want := 1 - 2*frame.ParityOn(logZ, true)
		if raw != 0 && raw != want {
			failures++
		}
	}
	// ~40 noisy locations/round × 6 rounds × p=2e-3 ≈ 0.5 faults/trial;
	// an uncorrected substrate would fail a large fraction of trials. Demand
	// better than 25%.
	if frac := float64(failures) / trials; frac > 0.25 {
		t.Errorf("logical failure fraction %.2f too high — decoder ineffective", frac)
	}
}

func BenchmarkExactMatch10(b *testing.B) {
	lat := surface.NewPlanar(9)
	g := NewGlobalDecoder(lat)
	rng := rand.New(rand.NewSource(1))
	zs := lat.Qubits(surface.RoleAncillaZ)
	var defects []Defect
	seen := map[int]bool{}
	for len(defects) < 10 {
		q := zs[rng.Intn(len(zs))]
		if seen[q] {
			continue
		}
		seen[q] = true
		defects = append(defects, mkDefect(lat, q, len(defects)))
	}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		g.exactMatch(defects)
	}
}

func BenchmarkFrameToggle(b *testing.B) {
	frame := NewPauliFrame()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		q := i & 1023
		frame.Apply(Correction{Qubit: q, FlipX: i&1 == 0})
	}
}

func TestWeightedMatchingPrefersMeasurementErrorExplanation(t *testing.T) {
	lat := surface.NewPlanar(5)
	g := NewGlobalDecoder(lat)
	// Same ancilla, consecutive rounds, far from the boundary: a time-like
	// pair, which matches as one edge of weight 1 (a measurement error)
	// rather than as two boundary chains.
	a := lat.Index(5, 4)
	ds := []Defect{mkDefect(lat, a, 1), mkDefect(lat, a, 2)}
	m := g.Match(ds)
	if m.Weight != 1 || len(m.Pairs) != 1 {
		t.Fatalf("unit weights: %+v", m)
	}
	// Geometry check: two boundary-hugging defects 2 space-steps apart tie
	// between pairing (weight 2) and two boundary matches (1+1); either
	// resolution must carry the optimal weight and valid chains.
	b1 := mkDefect(lat, lat.Index(1, 0), 1)
	b2 := mkDefect(lat, lat.Index(1, 4), 1)
	m2 := g.Match([]Defect{b1, b2})
	if m2.Weight != 2 {
		t.Fatalf("unit-weight geometry: weight %d, want 2: %+v", m2.Weight, m2)
	}
	if err := ChainIsValid(lat, g.Corrections([]Defect{b1, b2}, m2)); err != nil {
		t.Fatal(err)
	}
}

// TestLocalDecoderConstructionDeterministic pins the sorted-iteration fix in
// NewLocalDecoder: table construction used to range Go maps (data qubit →
// adjacent ancillas, ancilla role groups), so when more than one data qubit
// could claim a LUT slot, which one won was decided by map iteration order —
// different decoders for the same lattice could disagree. Build many and
// require the tables identical. (reflect.DeepEqual on maps is content-based,
// so this catches divergent contents, not merely divergent ordering.)
func TestLocalDecoderConstructionDeterministic(t *testing.T) {
	for _, d := range []int{3, 5, 7} {
		lat := surface.NewPlanar(d)
		first := NewLocalDecoder(lat)
		for i := 1; i < 25; i++ {
			ld := NewLocalDecoder(lat)
			if !reflect.DeepEqual(ld.lut, first.lut) {
				t.Fatalf("d=%d build %d: pair LUT differs from first build", d, i)
			}
			if !reflect.DeepEqual(ld.boundaryLUT, first.boundaryLUT) {
				t.Fatalf("d=%d build %d: boundary LUT differs from first build", d, i)
			}
		}
	}
}
