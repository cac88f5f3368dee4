package decoder

import (
	"math"
	"math/rand"
	"reflect"
	"slices"
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
	corr, residual := ld.Decode(defects, nil, nil)
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
	corr, residual := ld.Decode([]Defect{mkDefect(lat, a, 1)}, nil, nil)
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
	corr, residual := ld.Decode(defects, nil, nil)
	if len(corr) != 0 || len(residual) != 3 {
		t.Errorf("3-defect group: corr=%d residual=%d, want 0/3", len(corr), len(residual))
	}
	// A far-apart pair (no shared data qubit) must escalate.
	far := []Defect{mkDefect(lat, zs[0], 1), mkDefect(lat, zs[len(zs)-1], 1)}
	corr, residual = ld.Decode(far, nil, nil)
	if len(corr) != 0 || len(residual) != 2 {
		t.Errorf("far pair: corr=%d residual=%d, want 0/2", len(corr), len(residual))
	}
	// Mixed X and Z singles decode independently.
	xs := lat.Qubits(surface.RoleAncillaX)
	mixed := []Defect{mkDefect(lat, lat.Index(1, 0), 1), mkDefect(lat, xs[0], 1)}
	corr, _ = ld.Decode(mixed, nil, nil)
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

// exactMatchFullTable is the exact matcher's former body, kept as its test
// oracle: a bottom-up DP that fills all 2ⁿ subset states. Each state
// resolves its lowest defect to the boundary first, then pairs it with
// each other member in ascending order, keeping the first strict minimum.
func exactMatchFullTable(lat surface.Lattice, defects []Defect) Matching {
	n := len(defects)
	if n == 0 {
		return Matching{}
	}
	const inf = math.MaxInt32
	full := 1 << n
	dp := make([]int32, full)
	choice := make([]int32, full) // the decision taken at each state
	for s := 1; s < full; s++ {
		dp[s] = inf
	}
	for s := 1; s < full; s++ {
		i := 0
		for s&(1<<i) == 0 {
			i++
		}
		rest := s &^ (1 << i)
		if w := int32(boundaryDistance(lat, defects[i])) + dp[rest]; w < dp[s] {
			dp[s] = w
			choice[s] = -1
		}
		for j := i + 1; j < n; j++ {
			if s&(1<<j) == 0 {
				continue
			}
			if w := int32(pairCost(defects[i], defects[j])) + dp[rest&^(1<<j)]; w < dp[s] {
				dp[s] = w
				choice[s] = int32(j)
			}
		}
	}
	var m Matching
	for s := full - 1; s != 0; {
		i := 0
		for s&(1<<i) == 0 {
			i++
		}
		if choice[s] < 0 {
			m.ToBoundary = append(m.ToBoundary, i)
			s &^= 1 << i
		} else {
			j := int(choice[s])
			m.Pairs = append(m.Pairs, [2]int{i, j})
			s &^= 1<<i | 1<<j
		}
	}
	m.Weight = int(dp[full-1])
	return m
}

// TestExactMatchMatchesFullTable holds the memoized exact matcher to the
// full-table DP it replaced. On d=3, 5 and 7 lattices, for each defect type
// and n = 0…MaxExact defects over rounds 0…d, Pairs, ToBoundary and Weight
// must be identical, ties and their breaking included. The sets are drawn
// three ways: freely; from three (ancilla, round) sites, so coordinates
// repeat; and in mirror pairs about the patch centre, so boundary and pair
// costs tie. One decoder serves every call of a lattice, so a memo entry
// that outlived its call would show. Each lattice opens with two MaxExact
// sets between which the memo's generation counter wraps back to the value
// the first call used.
func TestExactMatchMatchesFullTable(t *testing.T) {
	const perKind = 4
	rng := rand.New(rand.NewSource(24))
	for _, d := range []int{3, 5, 7} {
		lat := surface.NewPlanar(d)
		g := NewGlobalDecoder(lat)
		check := func(defects []Defect) {
			t.Helper()
			got, want := g.exactMatch(defects), exactMatchFullTable(lat, defects)
			if got.Weight != want.Weight || !slices.Equal(got.Pairs, want.Pairs) || !slices.Equal(got.ToBoundary, want.ToBoundary) {
				t.Fatalf("d=%d: memoized %+v, full table %+v\ndefects %+v", d, got, want, defects)
			}
		}
		for _, role := range []surface.Role{surface.RoleAncillaZ, surface.RoleAncillaX} {
			anc := lat.Qubits(role)
			site := func() Defect { return mkDefect(lat, anc[rng.Intn(len(anc))], rng.Intn(d+1)) }
			// mirror reflects a defect through the centre row, column or
			// both; reflections keep parity, so the role is unchanged.
			mirror := func(a Defect) Defect {
				r, c := a.R, a.C
				switch rng.Intn(3) {
				case 0:
					r = lat.Rows - 1 - r
				case 1:
					c = lat.Cols - 1 - c
				default:
					r, c = lat.Rows-1-r, lat.Cols-1-c
				}
				return mkDefect(lat, lat.Index(r, c), a.Round)
			}
			if role == surface.RoleAncillaZ {
				for k := 0; k < 2; k++ {
					defects := make([]Defect, MaxExact)
					for i := range defects {
						defects[i] = site()
					}
					check(defects)
					if k == 0 {
						g.gen = math.MaxUint16
					}
				}
			}
			for n := 0; n <= MaxExact; n++ {
				for k := 0; k < 3*perKind; k++ {
					defects := make([]Defect, 0, n)
					pool := [3]Defect{site(), site(), site()}
					for len(defects) < n {
						switch k % 3 {
						case 0:
							defects = append(defects, site())
						case 1:
							defects = append(defects, pool[rng.Intn(len(pool))])
						default:
							a := site()
							defects = append(defects, a)
							if len(defects) < n {
								defects = append(defects, mirror(a))
							}
						}
					}
					check(defects)
				}
			}
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
	resolved, residual := ld.Decode(defects, nil, nil)
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

// TestD3DecodeFailsUnderAQuarterOfTrials runs 60 trials of six noisy d=3
// QECC rounds at p=2e-3 through the local and one-round window decoders and
// asks only that fewer than a quarter of them end with a wrong logical Z.
// It is a smoke test of the whole decode path, not a threshold or
// logical-error-rate claim.
func TestD3DecodeFailsUnderAQuarterOfTrials(t *testing.T) {
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

// zDefects picks n Z-ancilla defects without an RNG: every other ancilla,
// wrapping into the next round once the lattice runs out.
func zDefects(lat surface.Lattice, n int) []Defect {
	zs := lat.Qubits(surface.RoleAncillaZ)
	defects := make([]Defect, 0, n)
	for i := 0; len(defects) < n; i += 2 {
		defects = append(defects, mkDefect(lat, zs[i%len(zs)], i/len(zs)))
	}
	return defects
}

// BenchmarkLUTWindow1 times the per-round decode at d=5: the local LUT
// first, its residual through a one-round window. /hit decodes a Y error on
// a bulk data qubit, two same-round pairs the LUT resolves, so nothing
// reaches the window; /miss decodes two defects that form no LUT pattern,
// so both escalate and the window matches them.
func BenchmarkLUTWindow1(b *testing.B) {
	lat := surface.NewPlanar(5)
	ld := NewLocalDecoder(lat)
	dq := lat.Index(4, 4)
	var hit []Defect
	for _, role := range []surface.Role{surface.RoleAncillaX, surface.RoleAncillaZ} {
		for _, a := range lat.Qubits(role) {
			if slices.Contains(lat.StabilizerSupport(a), dq) {
				hit = append(hit, mkDefect(lat, a, 0))
			}
		}
	}
	for _, c := range []struct {
		name               string
		defects            []Defect
		resolved, residual int
	}{{"hit", hit, 2, 0}, {"miss", zDefects(lat, 2), 0, 2}} {
		b.Run(c.name, func(b *testing.B) {
			if resolved, residual := ld.Decode(c.defects, nil, nil); len(resolved) != c.resolved || len(residual) != c.residual {
				b.Fatalf("the LUT resolves %d corrections and leaves %d defects, want %d and %d",
					len(resolved), len(residual), c.resolved, c.residual)
			}
			win := NewWindowDecoder(NewGlobalDecoder(lat), 1)
			frame := NewPauliFrame()
			var resolved []Correction
			var residual []Defect
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				resolved, residual = ld.Decode(c.defects, resolved[:0], residual[:0])
				for _, corr := range resolved {
					frame.Apply(corr)
				}
				win.Absorb(residual, frame)
			}
		})
	}
}

// BenchmarkWindowFlush times six rounds buffered into a d=7 window and
// matched by one Flush: two Z defects per round at distinct sites, twelve
// in all, within MaxExact, so this times the exact matcher.
func BenchmarkWindowFlush(b *testing.B) {
	lat := surface.NewPlanar(7)
	win := NewWindowDecoder(NewGlobalDecoder(lat), 7)
	frame := NewPauliFrame()
	rng := rand.New(rand.NewSource(1))
	zs := lat.Qubits(surface.RoleAncillaZ)
	rounds := make([][]Defect, 6)
	total := 0
	for r := range rounds {
		for _, k := range rng.Perm(len(zs))[:2] {
			rounds[r] = append(rounds[r], mkDefect(lat, zs[k], r))
		}
		total += len(rounds[r])
	}
	if total > MaxExact {
		b.Fatalf("%d defects in the window, past MaxExact %d", total, MaxExact)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for _, round := range rounds {
			win.Absorb(round, frame)
		}
		win.Flush(frame)
	}
}

// BenchmarkHistoryAbsorbRound times syndrome differencing of one dense d=7
// round with every Z ancilla measured. The round repeats, so past the first
// it yields no defects: this times the scan.
func BenchmarkHistoryAbsorbRound(b *testing.B) {
	lat := surface.NewPlanar(7)
	hist := NewHistory(lat)
	words := (lat.NumQubits() + 63) / 64
	measured, outcomes := make([]uint64, words), make([]uint64, words)
	for i, q := range lat.Qubits(surface.RoleAncillaZ) {
		measured[q>>6] |= 1 << (q & 63)
		outcomes[q>>6] |= uint64(i&1) << (q & 63)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		hist.AbsorbRound(measured, outcomes)
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
