package noise

import (
	"math"
	"math/rand"
	"reflect"
	"slices"
	"testing"

	"quest/internal/clifford"
)

// floatOracle is the fault protocol the sampler replaces, kept as its test
// oracle: every channel draws math/rand's Float64() and fires below its
// probability, then picks its Pauli with Intn — the channel code Injector
// and Replayer ran before they shared the integer-threshold sampler.
type floatOracle struct {
	model Model
	rng   *rand.Rand
}

func newFloatOracle(m Model, seed int64) *floatOracle {
	return &floatOracle{model: m, rng: rand.New(rand.NewSource(seed))}
}

func (o *floatOracle) idle() (clifford.Pauli, bool) {
	if o.rng.Float64() < o.model.Idle {
		return clifford.Pauli(1 + o.rng.Intn(3)), true
	}
	return clifford.PauliI, false
}

func (o *floatOracle) gate1() (clifford.Pauli, bool) {
	if o.rng.Float64() < o.model.Gate1 {
		return clifford.Pauli(1 + o.rng.Intn(3)), true
	}
	return clifford.PauliI, false
}

func (o *floatOracle) gate2() (pa, pb clifford.Pauli, ok bool) {
	if o.rng.Float64() >= o.model.Gate2 {
		return clifford.PauliI, clifford.PauliI, false
	}
	k := 1 + o.rng.Intn(15) // 4*pa+pb, excluding (I,I)
	return clifford.Pauli(k >> 2), clifford.Pauli(k & 3), true
}

func (o *floatOracle) prep(basisX bool) (clifford.Pauli, bool) {
	if o.rng.Float64() >= o.model.Prep {
		return clifford.PauliI, false
	}
	if basisX {
		return clifford.PauliZ, true
	}
	return clifford.PauliX, true
}

func (o *floatOracle) meas() bool {
	return o.rng.Float64() < o.model.Meas
}

// oracleSite is one site of a random site sequence.
type oracleSite struct {
	ch     Channel
	q, b   int
	basisX bool
}

// oracleFault is one sampled fault: the site index, the qubit it lands on
// and the Pauli (PauliI for a measurement flip).
type oracleFault struct {
	site, q int
	p       clifford.Pauli
}

// sampleOracle runs the oracle over sites, applying every Pauli fault to tb
// when it is non-nil, and returns the fault list.
func sampleOracle(m Model, seed int64, sites []oracleSite, tb *clifford.Tableau) []oracleFault {
	o := newFloatOracle(m, seed)
	var out []oracleFault
	add := func(k, q int, p clifford.Pauli) {
		out = append(out, oracleFault{k, q, p})
		if tb != nil && p != clifford.PauliI {
			tb.ApplyPauli(q, p)
		}
	}
	for k, s := range sites {
		switch s.ch {
		case ChanIdle:
			if p, ok := o.idle(); ok {
				add(k, s.q, p)
			}
		case ChanGate1:
			if p, ok := o.gate1(); ok {
				add(k, s.q, p)
			}
		case ChanGate2:
			if pa, pb, ok := o.gate2(); ok {
				if pa != clifford.PauliI {
					add(k, s.q, pa)
				}
				if pb != clifford.PauliI {
					add(k, s.b, pb)
				}
			}
		case ChanPrep:
			if p, ok := o.prep(s.basisX); ok {
				add(k, s.q, p)
			}
		case ChanMeas:
			if o.meas() {
				add(k, s.q, clifford.PauliI)
			}
		}
	}
	return out
}

// oracleModels are the models the oracle comparisons run: uniform rates
// from never to always firing, a non-uniform model with a dead channel, a
// heavy one and a certain one, and a non-uniform model with no certain
// channel. The scan compares each draw against the model's largest stop.
// In the uniform models a draw below that bound always fires or redraws,
// and the certain channel puts every draw below it; only the last model
// mixes draws at or above the bound with draws below it that miss at
// their own site.
var oracleModels = []Model{
	Uniform(0), Uniform(1e-4), Uniform(2e-3), Uniform(1),
	{Idle: 1e-2, Gate1: 0, Gate2: 0.3, Prep: 1, Meas: 0.05},
	{Idle: 2e-3, Gate1: 5e-4, Gate2: 0.1, Prep: 1e-3, Meas: 0.02},
}

// oracleSeeds returns n injector seeds: math/rand's seeding edge cases,
// then random values.
func oracleSeeds(n int) []int64 {
	seeds := []int64{0, 1, -1, lehmerM, lehmerM - 1, zeroSeed, math.MaxInt64, math.MinInt64}
	pick := rand.New(rand.NewSource(19))
	for len(seeds) < n {
		seeds = append(seeds, int64(pick.Uint64()))
	}
	return seeds
}

// randomSites draws a random site-kind sequence over n qubits.
func randomSites(rng *rand.Rand, count, n int) []oracleSite {
	sites := make([]oracleSite, count)
	for i := range sites {
		q := rng.Intn(n)
		sites[i] = oracleSite{
			ch: Channel(rng.Intn(int(numChannels))), q: q, b: (q + 1 + rng.Intn(n-1)) % n,
			basisX: rng.Intn(2) == 1,
		}
	}
	return sites
}

// TestSamplerMatchesFloat64Oracle pins the sampler to the Float64 protocol
// it replaces, on every way the scan is driven: the Replayer site by site
// (one-site channel lists), the Replayer's Next scan over the whole
// sequence with Fault, and the Injector's scan with Inject (its log and the
// tableau it drives), each over 2,000 seeds of random site-kind sequences
// and every oracle model. Every eighth sequence is long enough for the scan
// to cross the generator register's wrap-around several times. The fault
// lists must be identical; a single extra or missing draw anywhere
// desynchronizes them.
func TestSamplerMatchesFloat64Oracle(t *testing.T) {
	const n, short, long = 6, 150, 1500
	rng := rand.New(rand.NewSource(20261017))
	for _, m := range oracleModels {
		hits := 0
		for i, seed := range oracleSeeds(2000) {
			count := short
			if i%8 == 0 {
				count = long
			}
			sites := randomSites(rng, count, n)
			wantTb := clifford.New(n, rand.New(rand.NewSource(1)))
			want := sampleOracle(m, seed, sites, wantTb)
			hits += len(want)

			var perSite []oracleFault
			rep := NewReplayer(m, seed)
			for k := range sites {
				for _, f := range replaySites(rep, sites[k:k+1]) {
					perSite = append(perSite, oracleFault{k, f.q, f.p})
				}
			}
			if !reflect.DeepEqual(perSite, want) {
				t.Fatalf("%+v seed %d: Replayer site by site %v, Float64 oracle %v", m, seed, perSite, want)
			}

			rep.Reset(m, seed)
			if scan := replaySites(rep, sites); !reflect.DeepEqual(scan, want) {
				t.Fatalf("%+v seed %d: Next scan %v, Float64 oracle %v", m, seed, scan, want)
			}

			tb := clifford.New(n, rand.New(rand.NewSource(1)))
			if logged := injectSites(NewInjector(m, seed), tb, sites); !reflect.DeepEqual(logged, want) {
				t.Fatalf("%+v seed %d: Injector log %v, Float64 oracle %v", m, seed, logged, want)
			}
			if !reflect.DeepEqual(tb, wantTb) {
				t.Fatalf("%+v seed %d: Injector tableau differs from the oracle's", m, seed)
			}
		}
		if m.Idle > 0 && hits == 0 {
			t.Errorf("%+v: no faults over every seed; the comparison exercises nothing", m)
		}
	}
}

// TestThresholdMatchesFloat64 pins the integer thresholds to Float64's
// comparison at and around every boundary: for each p, u < t(p) must agree
// with float64(u)/2⁶³ < p at u = 0, t−1, t, t+1, R−1, R and 2⁶³−1, where R
// (redrawAt) must be the least u Float64 rounds to 1; and the scan, handed
// each u below R as its next output, must fire exactly when Float64 would.
func TestThresholdMatchesFloat64(t *testing.T) {
	const top = 1<<63 - 1
	if got := threshold(1); got != redrawAt {
		t.Fatalf("threshold(1) = %d, redrawAt = %d", got, uint64(redrawAt))
	}
	if float64(uint64(redrawAt))/(1<<63) != 1 || float64(uint64(redrawAt-1))/(1<<63) >= 1 {
		t.Fatalf("redrawAt %d is not the least u with float64(u)/2⁶³ = 1", uint64(redrawAt))
	}
	for _, p := range []float64{0, 5e-324, 1e-4, 5e-4, 1e-3, 2e-3, 0.5, math.Nextafter(1, 0), 1} {
		tp := threshold(p)
		for _, u := range []uint64{0, tp - 1, tp, tp + 1, redrawAt - 1, redrawAt, top} {
			if u > top { // tp-1 below zero wraps
				continue
			}
			want := float64(u)/(1<<63) < p
			if got := u < tp; got != want {
				t.Errorf("p=%v u=%d: u < t(p)=%d is %v, Float64 compare %v", p, u, tp, got, want)
			}
			if u >= redrawAt {
				continue // Float64 draws again; TestRedrawConsumesTwoDraws covers it
			}
			// The scan, handed u as its next Int63, fires exactly when
			// Float64 would.
			var scan sampler
			scan.init(Model{Meas: p}, 3)
			s := &scan.src
			s.vec[(s.feed-1+lfgLen)%lfgLen] = int64(u) - s.vec[(s.tap-1+lfgLen)%lfgLen]
			if got := scan.next([]Channel{ChanMeas}, 0) == 0; got != want {
				t.Errorf("p=%v u=%d: the scan fires %v, Float64 compare %v", p, u, got, want)
			}
		}
	}
}

// forceCase forces one register output at a chosen site of an
// all-measurement site sequence at rate p: the draw of site `site` is set to
// u. The scan reaches that site in one call that starts at site `from`
// (from ≤ site < from+334), so the forced draw lands where a run starting
// at `from` puts it: inside a block of four or in the draws a run leaves
// after its last full block. From a fresh seed, sites 0–3 are the first
// block's four positions, and 332, 333 and 606 are such leftover draws
// before the feed and the tap index wrap.
type forceCase struct {
	p          float64
	u          uint64
	from, site int
}

// forceAhead makes the k-th next output of s be u, for k < 334, and leaves
// the k outputs before it as they were: the word the k-th draw reads as its
// feed is read by none of them.
func forceAhead(s *fastSource, k int, u uint64) {
	ahead := *s
	for i := 0; i < k; i++ {
		ahead.Uint64()
	}
	tap := ((ahead.tap-1)%lfgLen + lfgLen) % lfgLen
	feed := ((ahead.feed-1)%lfgLen + lfgLen) % lfgLen
	s.vec[feed] = int64(u) - ahead.vec[tap]
}

// checkForced runs one forceCase over every draw path and checks that the
// scan — over the whole sequence, and site by site over one-site lists —
// fires exactly where rand.New(src).Float64() < p does, that Float64 drew
// `draws` outputs at the forced site, and that every path leaves the source
// where math/rand's would be. It reports whether the forced site fired. The
// sites are measurement sites, whose hits draw no Pauli.
func checkForced(t *testing.T, tc forceCase, draws int) (fired bool) {
	t.Helper()
	same := func(a, b *fastSource) bool {
		return a.vec == b.vec && (a.tap-b.tap)%lfgLen == 0 && (a.feed-b.feed)%lfgLen == 0
	}
	const sites = 1400
	chans := make([]Channel, sites)
	for i := range chans {
		chans[i] = ChanMeas
	}
	m := Model{Meas: tc.p}
	var scan, per sampler
	scan.init(m, 77)
	per.init(m, 77)
	var src fastSource
	src.Seed(77)
	ref := rand.New(&src)

	var want, got, perGot []int
	for i := 0; i < tc.from; i++ {
		if ref.Float64() < tc.p {
			want = append(want, i)
		}
	}
	head := chans[:tc.from]
	for k := scan.next(head, 0); k < len(head); k = scan.next(head, k+1) {
		got = append(got, k)
	}
	for i := 0; i < tc.from; i++ {
		if per.next(chans[i:i+1], 0) == 0 {
			perGot = append(perGot, i)
		}
	}
	if !same(&scan.src, &src) || !same(&per.src, &src) {
		t.Fatalf("%+v: the draw paths reached site %d at different source positions", tc, tc.from)
	}
	for _, s := range []*fastSource{&src, &scan.src, &per.src} {
		forceAhead(s, tc.site-tc.from, tc.u)
	}

	for i := tc.from; i < sites; i++ {
		before := src.tap
		if ref.Float64() < tc.p {
			want = append(want, i)
		}
		if i == tc.site {
			if drew := ((before-src.tap)%lfgLen + lfgLen) % lfgLen; drew != draws {
				t.Fatalf("%+v: Float64 drew %d outputs at the forced site, want %d", tc, drew, draws)
			}
		}
	}
	for _, k := range want {
		if tc.from <= k && k < tc.site {
			t.Fatalf("%+v: site %d fires before the forced site, so no single run reaches it", tc, k)
		}
	}
	for k := scan.next(chans, tc.from); k < sites; k = scan.next(chans, k+1) {
		got = append(got, k)
	}
	for i := tc.from; i < sites; i++ {
		if per.next(chans[i:i+1], 0) == 0 {
			perGot = append(perGot, i)
		}
	}
	if !reflect.DeepEqual(got, want) || !reflect.DeepEqual(perGot, want) {
		t.Errorf("%+v: scan fired at %v, site by site at %v, Float64 at %v", tc, got, perGot, want)
	}
	if !same(&scan.src, &src) || !same(&per.src, &src) {
		t.Errorf("%+v: a draw path left the source at a different position than Float64", tc)
	}
	return slices.Contains(want, tc.site)
}

// TestRedrawConsumesTwoDraws forces a register output that Float64 rounds
// to 1 at a chosen site and checks that the scan draws again at that site,
// exactly as rand.New(src).Float64() does (checkForced). The forced sites
// include ones whose two draws straddle the wrap-around of the register's
// feed and tap indices, each of a block's four positions, and the draws a
// run leaves after its last full block.
func TestRedrawConsumesTwoDraws(t *testing.T) {
	for _, tc := range []forceCase{
		{1, redrawAt, 0, 0},              // the least redraw, at a certain channel
		{0, 1<<63 - 1, 3, 3},             // the largest output, at a dead channel
		{0.5, redrawAt + 100, 9, 9},      // inside the range, mid-sequence
		{1e-3, 1<<64 - 1, 5, 5},          // sign bit set: Int63 masks it off
		{1, redrawAt, 333, 333},          // feed wraps between the two draws
		{0.5, redrawAt + 1, 606, 606},    // tap wraps between the two draws
		{1e-3, redrawAt + 511, 940, 940}, // feed wraps again
		{0, redrawAt, 0, 1},              // a block's second draw
		{1e-4, redrawAt + 7, 0, 2},       // its third
		{0, 1<<63 - 1, 0, 3},             // its fourth
		{1e-4, redrawAt + 200, 0, 332},   // left after the first run's last block
		{0, 1<<64 - 1, 0, 333},           // the first run's last draw
		{1e-4, redrawAt + 3, 334, 606},   // the second run's last draw
	} {
		checkForced(t, tc, 2)
	}
}

// TestForcedFaultFires forces a register output below the channel's
// threshold at a chosen site — at each of a block's four positions and at
// the draws a run leaves after its last full block — and checks that the
// scan fires there on one draw, exactly as Float64 does (checkForced).
func TestForcedFaultFires(t *testing.T) {
	for _, tc := range []forceCase{
		{1e-4, 0, 0, 0},
		{1e-4, threshold(1e-4) - 1, 0, 1}, // the largest output that fires
		{1e-4, 1<<63 | 5, 0, 2},           // sign bit set: Int63 masks it off
		{2e-3, 12345, 0, 3},
		{1e-4, 99, 0, 332},
		{5e-5, threshold(5e-5) - 1, 0, 333},
		{1e-4, 1, 334, 606},
	} {
		if !checkForced(t, tc, 1) {
			t.Errorf("%+v: the forced output did not fire", tc)
		}
	}
}
