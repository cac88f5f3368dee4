package noise

import (
	"math/rand"

	"quest/internal/clifford"
)

// This file is the one fault sampler behind Injector and Replayer. A
// channel of probability p fires when math/rand's Float64() < p: that
// protocol defines every fault stream, and through it every outcome,
// ledger and heatmap byte. The sampler reproduces it draw for draw with
// integer compares.
//
// Float64 is float64(u)/2⁶³ for u = Int63(), drawn again when that rounds
// to 1. float64(u) is monotone in u, so
//
//   - Float64() < p exactly when u < t(p), the least u with
//     float64(u)/2⁶³ ≥ p (threshold below), and
//   - the redraw happens exactly when u ≥ redrawAt, the least u with
//     float64(u) = 2⁶³.
//
// Adding redrawGap = 2⁶³ − redrawAt modulo 2⁶³ moves the redraw range to
// [0, redrawGap) and the firing range to [redrawGap, redrawGap + t(p)), so
// a single compare against stop = redrawGap + t(p) tells a draw that misses
// from one that ends the site, and only those few look further.

// Channel names one of a Model's five fault channels.
type Channel uint8

// The fault channels, one per Model field.
const (
	ChanIdle Channel = iota
	ChanGate1
	ChanGate2
	ChanMeas
	ChanPrep
	numChannels
)

// redrawAt is the least Int63 output Float64 rounds to 1 and draws again:
// below 2⁶³ doubles are 2¹⁰ apart, and 2⁶³ − 2⁹, the midpoint, rounds to
// the even neighbour 2⁶³. TestThresholdMatchesFloat64 derives it by search.
const (
	redrawAt  = 1<<63 - 1<<9
	redrawGap = 1<<63 - redrawAt
)

// threshold returns t(p), the least u in [0, 2⁶³] with float64(u)/2⁶³ ≥ p,
// for p ≤ 1 — Float64's own expression, so Float64() < p iff u < t(p).
func threshold(p float64) uint64 {
	lo, hi := uint64(0), uint64(1)<<63
	for lo < hi {
		mid := lo + (hi-lo)/2
		if float64(mid)/(1<<63) >= p {
			hi = mid
		} else {
			lo = mid + 1
		}
	}
	return lo
}

// sampler draws a model's fault stream from math/rand's generator. The
// zero value is unusable; set it up with init.
type sampler struct {
	model Model
	// stop[ch] is redrawGap + t(p) for channel ch's probability p. It has
	// eight entries so next's masked index needs no bounds check.
	stop [8]uint64
	src  fastSource
	// rng reads src for the Pauli choice after a hit: Intn's rejection
	// loop stays math/rand's own.
	rng *rand.Rand
}

// init binds m and seeds the stream rand.NewSource(seed) starts.
func (s *sampler) init(m Model, seed int64) {
	s.bind(m)
	s.src.Seed(seed)
	s.rng = rand.New(&s.src)
}

// bind validates m and derives its channel thresholds. It panics on an
// invalid model: every constructor takes the model as a programming-time
// constant, and the CLIs reject bad rates before building one.
func (s *sampler) bind(m Model) {
	if err := m.Validate(); err != nil {
		panic(err)
	}
	s.model = m
	for ch, p := range [numChannels]float64{m.Idle, m.Gate1, m.Gate2, m.Meas, m.Prep} {
		s.stop[ch] = redrawGap + threshold(p)
	}
}

// next returns the index of the first site in chans[from:] whose channel
// fires, or len(chans) if none does, drawing exactly what sampling each
// site's channel in turn draws: one Int63 per site, and one more per
// redraw. It reads the generator's register directly, in runs that end
// where the feed or tap index wraps around it, so each draw is one
// register add and store and one compare.
func (s *sampler) next(chans []Channel, from int) int {
	stop := &s.stop
	src := &s.src
	i := from
	for i < len(chans) {
		// The indices count down; at 0 the next output wraps to the top.
		if src.tap == 0 {
			src.tap = lfgLen
		}
		if src.feed == 0 {
			src.feed = lfgLen
		}
		run := min(src.tap, src.feed)
		feed := src.vec[src.feed-run : src.feed]
		tap := src.vec[src.tap-run : src.tap]
		j, fired := run, false
		for j > 0 && i < len(chans) {
			j--
			x := feed[j] + tap[j]
			feed[j] = x
			if v := (uint64(x) + redrawGap) & int63; v < stop[chans[i]&7] {
				if fired = v >= redrawGap; fired {
					break
				}
				continue // Float64 rounded to 1: the same site draws again
			}
			i++
		}
		src.tap -= run - j
		src.feed -= run - j
		if fired {
			break
		}
	}
	return i
}

// fault draws the Paulis a fired channel applies. A depolarizing channel
// picks one of X, Y, Z; a two-qubit one one of the 15 non-identity pairs,
// pa on the control and pb on the target; a preparation fault is the
// flip of the prepared basis (Z flips |+>, X flips |0>) and draws nothing;
// a measurement fault is a classical flip, no Pauli at all.
func (s *sampler) fault(ch Channel, basisX bool) (pa, pb clifford.Pauli) {
	switch ch {
	case ChanIdle, ChanGate1:
		return clifford.Pauli(1 + s.rng.Intn(3)), clifford.PauliI
	case ChanGate2:
		k := 1 + s.rng.Intn(15) // 4*pa+pb, excluding (I,I)
		return clifford.Pauli(k >> 2), clifford.Pauli(k & 3)
	case ChanPrep:
		if basisX {
			return clifford.PauliZ, clifford.PauliI
		}
		return clifford.PauliX, clifford.PauliI
	}
	return clifford.PauliI, clifford.PauliI
}

// sample draws one site of channel ch — next's compare for a single site,
// without its run bookkeeping — and reports whether it fired and the
// Paulis it applies.
func (s *sampler) sample(ch Channel, basisX bool) (pa, pb clifford.Pauli, ok bool) {
	for {
		v := (s.src.Uint64() + redrawGap) & int63
		if v >= s.stop[ch&7] {
			return clifford.PauliI, clifford.PauliI, false
		}
		if v >= redrawGap {
			break
		}
		// Float64 rounded to 1: the site draws again.
	}
	pa, pb = s.fault(ch, basisX)
	return pa, pb, true
}
