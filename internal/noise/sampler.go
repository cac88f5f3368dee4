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
// a draw at or above stop = redrawGap + t(p) misses. The scan compares each
// draw against one bound, the model's largest stop: a draw at or above it
// misses whatever its site's channel, and only the few below it look up
// their own site's stop.

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
	// any is the largest of the five stops: no draw at or above it fires
	// or redraws at any site.
	any uint64
	src fastSource
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
	s.any = 0
	for ch, p := range [numChannels]float64{m.Idle, m.Gate1, m.Gate2, m.Meas, m.Prep} {
		s.stop[ch] = redrawGap + threshold(p)
		s.any = max(s.any, s.stop[ch])
	}
}

// next returns the index of the first site in chans[from:] whose channel
// fires, or len(chans) if none does, drawing exactly what sampling each
// site's channel in turn draws: one Int63 per site, and one more per
// redraw. It reads the generator's register directly, in runs that end
// where the sites run out or the feed or tap index wraps around, so each
// draw is one register add and store and one compare against the model's
// largest stop. Only a draw below it reads its own site's stop: at or
// above that the site missed and the scan resumes at the next site, below
// redrawGap the same site draws again, and otherwise the site fired.
//
// A run is drawn four draws at a time: a block computes its four sums,
// compares each against the bound and stores them only when all four
// miss. A block that holds a draw below the bound is left untouched and
// falls through to the one-draw loop, which draws it again one draw at a
// time up to that draw; so does a run's tail of fewer than four. This is
// exact because no draw of a block reads a word another draw of the block
// writes: a draw writes its own feed word, and its tap word lies 273
// places from it (334 the other way round the register), while the words
// a block writes are adjacent, since a run ends before either index wraps.
// On amd64 CPUs with AVX2 an assembly kernel draws the blocks
// (scanBlocks); missBlocks is the path on every other CPU.
func (s *sampler) next(chans []Channel, from int) int {
	src := &s.src
	top := s.any
	i := from
	for i < len(chans) {
		// The indices count down; at 0 the next output wraps to the top.
		if src.tap == 0 {
			src.tap = lfgLen
		}
		if src.feed == 0 {
			src.feed = lfgLen
		}
		run := min(src.tap, src.feed, len(chans)-i)
		feed := src.vec[src.feed-run : src.feed]
		tap := src.vec[src.tap-run : src.tap]
		// Draw k of the run belongs to site i+k, at index run-1-k. v ends
		// as the draw that stopped the run: below top when it broke off, at
		// or above top when every draw missed. It starts as a miss, for a
		// run that ends on a block boundary.
		j := scanBlocks(feed, tap, top)
		v := top
		for j > 0 {
			j--
			x := feed[j] + tap[j]
			feed[j] = x
			if v = (uint64(x) + redrawGap) & int63; v < top {
				break
			}
		}
		drawn := run - j
		src.tap -= drawn
		src.feed -= drawn
		i += drawn
		if v >= top {
			continue
		}
		switch k := i - 1; {
		case v >= s.stop[chans[k]&7]:
			// Missed: the scan resumes at site i.
		case v < redrawGap:
			i = k // Float64 rounded to 1: the same site draws again
		default:
			return k
		}
	}
	return i
}

// missBlocks draws a run's draws from the top index down in blocks of four,
// storing a block only when all four draws miss top, and returns the index
// the block drawing stopped at: the top of the first block that holds a
// draw below top, or of the tail shorter than four. It is a function of its
// own so that its loop keeps its values in registers: inlined into next,
// the compiler spilled and reloaded seven of them around every block.
func missBlocks(feed, tap []int64, top uint64) int {
	j := len(feed)
	for j >= 4 {
		f := (*[4]int64)(feed[j-4 : j])
		t := (*[4]int64)(tap[j-4 : j])
		x0, x1, x2, x3 := f[3]+t[3], f[2]+t[2], f[1]+t[1], f[0]+t[0]
		if (uint64(x0)+redrawGap)&int63 < top || (uint64(x1)+redrawGap)&int63 < top ||
			(uint64(x2)+redrawGap)&int63 < top || (uint64(x3)+redrawGap)&int63 < top {
			break
		}
		f[3], f[2], f[1], f[0] = x0, x1, x2, x3
		j -= 4
	}
	return j
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
