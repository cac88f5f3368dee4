package noise

import (
	"math/rand"
	"testing"

	"quest/internal/clifford"
)

// replaySites scans sites with a Replayer, Next then Fault at each hit,
// and returns the faults it reports: each Pauli with the qubit it lands on,
// a measurement flip as PauliI on the measured qubit.
func replaySites(r *Replayer, sites []oracleSite) []oracleFault {
	chans := make([]Channel, len(sites))
	for i, s := range sites {
		chans[i] = s.ch
	}
	var out []oracleFault
	for k := r.Next(chans, 0); k < len(chans); k = r.Next(chans, k+1) {
		s := sites[k]
		if s.ch == ChanMeas {
			out = append(out, oracleFault{k, s.q, clifford.PauliI})
			continue
		}
		pa, pb := r.Fault(s.ch, s.basisX)
		if pa != clifford.PauliI {
			out = append(out, oracleFault{k, s.q, pa})
		}
		if pb != clifford.PauliI {
			out = append(out, oracleFault{k, s.b, pb})
		}
	}
	return out
}

// TestReplayerMatchesInjector pins the Replayer's determinism contract: fed
// the same (model, seed) and the same site sequence as an Injector, scanned
// word by word, it reports exactly the faults the Injector injects — same
// sites, same Paulis, same measurement flips — across a long mixed sequence
// that exercises every channel. A single extra or missing RNG draw anywhere
// desynchronizes the streams, so this is also a draw-order test.
func TestReplayerMatchesInjector(t *testing.T) {
	const n = 12
	m := Model{Idle: 0.3, Gate1: 0.25, Gate2: 0.35, Prep: 0.2, Meas: 0.3}
	const seed = 424242

	inj := NewInjector(m, seed)
	rep := NewReplayer(m, seed)
	tb := clifford.New(n, rand.New(rand.NewSource(99)))

	// A deterministic mixed site sequence: the site kind and qubits vary
	// with the step index so every channel interleaves with every other.
	sites := make([]oracleSite, 2000)
	for step := range sites {
		q := step % n
		s := oracleSite{ch: [...]Channel{ChanIdle, ChanGate1, ChanGate2, ChanPrep, ChanMeas}[step%5], q: q}
		switch s.ch {
		case ChanGate2:
			s.b = (q + 1) % n
		case ChanPrep:
			s.basisX = step%2 == 0
		}
		sites[step] = s
	}

	var want, got []oracleFault
	for base := 0; base < len(sites); base += n {
		word := sites[base:min(base+n, len(sites))]
		want = append(want, injectSites(inj, tb, word)...)
		got = append(got, replaySites(rep, word)...)
	}

	if len(want) == 0 {
		t.Fatal("the sequence injected no faults; the test exercises nothing")
	}
	if len(got) != len(want) {
		t.Fatalf("replayer reported %d faults, injector injected %d", len(got), len(want))
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("fault %d: replayer %+v, injector %+v", i, got[i], want[i])
		}
	}
}

// TestReplayerResetRewindsStream pins the pooled-scratch contract: Reset to
// the same seed replays the identical stream, Reset to a different seed
// diverges, and a Reset replayer is indistinguishable from a fresh one.
func TestReplayerResetRewindsStream(t *testing.T) {
	m := Uniform(0.3)
	drawAll := func(r *Replayer, n int) []float64 {
		out := make([]float64, n)
		for _, f := range replaySites(r, repeatSite(oracleSite{ch: ChanIdle}, n)) {
			out[f.site] = float64(f.p) + 10
		}
		return out
	}
	fresh := drawAll(NewReplayer(m, 7), 200)
	r := NewReplayer(m, 99)
	drawAll(r, 123) // consume an arbitrary prefix
	r.Reset(m, 7)
	reset := drawAll(r, 200)
	for i := range fresh {
		if fresh[i] != reset[i] {
			t.Fatalf("draw %d: fresh %v, reset %v", i, fresh[i], reset[i])
		}
	}
	r.Reset(m, 8)
	other := drawAll(r, 200)
	same := true
	for i := range fresh {
		if fresh[i] != other[i] {
			same = false
			break
		}
	}
	if same {
		t.Error("streams for seeds 7 and 8 are identical; Reset did not reseed")
	}
}
