package core

import (
	"fmt"
	"math/bits"
	"strings"
	"testing"

	"quest/internal/clifford"
	"quest/internal/isa"
	"quest/internal/mc"
	"quest/internal/noise"
)

// kernelCase is one lane-kernel workload: a compiled stream, the rate its
// trials draw at and the injector seed rule of the engine that runs it, and
// that engine's whole lane — kernel, then each faulty trial's decode — with
// no observer bound.
type kernelCase struct {
	name    string
	stream  *laneStream
	p       float64
	injSeed func(uint64) int64
	lane    func(seeds []uint64, out []mc.Outcome)
}

// The injector seed rules of the two engines: the scalar threshold trial
// seeds its injector with Derive(seed, 1), the memory machine's tile 0 with
// the trial seed + 1.
func thresholdInjSeed(seed uint64) int64 { return int64(mc.Derive(seed, 1)) }
func memoryInjSeed(seed uint64) int64    { return int64(seed) + 1 }

func kernelCases() []kernelCase {
	threshold := func(d int, p float64) kernelCase {
		tp := thresholdProgramFor(d)
		return kernelCase{fmt.Sprintf("threshold-d%d", d), &tp.stream, p, thresholdInjSeed,
			func(seeds []uint64, out []mc.Outcome) { tp.runLane(p, seeds, mc.BatchCtx{}, out) }}
	}
	mp := memoryProgramFor(8)
	return []kernelCase{
		threshold(3, 1e-3),
		threshold(5, 2e-3),
		{"memory-r8", &mp.stream, 5e-4, memoryInjSeed,
			func(seeds []uint64, out []mc.Outcome) { mp.runLane(5e-4, seeds, mc.BatchCtx{}, out) }},
	}
}

// faultCounts runs the lane kernel over the first trials of a cell, lane by
// lane as RunBatch deals them, and counts the trials that drew no fault —
// the ones the engines skip the decode for — and those that drew one. A
// rate of 0 is a noiseless tile, which draws nothing.
func faultCounts(stream *laneStream, p float64, injSeed func(uint64) int64, cell uint64, trials int) (clean, faulty int) {
	s := newLaneScratch(stream)
	var model *noise.Model
	if p > 0 {
		m := noise.Uniform(p)
		model = &m
	}
	rep := s.replayer(model)
	for lo := 0; lo < trials; lo += mc.LaneWidth {
		seeds := make([]uint64, min(mc.LaneWidth, trials-lo))
		for i := range seeds {
			seeds[i] = mc.TrialSeed(cell, lo+i)
		}
		s.run(stream, rep, seeds, injSeed)
		faulty += bits.OnesCount64(s.hits)
	}
	return trials - faulty, faulty
}

// laneSeeds returns one full lane of trial seeds.
func laneSeeds() []uint64 {
	seeds := make([]uint64, mc.LaneWidth)
	for i := range seeds {
		seeds[i] = mc.TrialSeed(mc.Seed(ExperimentSeed, 7), i)
	}
	return seeds
}

// TestLaneKernelAllocs pins the lane kernel's steady state at zero heap
// allocations per noisy lane, on the threshold and the memory streams: the
// flat site list is built once per compiled stream and the replayer is
// bound before the kernel runs, so a warm lane only reseeds, scans and
// propagates. The engine's whole lane, which then decodes each trial that
// drew a fault through the pooled history, LUT, window and matcher, is
// pinned at zero too, except under -race, whose sync.Pool drops scratch.
func TestLaneKernelAllocs(t *testing.T) {
	seeds := laneSeeds()
	for _, tc := range kernelCases() {
		s := newLaneScratch(tc.stream)
		model := noise.Uniform(tc.p)
		rep := s.replayer(&model)
		s.run(tc.stream, rep, seeds, tc.injSeed)
		hit := false
		for _, d := range s.dirty {
			hit = hit || d
		}
		if !hit {
			t.Fatalf("%s: a %d-trial lane at p=%g sampled no fault; the test exercises no hit", tc.name, len(seeds), tc.p)
		}
		if allocs := testing.AllocsPerRun(20, func() { s.run(tc.stream, rep, seeds, tc.injSeed) }); allocs != 0 {
			t.Errorf("%s: %v allocs per warm lane, want 0", tc.name, allocs)
		}
		if raceEnabled {
			continue
		}
		out := make([]mc.Outcome, len(seeds))
		tc.lane(seeds, out) // warms the engine's pooled scratch
		if allocs := testing.AllocsPerRun(20, func() { tc.lane(seeds, out) }); allocs != 0 {
			t.Errorf("%s: %v allocs per warm lane with its decode, want 0", tc.name, allocs)
		}
	}
}

// BenchmarkLaneKernel times the lane kernel alone — fault sampling and
// Pauli-frame propagation of one 64-trial lane — on each engine's stream;
// ns/trial divides by the lane width.
func BenchmarkLaneKernel(b *testing.B) {
	seeds := laneSeeds()
	for _, tc := range kernelCases() {
		b.Run(tc.name, func(b *testing.B) {
			s := newLaneScratch(tc.stream)
			model := noise.Uniform(tc.p)
			rep := s.replayer(&model)
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				s.run(tc.stream, rep, seeds, tc.injSeed)
			}
			b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*len(seeds)), "ns/trial")
		})
	}
}

// TestCompileCycleRefusesOtherGates pins the stream build's refusal: the
// lane kernel's Pauli frame propagates preparations, measurements, CNOTs
// and idles only, so a word holding any other µop panics, naming it. A T
// acts on nothing, and only its one-qubit gate site gives it away.
func TestCompileCycleRefusesOtherGates(t *testing.T) {
	word := func(op isa.Opcode) []isa.VLIW {
		w := isa.NewVLIW(6)
		w.Set(0, isa.OpPrep0)
		w.Set(1, isa.OpPrepPlus)
		w.SetPair(2, isa.OpCNOTControl, 3)
		w.SetPair(3, isa.OpCNOTTarget, 2)
		w.Set(4, isa.OpMeasX)
		switch op {
		case isa.OpCZ:
			w.SetPair(4, isa.OpCZ, 5)
			w.SetPair(5, isa.OpCZ, 4)
		default:
			w.Set(5, op)
		}
		return []isa.VLIW{w}
	}
	if got := len(compileCycle(word(isa.OpIdle))); got != 1 {
		t.Fatalf("control: %d compiled words, want 1", got)
	}
	for _, op := range []isa.Opcode{isa.OpH, isa.OpS, isa.OpX, isa.OpT, isa.OpCZ} {
		t.Run(op.String(), func(t *testing.T) {
			defer func() {
				r := recover()
				if r == nil {
					t.Fatalf("a word holding %s compiled for the lane kernel", op)
				}
				if msg := fmt.Sprint(r); !strings.Contains(msg, "µop "+op.String()+" at qubit ") {
					t.Errorf("panic %q does not name the µop %s", msg, op)
				}
			}()
			compileCycle(word(op))
		})
	}
}

// singleFault is one fault a noise site of a lane stream can draw: at
// flattened site k, Paulis pa on the site's qubit and pb on a CNOT's target
// (a measurement site's flip has neither).
type singleFault struct {
	k      int
	pa, pb clifford.Pauli
}

// singleFaults lists every fault each of ls's noise sites can draw, as
// noise.Replayer.Fault draws them: X, Y and Z at an idle site, the basis
// flip at a preparation, the flip at a measurement and the 15 two-qubit
// Paulis at a CNOT.
func singleFaults(t *testing.T, ls *laneStream) []singleFault {
	var fs []singleFault
	for k, ch := range ls.chans {
		switch ch {
		case noise.ChanIdle:
			for p := clifford.PauliX; p <= clifford.PauliZ; p++ {
				fs = append(fs, singleFault{k: k, pa: p})
			}
		case noise.ChanPrep:
			p := clifford.PauliX
			if ls.sites[k].basisX {
				p = clifford.PauliZ
			}
			fs = append(fs, singleFault{k: k, pa: p})
		case noise.ChanMeas:
			fs = append(fs, singleFault{k: k})
		case noise.ChanGate2:
			for j := 1; j < 16; j++ {
				fs = append(fs, singleFault{k: k, pa: clifford.Pauli(j >> 2), pb: clifford.Pauli(j & 3)})
			}
		default:
			t.Fatalf("site %d: channel %d has no enumeration", k, ch)
		}
	}
	return fs
}

// TestThresholdSingleFaults certifies the threshold circuit against every
// single fault, at d = 3, 5 and 7. Each fault of the cell's stream
// (thresholdProgramFor) is recorded in its own lane and run through the
// kernel's propagation, 64 a lane. Its detectors are the defects runLane
// reads: ancilla a in round r, for r = 1..d+1. The properties:
//   - no fault flips more than two Z-type (Z-ancilla) or two X-type
//     detectors, so the Z detectors form a graph with no hyperedge;
//   - no set of Z-type detectors occurs with both values of the logical-Z
//     flip, the empty set (the fault-free run, no flip) included, so no
//     undetected single fault flips the logical.
//
// It also pins the counts of faults and of distinct non-empty Z signatures,
// so a change to the enumeration or the schedule shows here.
func TestThresholdSingleFaults(t *testing.T) {
	for _, tc := range []struct{ d, faults, zSigs int }{{3, 2961, 97}, {5, 16615, 561}, {7, 49245, 1681}} {
		tp := thresholdProgramFor(tc.d)
		ls := &tp.stream
		n := ls.n
		fs := singleFaults(t, ls)
		s := newLaneScratch(ls)
		flip := map[string]uint64{"": 0} // Z signature -> logical flip; "" is the fault-free run's
		var zs, xs [mc.LaneWidth][]int   // detectors r*n+a, in round then ancilla order
		describe := func(f singleFault) string {
			site := ls.sites[f.k]
			return fmt.Sprintf("channel %d at qubit %d (pair %d) of cycle %d, Paulis %v%v",
				ls.chans[f.k], site.q, site.pair, site.cycle, f.pa, f.pb)
		}
		for lo := 0; lo < len(fs); lo += mc.LaneWidth {
			lane := fs[lo:min(lo+mc.LaneWidth, len(fs))]
			s.sample(ls, nil, nil, nil) // clears the lanes; a nil replayer draws nothing
			for i, f := range lane {
				s.hit(ls, f.k, f.pa, f.pb, 1<<uint(i))
			}
			s.propagate(ls)
			var xp uint64
			for _, q := range tp.logZ {
				xp ^= s.fx[q]
			}
			for i := range lane {
				zs[i], xs[i] = zs[i][:0], xs[i][:0]
			}
			for r := 1; r <= tc.d+1; r++ {
				for _, a := range tp.anc {
					for diff := s.flips[r*n+a.q] ^ s.flips[(r-1)*n+a.q]; diff != 0; diff &= diff - 1 {
						i := bits.TrailingZeros64(diff)
						if a.isX {
							xs[i] = append(xs[i], r*n+a.q)
						} else {
							zs[i] = append(zs[i], r*n+a.q)
						}
					}
				}
			}
			for i, f := range lane {
				if len(zs[i]) > 2 || len(xs[i]) > 2 {
					t.Fatalf("d=%d: %s flips %d Z-type and %d X-type detectors, want at most 2 each",
						tc.d, describe(f), len(zs[i]), len(xs[i]))
				}
				key := ""
				if len(zs[i]) > 0 {
					key = fmt.Sprint(zs[i])
				}
				got := xp >> uint(i) & 1
				if want, ok := flip[key]; ok && want != got {
					t.Fatalf("d=%d: %s flips Z detectors %v with logical flip %d; another fault, or the fault-free run, flips them with %d",
						tc.d, describe(f), zs[i], got, want)
				}
				flip[key] = got
			}
		}
		if sigs := len(flip) - 1; len(fs) != tc.faults || sigs != tc.zSigs {
			t.Errorf("d=%d: %d single faults with %d distinct non-empty Z signatures, want %d and %d",
				tc.d, len(fs), sigs, tc.faults, tc.zSigs)
		}
	}
}
