package core

import (
	"testing"

	"quest/internal/mc"
	"quest/internal/noise"
)

// kernelCase is one lane-kernel workload: a compiled stream, the rate its
// trials draw at and the injector seed rule of the engine that runs it.
type kernelCase struct {
	name    string
	stream  *laneStream
	p       float64
	injSeed func(uint64) int64
}

func kernelCases() []kernelCase {
	threshold := func(seed uint64) int64 { return int64(mc.Derive(seed, 1)) }
	memory := func(seed uint64) int64 { return int64(seed) + 1 }
	return []kernelCase{
		{"threshold-d3", &thresholdProgramFor(3).stream, 1e-3, threshold},
		{"threshold-d5", &thresholdProgramFor(5).stream, 2e-3, threshold},
		{"memory-r8", &memoryProgramFor(8).stream, 5e-4, memory},
	}
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
// propagates.
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
