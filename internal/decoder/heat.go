package decoder

import (
	"quest/internal/heatmap"
	"quest/internal/surface"
)

// SetHeat binds a spatial heat collector to the history: every defect
// Absorb births is recorded at its lattice site. Nil disables recording
// (the default) — the Absorb hot path then pays one nil check, no
// allocations.
func (h *SyndromeHistory) SetHeat(heat *heatmap.Collector) { h.heat = heat }

// SetHeat binds a spatial heat collector to the decoder: every Match
// records its pairs' endpoints and space-time chain lengths and its
// boundary matches. Nil disables recording (the default).
func (g *GlobalDecoder) SetHeat(heat *heatmap.Collector) { g.heat = heat }

// SetHeat binds a spatial heat collector to the union-find decoder,
// recording the same per-matching footprint as the MWPM decoder so ablation
// runs stay comparable. Nil disables recording (the default).
func (d *UnionFindDecoder) SetHeat(heat *heatmap.Collector) { d.heat = heat }

// SetHeat forwards a heat collector to the wrapped decoder. The window
// itself stays untouched: defect births are recorded by the
// SyndromeHistory, chain statistics by the decoder.
func (w *WindowDecoder) SetHeat(heat *heatmap.Collector) { w.global.SetHeat(heat) }

// recordMatching reports a matching's spatial footprint into heat: both
// endpoints of every defect pair with the pair's (unweighted) space-time
// chain length, and every boundary match with its boundary distance. The
// unweighted distances are recorded — they are the physical chain lengths
// the decoder micro-architecture literature sizes hardware against, while
// weighted costs are a tuning artifact. Callers gate on heat != nil, but the
// function guards again itself: the collector comes in as a parameter, so a
// future un-gated caller must not turn the heat-off path allocating
// (TestMatchHeatOffAllocs pins the ≤6 allocs/op budget this protects).
func recordMatching(heat *heatmap.Collector, lat surface.Lattice, defects []Defect, m Matching) {
	if heat == nil {
		return
	}
	for _, p := range m.Pairs {
		a, b := defects[p[0]], defects[p[1]]
		heat.MatchedPair(a.R, a.C, b.R, b.C, spaceTimeDistance(a, b))
	}
	for _, i := range m.ToBoundary {
		d := defects[i]
		heat.MatchedBoundary(d.R, d.C, boundaryDistance(lat, d))
	}
}
