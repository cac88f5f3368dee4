package gateflow_test

import (
	"testing"

	"quest/internal/lint/analysistest"
	"quest/internal/lint/callgraph"
	"quest/internal/lint/gateflow"
)

func TestGateflow(t *testing.T) {
	cfg := &callgraph.Config{
		Roots: []string{"internal/mc.Step", "internal/obs.Hot2"},
		ObserverPkgs: []string{
			"internal/tracing", "internal/heatmap", "internal/events",
			"internal/bwprofile", "internal/metrics",
		},
		TrackedTypes: map[string][]string{
			"internal/tracing":   {"Tracer"},
			"internal/heatmap":   {"Collector", "Set"},
			"internal/events":    {"Sampler"},
			"internal/bwprofile": {"Recorder"},
		},
	}
	analysistest.RunTree(t, "testdata/flow", cfg,
		gateflow.New([]string{"internal/mce"}, []string{"internal/excl"}))
}
