package main

import (
	"fmt"
	"math"
	"sort"
)

// shareLayers are the layers replica time is split into, named by module.
// A share is 0 on a workload that never enters the layer.
var shareLayers = []string{"clifford", "noise", "awg", "decoder", "mce", "master", "core", "unattributed"}

// layerInputs is what the traced phase measured for one workload.
type layerInputs struct {
	reg        registry // the traced CLI run's registry dump
	workers    int
	tracedWall float64 // s, the traced CLI run
	plainWall  float64 // s, median of the untraced runs
	obsWall    float64 // s, median of the runs with -ledger -heatmap -bw
	traces     []Trace
	spans      []Span
	replicaOK  bool
}

// layerMetrics computes every per-layer metric. Metrics of a layer the
// workload never enters are 0. Registry metrics describe the whole traced
// CLI run; span metrics describe the replica.
func layerMetrics(in layerInputs) (map[string]float64, []string) {
	m := map[string]float64{}
	r := in.reg
	us := func(ns float64) float64 { return ns / 1e3 }

	trial := r.hists["mc.trial.ns"]
	m["mc.trials"] = r.count("mc.trials")
	m["mc.busy_s"] = trial.Sum / 1e9
	m["mc.worker_utilization"] = ratio(trial.Sum/1e9, float64(in.workers)*in.tracedWall)
	m["mc.trial_us.p50"] = us(trial.P50)
	m["mc.trial_us.p99"] = us(trial.P99)

	match := r.hists["decoder.match.ns"]
	m["decoder.match.calls"] = r.count("decoder.match.calls")
	m["decoder.match.defects"] = r.count("decoder.match.defects")
	m["decoder.match.busy_s"] = match.Sum / 1e9
	m["decoder.match.greedy_share"] = ratio(r.count("decoder.match.greedy"), r.count("decoder.match.calls"))
	m["decoder.match_us.p99"] = us(match.P99)
	m["decoder.window.rounds"] = r.count("decoder.window.rounds")
	m["decoder.window.flush_busy_s"] = r.busy("decoder.window.flush.ns")

	cycle := r.hists["mce.cycle.ns"]
	m["mce.cycles"] = r.count("mce.cycles")
	m["mce.microops"] = r.count("mce.microops")
	m["mce.uops_per_cycle"] = ratio(r.count("mce.microops"), r.count("mce.cycles"))
	m["mce.cycle_busy_s"] = cycle.Sum / 1e9
	m["mce.cycle_us.p50"] = us(cycle.P50)
	m["mce.cycle_us.p99"] = us(cycle.P99)
	m["mce.cache.hit_ratio"] = ratio(r.count("mce.cache.hits"), r.count("mce.cache.hits")+r.count("mce.cache.loads"))
	m["mce.local_resolve_ratio"] = ratio(r.count("mce.defects.local"), r.count("mce.defects.local")+r.count("mce.defects.escalated"))

	m["master.cycles"] = r.count("master.cycles")
	m["master.escalated"] = r.count("master.escalated")
	m["master.global_decodes"] = r.count("master.global.decodes")
	m["master.decode_busy_s"] = r.busy("master.decode.ns")
	m["master.bus.instr_bytes"] = r.count("master.bus.logical.bytes") + r.count("master.bus.sync.bytes") + r.count("master.bus.cache.bytes")
	m["master.bus.syndrome_bytes"] = r.count("master.bus.syndrome.bytes")
	m["master.self_s"] = 0
	if m["master.cycles"] > 0 {
		m["master.self_s"] = outsideTimers(r, in.tracedWall)
	}

	m["trace.overhead"] = ratio(in.tracedWall, in.plainWall) - 1
	m["observers.overhead"] = ratio(in.obsWall, in.plainWall) - 1
	m["trace.replica_match"] = 0
	if in.replicaOK {
		m["trace.replica_match"] = 1
	}

	warn := replicaMetrics(m, in.traces, in.spans)
	return m, warn
}

// replicaMetrics adds the span-derived metrics: per-call latencies and the
// layer shares of replica time.
func replicaMetrics(m map[string]float64, traces []Trace, spans []Span) []string {
	medUs := func(name, shape string) float64 { return median(durations(traces, spans, name, shape)) / 1e3 }
	for _, kind := range []string{"clean", "noisy"} {
		for _, d := range []string{"d3", "d5"} {
			m["awg.cycle_us."+kind+"."+d] = medUs("awg.cycle_"+kind, d)
		}
	}
	m["clifford.trial_setup_us"] = median(perTrace(spans, "clifford.new", "noise.new_injector", "awg.new")) / 1e3
	m["clifford.measure_observable_us"] = medUs("clifford.measure_observable", "")
	m["decoder.history_absorb_us"] = medUs("decoder.history_absorb", "")
	m["decoder.window_us"] = median(perTrace(spans, "decoder.window_absorb", "decoder.window_flush")) / 1e3
	for _, shape := range []string{"d3x1", "d5x4"} {
		d := durations(traces, spans, "master.step_cycle", shape)
		m["master.step_cycle_us."+shape+".p50"] = percentile(d, 0.50) / 1e3
		m["master.step_cycle_us."+shape+".p99"] = percentile(d, 0.99) / 1e3
		m["core.new_machine_ms."+shape] = median(durations(traces, spans, "core.new_machine", shape)) / 1e6
	}
	m["core.machine_reset_us"] = medUs("core.machine_reset", "")

	short := replayMs(traces, spans, distillShortReplays)
	full := replayMs(traces, spans, distillReplays)
	m[fmt.Sprintf("distill.replay_ms.r%d", distillShortReplays)] = short
	m[fmt.Sprintf("distill.replay_ms.r%d", distillReplays)] = full
	m["distill.replay_growth"] = ratio(full, short)

	layers, total := account(spans)
	moveNoise(layers, traces, spans)
	var warn []string
	known := map[string]bool{}
	for _, l := range shareLayers {
		known[l] = true
		m["share."+l] = ratio(float64(layers[l]), float64(total))
	}
	for l := range layers {
		if !known[l] {
			warn = append(warn, fmt.Sprintf("spans of unknown layer %q", l))
		}
	}
	sort.Strings(warn)
	m["trace.replica_s"] = float64(total) / 1e9
	return warn
}

// replayMs is the cached distillation's time per replay, in ms, in the
// replica run of the given replay count (0 when there is none).
func replayMs(traces []Trace, spans []Span, replays int) float64 {
	name := distillTrace(replays)
	for i := range spans {
		if s := &spans[i]; s.Name == "core.run_distillation" && traces[s.Trace-1].Name == name {
			return float64(s.dur()) / 1e6 / float64(replays)
		}
	}
	return 0
}

// moveNoise moves the noise injector's cost out of the awg layer: noise is
// injected inside ExecuteWord, so it is measured as the noisy cycles' excess
// over the mean clean cycle of the same lattice. A negative excess (noise
// cheaper than timing jitter) moves nothing.
func moveNoise(layers map[string]int64, traces []Trace, spans []Span) {
	for _, shape := range []string{"d3", "d5"} {
		clean := durations(traces, spans, "awg.cycle_clean", shape)
		noisy := durations(traces, spans, "awg.cycle_noisy", shape)
		if len(clean) == 0 || len(noisy) == 0 {
			continue
		}
		excess := sum(noisy) - float64(len(noisy))*sum(clean)/float64(len(clean))
		if excess > 0 {
			layers["awg"] -= int64(excess)
			layers["noise"] += int64(excess)
		}
	}
}

func sum(xs []float64) float64 {
	s := 0.0
	for _, x := range xs {
		s += x
	}
	return s
}

// ratio is a/b, or 0 when b is 0 or either is not finite.
func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	v := a / b
	if math.IsNaN(v) || math.IsInf(v, 0) {
		return 0
	}
	return v
}
