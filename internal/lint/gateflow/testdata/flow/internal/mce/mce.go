// Package mce is a hot package: every function in it is checked, though no
// hot root reaches any of them.
package mce

import (
	"fmt"
	"time"

	"fix/internal/bwprofile"
	"fix/internal/events"
	"fix/internal/heatmap"
	"fix/internal/mc"
	"fix/internal/metrics"
	"fix/internal/tracing"
)

type engine struct {
	tr   *tracing.Tracer
	heat *heatmap.Collector
	smp  *events.Sampler
	bw   *bwprofile.Recorder
	ops  *metrics.Counter
	ns   *metrics.Histogram
}

func (e *engine) ungatedTracer(cycle int64) {
	e.tr.Instant("mce", 0, "tick", cycle) // want "tracing.Tracer.Instant in hot package internal/mce with no dominating nil check"
}

func (e *engine) gatedTracer(cycle int64) {
	if e.tr != nil {
		e.tr.Instant("mce", 0, "tick", cycle)
	}
}

func (e *engine) gatedConjunct(cycle int64, busy bool) {
	if busy && e.tr != nil {
		e.tr.Span("mce", 0, "busy", cycle, 1)
	}
}

func (e *engine) guardReturn(cycle int64) {
	if e.tr == nil {
		return
	}
	e.tr.Instant("mce", 0, "tick", cycle)
}

func (e *engine) ungatedHeat(r, c int) {
	e.heat.Defect(r, c) // want "heatmap.Collector.Defect in hot package .* no dominating nil check"
}

func (e *engine) gatedHeat(r, c int) {
	if e.heat != nil {
		e.heat.Defect(r, c)
	}
}

func (e *engine) ungatedSampler(p mc.Progress) {
	e.smp.ObserveCell("cell", p) // want "events.Sampler.ObserveCell in hot package .* no dominating nil check"
}

func (e *engine) gatedSampler(p mc.Progress) {
	if e.smp != nil {
		e.smp.ObserveCell("cell", p)
	}
}

func (e *engine) ungatedRecorder(cycle int) {
	e.bw.Observe(cycle, bwprofile.BusLogical, bwprofile.ClassPauli, 1, 2) // want "bwprofile.Recorder.Observe in hot package .* no dominating nil check"
}

func (e *engine) gatedRecorder(cycle int) {
	if e.bw != nil {
		e.bw.Observe(cycle, bwprofile.BusLogical, bwprofile.ClassPauli, 1, 2)
	}
}

func (e *engine) riskyMetricArg(names []string) {
	e.ns.Observe(float64(len(fmt.Sprint(names)))) // want "argument fmt.Sprint\(names\) to \(\*metrics.Histogram\).Observe may allocate"
}

func (e *engine) fineMetricArgs(start time.Time, n int) {
	e.ops.Add(uint64(n))
	e.ns.Observe(float64(time.Since(start)))
}

func (e *engine) suppressedTracer(cycle int64) {
	//quest:allow(gateflow) cold path: runs once at shutdown, never per cycle
	e.tr.Instant("mce", 0, "flush", cycle) // suppressed "no dominating nil check"
}

// start has the shape of a ticker goroutine: the guard in force where the
// literal is defined proves its receiver non-nil inside it.
func (e *engine) start(cycle int64) {
	if e.tr == nil {
		return
	}
	go func() {
		e.tr.Instant("mce", 0, "tick", cycle)
	}()
}

// startEarly defines its literal before the guard, so the guard proves
// nothing inside it.
func (e *engine) startEarly(cycle int64) {
	tick := func() {
		e.tr.Instant("mce", 0, "tick", cycle) // want "no dominating nil check"
	}
	if e.tr == nil {
		return
	}
	go tick()
}
