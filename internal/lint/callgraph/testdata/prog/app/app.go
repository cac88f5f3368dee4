// Package app drives the fixture engine: configured roots, closure roots,
// and the guard shapes gating is tested on.
package app

import (
	"fix/internal/mc"
	"fix/internal/tracing"
)

func Drive(tr *tracing.Tracer) int {
	return mc.RunWith(3, func() bool {
		mc.Helper(tr)
		return true
	})
}

func Marked() { mc.Dispatch(mc.Fast{}) }

func GateDemo(tr *tracing.Tracer) {
	if tr != nil {
		onlyGated()
	}
}

func onlyGated() *int { return new(int) }

func trialFn() bool { return false }

func driveNamed() int { return mc.RunWith(1, trialFn) }

func earlyReturn(tr *tracing.Tracer) {
	if tr == nil {
		return
	}
	tr.Emit("after guard")
}

func litGuard(tr *tracing.Tracer) func() {
	if tr == nil {
		return nil
	}
	return func() {
		tr.Emit("in literal")
	}
}

func wrongGuard(a, b *tracing.Tracer) {
	if a != nil {
		b.Emit("x")
	}
}
