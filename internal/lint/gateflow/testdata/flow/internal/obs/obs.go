package obs

import "fix/internal/tracing"

func Report(tr *tracing.Tracer) {
	if tr != nil {
		tr.Emit("gated") // ok: dominated by a nil check on the receiver
	}
	tr.Emit("ungated") // want "internal/tracing.Tracer.Emit on hot path .* with no dominating nil check"
}

func WrongGuard(a, b *tracing.Tracer) {
	if a != nil {
		b.Emit("x") // want "gated, but not on the receiver itself"
	}
}

// Cold is not reachable from the hot root and obs is not a hot package, so
// its ungated call is no finding.
func Cold(tr *tracing.Tracer) {
	tr.Emit("cold")
}

func suppressed(tr *tracing.Tracer) {
	run(func() {
		//quest:allow(gateflow) fixture: shutdown-only path, never per cycle
		tr.Emit("allowed") // suppressed "no dominating nil check"
	})
}

func run(f func()) { f() }

func Hot2(tr *tracing.Tracer) { suppressed(tr) }
