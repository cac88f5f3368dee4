// Package mc holds the fixture's hot entry point; the observer calls it
// reaches live in package obs, which is neither hot nor excluded, so only
// the call graph puts them in scope.
package mc

import (
	"fix/internal/excl"
	"fix/internal/obs"
	"fix/internal/tracing"
)

// Progress is the payload of the events.Sampler stub.
type Progress struct{ Completed, Budget int }

func Step(a, b *tracing.Tracer) {
	obs.Report(a)
	obs.WrongGuard(a, b)
	excl.Skipped(a)
}
