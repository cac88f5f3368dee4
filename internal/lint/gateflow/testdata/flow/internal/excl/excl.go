// Package excl is listed in the analyzer's exclude set, as the observer
// packages are: its ungated hot call produces no finding.
package excl

import "fix/internal/tracing"

func Skipped(tr *tracing.Tracer) {
	tr.Emit("excluded")
}
