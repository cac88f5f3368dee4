package decoder

import (
	"quest/internal/metrics"
)

// Instr bundles the decoder package's instruments, resolved once against a
// registry so the hot paths (Match inside a Monte-Carlo trial) never touch
// the registry's lock. Decoders record against the process-wide default
// registry unless rebound with SetInstr — worker pools hand each trial an
// instrument bound to a per-worker shard (see mc.RunBatch) so
// instrumentation adds no cross-worker cache-line contention.
type Instr struct {
	matchCalls   *metrics.Counter
	matchExact   *metrics.Counter
	matchGreedy  *metrics.Counter
	matchDefects *metrics.Counter
	matchNs      *metrics.Histogram

	windowRounds  *metrics.Counter
	windowFlushNs *metrics.Histogram
}

// NewInstr resolves the decoder instruments against r.
func NewInstr(r *metrics.Registry) *Instr {
	return &Instr{
		matchCalls:   r.Counter("decoder.match.calls"),
		matchExact:   r.Counter("decoder.match.exact"),
		matchGreedy:  r.Counter("decoder.match.greedy"),
		matchDefects: r.Counter("decoder.match.defects"),
		matchNs:      r.Histogram("decoder.match.ns", nil),

		windowRounds:  r.Counter("decoder.window.rounds"),
		windowFlushNs: r.Histogram("decoder.window.flush.ns", nil),
	}
}

// defaultInstr records into metrics.Default.
var defaultInstr = NewInstr(metrics.Default)
