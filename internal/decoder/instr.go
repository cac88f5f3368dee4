package decoder

import (
	"quest/internal/metrics"
)

// Instr bundles the decoder package's instruments, resolved once against a
// registry so the hot paths (Match inside a Monte-Carlo trial) never touch
// the registry's lock. Decoders start with no instruments, recording nothing
// and reading no clock, until SetInstr binds some — the master binds its
// registry's, and worker pools hand each trial an instrument bound to a
// per-worker shard (see mc.RunBatch) so instrumentation adds no
// cross-worker cache-line contention.
type Instr struct {
	matchCalls   *metrics.Counter
	matchExact   *metrics.Counter
	matchGreedy  *metrics.Counter
	matchDefects *metrics.Counter
	matchNs      *metrics.Histogram

	windowRounds  *metrics.Counter
	windowFlushNs *metrics.Histogram
}

// NewInstr resolves the decoder instruments against r. A nil r resolves
// none.
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

// noInstr is the instrument set of a decoder nobody observes: every
// instrument nil.
var noInstr Instr

// Decoders start unbound, but their instruments are registered in
// metrics.Default at start-up, so a -metrics dump lists every one of them,
// fired or not, whichever decoders the run bound.
func init() { NewInstr(metrics.Default) }
