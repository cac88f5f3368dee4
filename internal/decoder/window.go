package decoder

import (
	"time"

	"quest/internal/tracing"
)

// WindowDecoder implements the space-time decoding the paper describes in
// Appendix A.2: syndrome changes are accumulated over a window of rounds and
// matched jointly, so that measurement errors (time-like defect pairs) and
// multi-round error chains are paired correctly instead of being forced to a
// boundary round by round. The two-level split is preserved: a LocalDecoder
// may still strip isolated single-error patterns per round before defects
// enter the window.
type WindowDecoder struct {
	global *GlobalDecoder
	// WindowRounds is the number of rounds batched per decode; the usual
	// choice is the code distance.
	WindowRounds int

	buf        []Defect
	sinceFlush int
	instr      *Instr

	tr  *tracing.Tracer
	tid int
	// round counts Absorb calls — the window's clock. The master calls Absorb
	// exactly once per tile per machine cycle, so rounds align with cycles.
	round, openRound int64
}

// NewWindowDecoder wraps a global decoder with a window of the given number
// of rounds (values below 1 are clamped to 1, which degenerates to per-round
// decoding).
func NewWindowDecoder(global *GlobalDecoder, windowRounds int) *WindowDecoder {
	if windowRounds < 1 {
		windowRounds = 1
	}
	return &WindowDecoder{global: global, WindowRounds: windowRounds, instr: defaultInstr}
}

// SetInstr rebinds the window's instruments (e.g. to a per-worker metrics
// shard) and the wrapped decoder's. A nil value restores the default
// registry.
func (w *WindowDecoder) SetInstr(in *Instr) {
	if in == nil {
		in = defaultInstr
	}
	w.instr = in
	w.global.SetInstr(in)
}

// SetTracer binds a tracer and track id (the tile index) so flushes emit
// decoder-track "window" spans covering open→flush. Nil disables emission.
func (w *WindowDecoder) SetTracer(tr *tracing.Tracer, tid int) {
	w.tr = tr
	w.tid = tid
}

// Pending returns the number of buffered defects.
func (w *WindowDecoder) Pending() int { return len(w.buf) }

// Reset returns the window to its freshly constructed state — empty buffer,
// round clock at zero — while keeping the buffer storage and the wrapped
// decoder (whose LUTs and scratch are trial-independent). The batched trial
// engine pools window decoders across trials; resetting the round clock
// keeps the per-trial tracer spans identical to a fresh decoder's.
func (w *WindowDecoder) Reset() {
	w.buf = w.buf[:0]
	w.sinceFlush = 0
	w.round = 0
	w.openRound = 0
}

// Absorb buffers one round's defects and decodes into the frame when the
// window fills. It returns the number of corrections applied (zero while the
// window is still open).
func (w *WindowDecoder) Absorb(defects []Defect, frame *PauliFrame) int {
	if w.sinceFlush == 0 {
		w.openRound = w.round
	}
	w.round++
	w.buf = append(w.buf, defects...)
	w.sinceFlush++
	w.instr.windowRounds.Inc()
	if w.sinceFlush < w.WindowRounds {
		return 0
	}
	return w.Flush(frame)
}

// Flush decodes everything buffered regardless of window occupancy (used at
// the end of a computation or before a logical measurement that must see a
// settled frame).
func (w *WindowDecoder) Flush(frame *PauliFrame) int {
	w.sinceFlush = 0
	if len(w.buf) == 0 {
		return 0
	}
	start := time.Now() //quest:allow(seedsrc) wall-clock latency metric only; the value never reaches simulation state
	applied := 0
	xs, zs := SplitByType(w.buf)
	w.buf = w.buf[:0]
	for _, group := range [2][]Defect{xs, zs} {
		if len(group) == 0 {
			continue
		}
		m := w.global.Match(group)
		for _, c := range w.global.Corrections(group, m) {
			frame.Apply(c)
			applied++
		}
	}
	w.instr.windowFlushNs.Observe(float64(time.Since(start)))
	if w.tr != nil {
		dur := w.round - w.openRound
		if dur < 1 {
			dur = 1
		}
		w.tr.SpanArg("decoder", w.tid, "window", w.openRound, dur, "applied", int64(applied))
	}
	w.openRound = w.round
	return applied
}
