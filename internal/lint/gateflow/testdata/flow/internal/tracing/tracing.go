package tracing

type Tracer struct{ n int }

func (t *Tracer) Emit(s string) { t.n++ }

func (t *Tracer) Instant(proc string, tid int, name string, cycle int64) { t.n++ }

func (t *Tracer) Span(proc string, tid int, name string, start, dur int64) { t.n++ }
