// Package mc is the fixture's engine package: a closure-root entry point,
// an interface dispatched inside the module, and helpers with gated and
// ungated observer calls.
package mc

import "fix/internal/tracing"

// Sink is dispatched through an interface; both implementations live in
// the module, so the graph bounds the dynamic call exactly.
type Sink interface{ Put(x int) }

type Fast struct{}

func (Fast) Put(x int) {}

type Slow struct{}

func (*Slow) Put(x int) {}

// RunWith is the closure-root callee: function literals (and named
// functions) handed to it become hot roots themselves.
func RunWith(n int, fn func() bool) int {
	c := 0
	for i := 0; i < n; i++ {
		if fn() {
			c++
		}
	}
	return c
}

func Helper(tr *tracing.Tracer) {
	if tr != nil {
		tr.Emit("gated")
	}
	tr.Emit("ungated")
}

func Dispatch(s Sink) { s.Put(1) }

// Cold is not reachable from any root.
func Cold() *int { return new(int) }
