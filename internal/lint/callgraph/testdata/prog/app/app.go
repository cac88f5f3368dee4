// Package app drives the fixture engine: configured roots, directive
// roots, closure roots, and one function of every allocation kind.
package app

import (
	"fix/internal/mc"
	"fix/internal/tracing"
)

func Drive(tr *tracing.Tracer) int {
	buf := make([]byte, 8)
	_ = buf
	return mc.RunWith(3, func() bool {
		mc.Helper(tr)
		return true
	})
}

//quest:hotpath
func Marked(s []int) []int {
	t := &pair{}
	_ = t
	mc.Dispatch(mc.Fast{})
	return append(s, 1)
}

type pair struct{ a, b int }

//quest:hotpath
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

func allocZoo(tr *tracing.Tracer, s string) {
	m := map[string]int{}
	_ = m
	v := []int{1, 2}
	_ = v
	bs := []byte(s)
	_ = bs
	s2 := s + "x"
	_ = s2
	go func() {}()
	if tr != nil {
		_ = make([]int, 1)
	}
}
