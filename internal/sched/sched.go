// Package sched implements the master controller's logical instruction
// scheduler: dependency analysis over a logical program and list scheduling
// under an issue-width constraint. The paper's bandwidth model leans on the
// empirical observation that "most quantum workloads execute only two to
// three logical instructions in parallel" (§5.2) — this package computes
// that instruction-level parallelism for concrete programs, along with the
// makespan and critical path that size the run-time estimates.
package sched

import (
	"fmt"

	"quest/internal/compiler"
	"quest/internal/isa"
)

// Config sets scheduling parameters.
type Config struct {
	// Width is the issue width (parallel logical instructions per slot).
	Width int
	// CNOTLatency is the slot count a braided CNOT occupies its qubits
	// (braids are multi-cycle; transverse ops take one slot).
	CNOTLatency int
	// TLatency is the slot count a T gate occupies (magic-state injection).
	TLatency int
}

// DefaultConfig mirrors the paper's assumptions: modest issue width, braids
// costing about a code distance of rounds relative to transverse ops.
func DefaultConfig() Config { return Config{Width: 4, CNOTLatency: 3, TLatency: 2} }

// Validate checks the configuration.
func (c Config) Validate() error {
	if c.Width < 1 {
		return fmt.Errorf("sched: width %d < 1", c.Width)
	}
	if c.CNOTLatency < 1 || c.TLatency < 1 {
		return fmt.Errorf("sched: non-positive latencies %d/%d", c.CNOTLatency, c.TLatency)
	}
	return nil
}

func (c Config) latency(in isa.LogicalInstr) int {
	switch in.Op {
	case isa.LCNOT:
		return c.CNOTLatency
	case isa.LT:
		return c.TLatency
	default:
		return 1
	}
}

// Result is a computed schedule.
type Result struct {
	// Slot[i] is the issue slot of instruction i.
	Slot []int
	// Makespan is the total slot count.
	Makespan int
	// CriticalPath is the dependence-limited lower bound (infinite width).
	CriticalPath int
	// ILP is the achieved parallelism: total instruction-slots of work over
	// the makespan.
	ILP float64
}

// qubitsOf lists the logical qubits an instruction touches.
func qubitsOf(in isa.LogicalInstr) []int {
	if in.Op == isa.LCNOT {
		return []int{int(in.Target), int(in.Arg)}
	}
	return []int{int(in.Target)}
}

// Schedule list-schedules the program: each instruction issues at the
// earliest slot after all prior instructions touching its qubits have
// finished, subject to at most Width issues per slot. Program order is
// preserved per qubit (the hardware's per-patch serialization). The same
// walk, without the width limit, gives the critical path.
func Schedule(p *compiler.Program, cfg Config) (Result, error) {
	if err := cfg.Validate(); err != nil {
		return Result{}, err
	}
	if err := p.Validate(); err != nil {
		return Result{}, err
	}
	n := len(p.Instrs)
	res := Result{Slot: make([]int, n)}
	qubitFree := make(map[int]int) // qubit -> first free slot
	depFree := make(map[int]int)   // qubit -> first free slot at infinite width
	issued := make(map[int]int)    // slot -> issue count
	work := 0
	for i, in := range p.Instrs {
		lat := cfg.latency(in)
		work += lat
		qs := qubitsOf(in)
		ready, depReady := 0, 0
		for _, q := range qs {
			ready = max(ready, qubitFree[q])
			depReady = max(depReady, depFree[q])
		}
		slot := ready
		for issued[slot] >= cfg.Width {
			slot++
		}
		issued[slot]++
		res.Slot[i] = slot
		for _, q := range qs {
			qubitFree[q] = slot + lat
			depFree[q] = depReady + lat
		}
		res.Makespan = max(res.Makespan, slot+lat)
		res.CriticalPath = max(res.CriticalPath, depReady+lat)
	}
	if res.Makespan > 0 {
		res.ILP = float64(work) / float64(res.Makespan)
	}
	return res, nil
}

// Validate checks a computed schedule against the program: dependencies
// respected, width respected. Used by tests and as a debugging assertion.
func (r Result) Validate(p *compiler.Program, cfg Config) error {
	if len(r.Slot) != len(p.Instrs) {
		return fmt.Errorf("sched: slot count %d != instruction count %d", len(r.Slot), len(p.Instrs))
	}
	issued := map[int]int{}
	lastEnd := map[int]int{}
	for i, in := range p.Instrs {
		s := r.Slot[i]
		issued[s]++
		if issued[s] > cfg.Width {
			return fmt.Errorf("sched: slot %d over width", s)
		}
		for _, q := range qubitsOf(in) {
			if s < lastEnd[q] {
				return fmt.Errorf("sched: instruction %d issues at %d before qubit %d frees at %d",
					i, s, q, lastEnd[q])
			}
			lastEnd[q] = s + cfg.latency(in)
		}
	}
	return nil
}
