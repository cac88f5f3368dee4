package awg

import (
	"fmt"

	"quest/internal/isa"
)

// Timing holds per-operation latencies in nanoseconds (the paper's Table 1
// technology parameters). A lock-step sub-cycle lasts as long as its slowest
// latched operation — everything fires on the same master clock edge and the
// next latch wave cannot complete until the slowest waveform has played out.
type Timing struct {
	PrepNs  float64
	Gate1Ns float64
	MeasNs  float64
	CNOTNs  float64
	// IdleNs floors the sub-cycle length (an all-idle word still takes one
	// single-qubit slot: the clock runs unconditionally).
	IdleNs float64
}

// Validate checks all latencies are positive.
func (tm Timing) Validate() error {
	for _, f := range []struct {
		name string
		v    float64
	}{{"PrepNs", tm.PrepNs}, {"Gate1Ns", tm.Gate1Ns}, {"MeasNs", tm.MeasNs}, {"CNOTNs", tm.CNOTNs}, {"IdleNs", tm.IdleNs}} {
		if f.v <= 0 {
			return fmt.Errorf("awg: %s = %v not positive", f.name, f.v)
		}
	}
	return nil
}

// opLatencyNs returns the waveform duration of one opcode under the timing.
func (tm Timing) opLatencyNs(op isa.Opcode) float64 {
	switch {
	case op == isa.OpIdle:
		return tm.IdleNs
	case op.IsPrep():
		return tm.PrepNs
	case op.IsMeasurement():
		return tm.MeasNs
	case op.IsTwoQubit():
		return tm.CNOTNs
	default:
		return tm.Gate1Ns
	}
}

// WordLatencyNs returns the lock-step duration of one VLIW word: the maximum
// over its µops, floored at IdleNs.
func (tm Timing) WordLatencyNs(w isa.VLIW) float64 {
	max := tm.IdleNs
	for _, op := range w.Ops {
		if l := tm.opLatencyNs(op); l > max {
			max = l
		}
	}
	return max
}

// SetTiming enables wall-clock accounting on the unit (nil-safe default is
// no accounting). Must be called before the first Fire that should count.
func (u *ExecutionUnit) SetTiming(tm Timing) {
	if err := tm.Validate(); err != nil {
		panic(err)
	}
	u.timing = &tm
	for op := range u.latencyNs {
		u.latencyNs[op] = tm.opLatencyNs(isa.Opcode(op))
	}
}

// ElapsedNs returns the accumulated wall-clock time of all fired sub-cycles
// (zero when no timing was set).
func (u *ExecutionUnit) ElapsedNs() float64 { return u.elapsedNs }
