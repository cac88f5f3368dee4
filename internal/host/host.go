// Package host models the classical host of the accelerator model (§2.2):
// the machine that takes a logical program, performs the compile-time work
// the control processor must never see — rotation synthesis (footnote 7),
// dependency scheduling, and bundling the deterministic loop bodies
// (distillation rounds) as cache sections — and emits the quantum executable
// the cryo-DRAM holds and the master controller consumes.
package host

import (
	"fmt"

	"quest/internal/compiler"
	"quest/internal/distill"
	"quest/internal/isa"
	"quest/internal/place"
	"quest/internal/qexe"
	"quest/internal/sched"
)

// Options configures compilation.
type Options struct {
	// Schedule configures the ILP analysis; zero value uses defaults.
	Schedule sched.Config
	// BundleDistillation attaches the 15-to-1 round body as a cache section
	// when the program consumes magic states.
	BundleDistillation bool
	// DistillSlot is the cache slot for the bundled body.
	DistillSlot int
	// MachineTiles/PatchesPerTile, when both positive, run the placement
	// pass: logical qubits are clustered onto tiles so braids stay local,
	// and the executable's program section is emitted in placed coordinates.
	MachineTiles   int
	PatchesPerTile int
}

// DefaultOptions returns the standard pipeline configuration.
func DefaultOptions() Options {
	return Options{Schedule: sched.DefaultConfig(), BundleDistillation: true}
}

// Artifact is a compilation result: the executable plus the analyses the
// host's run-time system uses to provision the machine.
type Artifact struct {
	Exe      *qexe.Executable
	Schedule sched.Result
	// TCount is the magic-state demand of the program.
	TCount int
	// ILP is the achieved instruction-level parallelism — the quantity the
	// paper's bandwidth model parameterizes at 2-3 (§5.2).
	ILP float64
	// FactoriesSuggested provisions T-factories for the schedule: demand
	// per slot times the factory latency in slots.
	FactoriesSuggested int
	// Placement is the qubit→tile assignment when placement ran (nil
	// otherwise); Placement.CutCNOTs counts the CNOTs left across tiles,
	// which the machine refuses to run.
	Placement *place.Assignment
}

// Compile runs the host pipeline over a logical program.
func Compile(p *compiler.Program, opts Options) (*Artifact, error) {
	if err := p.Validate(); err != nil {
		return nil, fmt.Errorf("host: %w", err)
	}
	if opts.Schedule.Width == 0 {
		opts.Schedule = sched.DefaultConfig()
	}
	res, err := sched.Schedule(p, opts.Schedule)
	if err != nil {
		return nil, fmt.Errorf("host: %w", err)
	}
	emitted := p
	var asg *place.Assignment
	if opts.MachineTiles > 0 && opts.PatchesPerTile > 0 {
		asg, err = place.Place(p, opts.MachineTiles, opts.PatchesPerTile)
		if err != nil {
			return nil, fmt.Errorf("host: %w", err)
		}
		emitted, err = asg.Remap(p)
		if err != nil {
			return nil, fmt.Errorf("host: %w", err)
		}
	}
	art := &Artifact{
		Exe:       qexe.FromProgram(emitted),
		Schedule:  res,
		TCount:    p.TCount(),
		ILP:       res.ILP,
		Placement: asg,
	}
	if art.TCount > 0 {
		if opts.BundleDistillation {
			art.Exe.AddCache(opts.DistillSlot, distill.RoundCircuit())
		}
		// Demand: T gates per slot; one factory emits one state per
		// round-circuit's worth of slots.
		demand := float64(art.TCount) / float64(maxInt(res.Makespan, 1))
		art.FactoriesSuggested = distill.FactoriesNeeded(demand, distill.RoundInstructionCount)
	}
	if err := art.Exe.Validate(); err != nil {
		return nil, fmt.Errorf("host: %w", err)
	}
	return art, nil
}

// Lint reports program hygiene issues the host should surface before
// offload: measuring an unprepared qubit, operating on a measured-out qubit
// without re-preparation, and unterminated qubits (never measured). These
// are warnings, not errors — the hardware executes them, the results are
// just unlikely to mean anything.
func Lint(p *compiler.Program) []string {
	if err := p.Validate(); err != nil {
		return []string{err.Error()}
	}
	var warnings []string
	const (
		stVirgin = iota
		stLive
		stDead
	)
	state := make([]int, p.NumLogical)
	for i, in := range p.Instrs {
		if in.Op == isa.LCacheRun {
			continue // names a cache slot, not a qubit
		}
		qs := []int{int(in.Target)}
		if in.Op == isa.LCNOT {
			qs = append(qs, int(in.Arg))
		}
		for _, q := range qs {
			switch in.Op {
			case isa.LPrep0, isa.LPrepPlus:
				state[q] = stLive
			case isa.LMeasZ, isa.LMeasX:
				switch state[q] {
				case stVirgin:
					warnings = append(warnings, fmt.Sprintf("instr %d: measuring q%d before any preparation", i, q))
				case stDead:
					warnings = append(warnings, fmt.Sprintf("instr %d: re-measuring q%d after measurement", i, q))
				}
				state[q] = stDead
			default:
				if state[q] == stDead {
					warnings = append(warnings, fmt.Sprintf("instr %d: %s on measured-out q%d", i, in.Op, q))
					state[q] = stLive // report once
				}
				if state[q] == stVirgin {
					state[q] = stLive // implicit |0>; common, not warned
				}
			}
		}
	}
	for q, s := range state {
		if s == stLive {
			warnings = append(warnings, fmt.Sprintf("q%d is never measured", q))
		}
	}
	return warnings
}

func maxInt(a, b int) int {
	if a > b {
		return a
	}
	return b
}
