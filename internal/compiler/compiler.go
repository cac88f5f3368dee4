// Package compiler implements the software side of the paper's programming
// model (§3.2, §5): a logical circuit IR composed of fault-tolerant
// instructions, the placement of logical qubits as surface-code patches on
// an MCE tile, the expansion of transverse logical instructions into
// per-qubit physical µops, and the decomposition of arbitrary rotations
// into Clifford+T sequences (done at the host, never at the MCE — footnote
// 7). The bus bytes of the two streams the evaluation compares — the
// baseline software-managed stream (everything physical, QECC included) and
// the QuEST stream (2-byte logical instructions plus sync tokens) — are
// metered by the machine that runs a Program (core.RunReport), not modeled
// here.
package compiler

import (
	"fmt"
	"math"

	"quest/internal/isa"
	"quest/internal/surface"
)

// Program is a logical circuit: a sequence of logical instructions over a
// register of logical qubits.
type Program struct {
	NumLogical int
	Instrs     []isa.LogicalInstr
}

// NewProgram returns an empty program over n logical qubits (n ≤ 64 to fit
// the 6-bit target fields of the wire format).
func NewProgram(n int) *Program {
	if n < 1 || n > 64 {
		panic(fmt.Sprintf("compiler: logical register size %d outside [1,64]", n))
	}
	return &Program{NumLogical: n}
}

func (p *Program) emit(op isa.LogicalOpcode, target, arg uint8) *Program {
	p.Instrs = append(p.Instrs, isa.LogicalInstr{Op: op, Target: target, Arg: arg})
	return p
}

// Prep0 appends a logical |0> preparation.
func (p *Program) Prep0(q int) *Program { return p.emit(isa.LPrep0, p.check(q), 0) }

// PrepPlus appends a logical |+> preparation.
func (p *Program) PrepPlus(q int) *Program { return p.emit(isa.LPrepPlus, p.check(q), 0) }

// H appends a logical Hadamard.
func (p *Program) H(q int) *Program { return p.emit(isa.LH, p.check(q), 0) }

// X appends a logical Pauli-X.
func (p *Program) X(q int) *Program { return p.emit(isa.LX, p.check(q), 0) }

// Z appends a logical Pauli-Z.
func (p *Program) Z(q int) *Program { return p.emit(isa.LZ, p.check(q), 0) }

// S appends a logical phase gate.
func (p *Program) S(q int) *Program { return p.emit(isa.LS, p.check(q), 0) }

// T appends a logical T gate (consumes a magic state at run time).
func (p *Program) T(q int) *Program { return p.emit(isa.LT, p.check(q), 0) }

// CNOT appends a logical CNOT, realized by braiding at run time.
func (p *Program) CNOT(ctrl, tgt int) *Program {
	if ctrl == tgt {
		panic("compiler: CNOT control equals target")
	}
	return p.emit(isa.LCNOT, p.check(ctrl), p.check(tgt))
}

// MeasZ appends a logical Z-basis measurement.
func (p *Program) MeasZ(q int) *Program { return p.emit(isa.LMeasZ, p.check(q), 0) }

// MeasX appends a logical X-basis measurement.
func (p *Program) MeasX(q int) *Program { return p.emit(isa.LMeasX, p.check(q), 0) }

func (p *Program) check(q int) uint8 {
	if q < 0 || q >= p.NumLogical {
		panic(fmt.Sprintf("compiler: logical qubit %d outside register of %d", q, p.NumLogical))
	}
	return uint8(q)
}

// Validate checks every instruction addresses the register. An LCacheRun's
// Target is a cache slot, not a qubit: the tiles check it on delivery.
func (p *Program) Validate() error {
	for i, in := range p.Instrs {
		if !in.Op.Valid() {
			return fmt.Errorf("compiler: instruction %d has invalid opcode", i)
		}
		if in.Op != isa.LCacheRun && int(in.Target) >= p.NumLogical {
			return fmt.Errorf("compiler: instruction %d targets qubit %d outside register", i, in.Target)
		}
		if in.Op == isa.LCNOT && int(in.Arg) >= p.NumLogical {
			return fmt.Errorf("compiler: instruction %d CNOT arg %d outside register", i, in.Arg)
		}
		if in.Op == isa.LCNOT && in.Arg == in.Target {
			return fmt.Errorf("compiler: instruction %d CNOT control equals target", i)
		}
	}
	return nil
}

// TCount returns the number of T gates (magic-state consumers).
func (p *Program) TCount() int {
	n := 0
	for _, in := range p.Instrs {
		if in.Op == isa.LT {
			n++
		}
	}
	return n
}

// DecomposeRz appends a Clifford+T approximation of Rz(theta) on qubit q to
// the program, accurate to eps. The sequence length follows the standard
// ~3·log₂(1/eps) T-count of ancilla-free synthesis; the H/T pattern is a
// deterministic function of the angle bits, so recompilation is
// reproducible. Rotations are decomposed at the host or master controller
// (footnote 7), never at the MCE.
func (p *Program) DecomposeRz(q int, theta, eps float64) *Program {
	if eps <= 0 || eps >= 1 {
		panic(fmt.Sprintf("compiler: rotation tolerance %v outside (0,1)", eps))
	}
	tCount := int(math.Ceil(3 * math.Log2(1/eps)))
	// Derive a deterministic bit stream from the angle's binary expansion.
	frac := math.Mod(math.Abs(theta)/(2*math.Pi), 1)
	bits := uint64(frac * float64(1<<62))
	p.H(q)
	for i := 0; i < tCount; i++ {
		p.T(q)
		if bits>>(uint(i)%62)&1 == 1 {
			p.H(q)
		} else {
			p.S(q)
		}
	}
	p.H(q)
	return p
}

// RzTCount returns the T-count DecomposeRz will emit for a tolerance.
func RzTCount(eps float64) int {
	if eps <= 0 || eps >= 1 {
		panic(fmt.Sprintf("compiler: rotation tolerance %v outside (0,1)", eps))
	}
	return int(math.Ceil(3 * math.Log2(1/eps)))
}

// Layout places logical qubits as planar surface-code patches side by side
// on one MCE tile, one data-qubit column apart so role parity is preserved
// across the whole lattice.
type Layout struct {
	Lat      surface.Lattice
	Distance int
	patches  int
}

// NewLayout builds a tile lattice holding n distance-d patches.
func NewLayout(d, n int) Layout {
	if d < 2 {
		panic(fmt.Sprintf("compiler: distance %d < 2", d))
	}
	if n < 1 {
		panic(fmt.Sprintf("compiler: patch count %d < 1", n))
	}
	// Patch width 2d-1 plus a 1-column gap: stride 2d keeps (r+c) parity.
	cols := n*2*d - 1
	return Layout{Lat: surface.NewLattice(2*d-1, cols), Distance: d, patches: n}
}

// NumPatches returns the logical capacity of the tile.
func (l Layout) NumPatches() int { return l.patches }

// PatchRegion returns the inclusive site rectangle of patch i.
func (l Layout) PatchRegion(i int) (r0, c0, r1, c1 int) {
	if i < 0 || i >= l.patches {
		panic(fmt.Sprintf("compiler: patch %d outside layout of %d", i, l.patches))
	}
	c0 = i * 2 * l.Distance
	return 0, c0, l.Lat.Rows - 1, c0 + 2*l.Distance - 2
}

// PatchQubits returns all physical qubits of patch i.
func (l Layout) PatchQubits(i int) []int {
	r0, c0, r1, c1 := l.PatchRegion(i)
	var out []int
	for r := r0; r <= r1; r++ {
		for c := c0; c <= c1; c++ {
			out = append(out, l.Lat.Index(r, c))
		}
	}
	return out
}

// PatchDataQubits returns the data qubits of patch i — the support of
// transverse logical instructions.
func (l Layout) PatchDataQubits(i int) []int {
	var out []int
	for _, q := range l.PatchQubits(i) {
		if l.Lat.RoleOf(q) == surface.RoleData {
			out = append(out, q)
		}
	}
	return out
}

// PatchLogicalZ returns the logical-Z support of patch i (top data row).
func (l Layout) PatchLogicalZ(i int) []int {
	_, c0, _, c1 := l.PatchRegion(i)
	var out []int
	for c := c0; c <= c1; c += 2 {
		out = append(out, l.Lat.Index(0, c))
	}
	return out
}

// PatchLogicalX returns the logical-X support of patch i (left data column).
func (l Layout) PatchLogicalX(i int) []int {
	r0, c0, r1, _ := l.PatchRegion(i)
	var out []int
	for r := r0; r <= r1; r += 2 {
		out = append(out, l.Lat.Index(r, c0))
	}
	return out
}

// TransverseOp maps a transverse logical opcode to the physical µop applied
// across the patch's data qubits.
func TransverseOp(op isa.LogicalOpcode) (isa.Opcode, error) {
	switch op {
	case isa.LPrep0:
		return isa.OpPrep0, nil
	case isa.LPrepPlus:
		return isa.OpPrepPlus, nil
	case isa.LMeasZ:
		return isa.OpMeasZ, nil
	case isa.LMeasX:
		return isa.OpMeasX, nil
	case isa.LX:
		return isa.OpX, nil
	case isa.LZ:
		return isa.OpZ, nil
	case isa.LH:
		return isa.OpH, nil
	case isa.LS:
		return isa.OpS, nil
	case isa.LT:
		return isa.OpT, nil
	}
	return 0, fmt.Errorf("compiler: %s is not a transverse instruction", op)
}

// ExpandTransverse returns the physical µop overlay of one transverse
// logical instruction on the layout: the µop applied to every data qubit of
// the target patch.
func ExpandTransverse(l Layout, in isa.LogicalInstr) ([]isa.MicroOp, error) {
	op, err := TransverseOp(in.Op)
	if err != nil {
		return nil, err
	}
	if int(in.Target) >= l.NumPatches() {
		return nil, fmt.Errorf("compiler: instruction targets patch %d outside tile of %d", in.Target, l.NumPatches())
	}
	data := l.PatchDataQubits(int(in.Target))
	out := make([]isa.MicroOp, len(data))
	for i, q := range data {
		out[i] = isa.MicroOp{Op: op, Qubit: q, Pair: -1}
	}
	return out, nil
}

// BraidForCNOT returns the mask-instruction walk realizing a logical CNOT
// between two patches: the control patch's boundary extends along the gap
// column toward the target patch and retracts (Figure 12c). The path stays
// on the gap columns so it never collides with either patch.
func BraidForCNOT(l Layout, ctrl, tgt int) []surface.BraidStep {
	if ctrl == tgt || ctrl < 0 || tgt < 0 || ctrl >= l.patches || tgt >= l.patches {
		panic(fmt.Sprintf("compiler: invalid CNOT patches %d,%d", ctrl, tgt))
	}
	_, cc0, _, cc1 := l.PatchRegion(ctrl)
	_, tc0, _, tc1 := l.PatchRegion(tgt)
	row := l.Lat.Rows / 2
	// Walk along the middle row from the control patch's edge to the target
	// patch's near edge, then back.
	var from, to int
	if ctrl < tgt {
		from, to = cc1+1, tc0-1
	} else {
		from, to = cc0-1, tc1+1
	}
	var out []surface.BraidStep
	step := 1
	if to < from {
		step = -1
	}
	for c := from; c != to+step; c += step {
		out = append(out, surface.BraidStep{Grow: true, R: row, C: c})
	}
	for i := len(out) - 1; i >= 0; i-- {
		out = append(out, surface.BraidStep{Grow: false, R: out[i].R, C: out[i].C})
	}
	return out
}

// Append concatenates another program over the same register, returning the
// receiver for chaining.
func (p *Program) Append(other *Program) *Program {
	if other.NumLogical > p.NumLogical {
		panic(fmt.Sprintf("compiler: appending %d-qubit program onto %d-qubit register",
			other.NumLogical, p.NumLogical))
	}
	p.Instrs = append(p.Instrs, other.Instrs...)
	return p
}

// Repeat appends n-1 additional copies of the current instruction sequence
// (so the program runs n times total). n must be positive.
func (p *Program) Repeat(n int) *Program {
	if n < 1 {
		panic(fmt.Sprintf("compiler: repeat count %d < 1", n))
	}
	body := append([]isa.LogicalInstr(nil), p.Instrs...)
	for i := 1; i < n; i++ {
		p.Instrs = append(p.Instrs, body...)
	}
	return p
}

// Stats is a program's opcode histogram plus headline counts.
type Stats struct {
	ByOpcode map[isa.LogicalOpcode]int
	Total    int
	TCount   int
	CNOTs    int
	// TFraction is the share of T gates — the workload-profile quantity.
	TFraction float64
}

// Stats computes the histogram.
func (p *Program) Stats() Stats {
	s := Stats{ByOpcode: make(map[isa.LogicalOpcode]int)}
	for _, in := range p.Instrs {
		s.ByOpcode[in.Op]++
		s.Total++
	}
	s.TCount = s.ByOpcode[isa.LT]
	s.CNOTs = s.ByOpcode[isa.LCNOT]
	if s.Total > 0 {
		s.TFraction = float64(s.TCount) / float64(s.Total)
	}
	return s
}
