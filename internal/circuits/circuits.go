// Package circuits provides canonical quantum algorithm builders at both
// levels the stack speaks:
//
//   - Logical programs (compiler.Program) for instruction-stream and
//     bandwidth accounting on the QuEST machine — Bernstein–Vazirani, QFT
//     (via host-side rotation synthesis) and GHZ preparation, sized like
//     the kernels inside the paper's workloads.
//   - Physical Clifford circuits executed directly on the stabilizer
//     substrate, where algorithm *correctness* is verifiable: the package's
//     tests run Bernstein–Vazirani, teleportation and GHZ end to end on the
//     tableau and check the answers.
//
// The split mirrors the repository's modelling scope: logical Clifford
// semantics beyond Paulis/prep/measure are instruction-level (DESIGN.md),
// so functional verification happens on the physical simulator.
package circuits

import (
	"fmt"

	"quest/internal/clifford"
	"quest/internal/compiler"
)

// BernsteinVazirani returns the logical program for recovering an n-bit
// secret with one oracle query: H on all, oracle CNOTs from secret bits into
// the target, H on all, measure.
func BernsteinVazirani(secret []bool) *compiler.Program {
	n := len(secret)
	if n < 1 || n > 62 {
		panic(fmt.Sprintf("circuits: secret length %d outside [1,62]", n))
	}
	p := compiler.NewProgram(n + 1)
	target := n
	for q := 0; q < n; q++ {
		p.Prep0(q)
	}
	p.Prep0(target)
	p.X(target)
	p.H(target)
	for q := 0; q < n; q++ {
		p.H(q)
	}
	for q, bit := range secret {
		if bit {
			p.CNOT(q, target)
		}
	}
	for q := 0; q < n; q++ {
		p.H(q)
		p.MeasZ(q)
	}
	return p
}

// QFT appends the quantum Fourier transform over the first n qubits, with
// controlled rotations synthesized host-side to tolerance eps.
func QFT(p *compiler.Program, n int, eps float64) *compiler.Program {
	if n < 1 || n > p.NumLogical {
		panic(fmt.Sprintf("circuits: qft width %d invalid", n))
	}
	for i := 0; i < n; i++ {
		p.H(i)
		for j := i + 1; j < n; j++ {
			// Controlled-R_k decomposes as two CNOTs and three rotations.
			angle := 3.14159265358979 / float64(int(1)<<(j-i))
			p.CNOT(j, i)
			p.DecomposeRz(i, -angle/2, eps)
			p.CNOT(j, i)
			p.DecomposeRz(i, angle/2, eps)
		}
	}
	return p
}

// GHZ returns the logical program preparing an n-qubit GHZ state.
func GHZ(n int) *compiler.Program {
	if n < 2 || n > 64 {
		panic(fmt.Sprintf("circuits: GHZ width %d outside [2,64]", n))
	}
	p := compiler.NewProgram(n)
	for q := 0; q < n; q++ {
		p.Prep0(q)
	}
	p.H(0)
	for q := 1; q < n; q++ {
		p.CNOT(0, q)
	}
	for q := 0; q < n; q++ {
		p.MeasZ(q)
	}
	return p
}

// ---- physical-level executions on the stabilizer substrate ----

// RunBernsteinVaziraniPhysical executes BV directly on a tableau and returns
// the recovered secret. Single-query exactness is the algorithm's whole
// point; the test asserts recovered == secret for every secret.
func RunBernsteinVaziraniPhysical(t *clifford.Tableau, secret []bool) []bool {
	n := len(secret)
	if t.N() < n+1 {
		panic(fmt.Sprintf("circuits: tableau too small: %d < %d", t.N(), n+1))
	}
	target := n
	for q := 0; q <= n; q++ {
		t.Prep0(q)
	}
	t.X(target)
	t.H(target)
	for q := 0; q < n; q++ {
		t.H(q)
	}
	for q, bit := range secret {
		if bit {
			t.CNOT(q, target)
		}
	}
	out := make([]bool, n)
	for q := 0; q < n; q++ {
		t.H(q)
		out[q] = t.MeasureZ(q) == 1
	}
	return out
}

// RunTeleportationPhysical teleports qubit 0's state to qubit 2 through a
// Bell pair on (1,2) with classically-controlled corrections, returning the
// Z-basis measurement of the teleported qubit. prepareX selects whether the
// input is |1> (true) or |0>.
func RunTeleportationPhysical(t *clifford.Tableau, prepareX bool) int {
	if t.N() < 3 {
		panic("circuits: teleportation needs 3 qubits")
	}
	for q := 0; q < 3; q++ {
		t.Prep0(q)
	}
	if prepareX {
		t.X(0)
	}
	// Bell pair on (1,2).
	t.H(1)
	t.CNOT(1, 2)
	// Bell measurement of (0,1).
	t.CNOT(0, 1)
	t.H(0)
	m0 := t.MeasureZ(0)
	m1 := t.MeasureZ(1)
	// Corrections on qubit 2.
	if m1 == 1 {
		t.X(2)
	}
	if m0 == 1 {
		t.Z(2)
	}
	return t.MeasureZ(2)
}

// RunGHZPhysical prepares an n-qubit GHZ state on the tableau and returns
// the measured bits (all equal by construction).
func RunGHZPhysical(t *clifford.Tableau, n int) []int {
	if t.N() < n || n < 2 {
		panic("circuits: bad GHZ width")
	}
	for q := 0; q < n; q++ {
		t.Prep0(q)
	}
	t.H(0)
	for q := 1; q < n; q++ {
		t.CNOT(0, q)
	}
	out := make([]int, n)
	for q := 0; q < n; q++ {
		out[q] = t.MeasureZ(q)
	}
	return out
}
