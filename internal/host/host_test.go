package host

import (
	"bytes"
	"strings"
	"testing"

	"quest/internal/compiler"
	"quest/internal/core"
	"quest/internal/isa"
	"quest/internal/qasm"
	"quest/internal/qexe"
	"quest/internal/sched"
)

func TestCompileBasics(t *testing.T) {
	p := compiler.NewProgram(3)
	p.Prep0(0).Prep0(1).H(0).T(1).CNOT(0, 1).MeasZ(0).MeasZ(1)
	art, err := Compile(p, DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	if art.TCount != 1 {
		t.Errorf("TCount = %d", art.TCount)
	}
	if art.ILP <= 0 {
		t.Errorf("ILP = %v", art.ILP)
	}
	if len(art.Exe.Caches) != 1 {
		t.Errorf("distillation not bundled: %d caches", len(art.Exe.Caches))
	}
	if art.FactoriesSuggested < 1 {
		t.Errorf("factories = %d", art.FactoriesSuggested)
	}
	if err := art.Schedule.Validate(p, sched.DefaultConfig()); err != nil {
		t.Errorf("schedule invalid: %v", err)
	}
}

func TestCompileWithoutTGatesSkipsBundle(t *testing.T) {
	p := compiler.NewProgram(2)
	p.Prep0(0).H(0).MeasZ(0)
	art, err := Compile(p, DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	if len(art.Exe.Caches) != 0 {
		t.Error("cache bundled without T gates")
	}
	if art.FactoriesSuggested != 0 {
		t.Errorf("factories suggested for T-free program: %d", art.FactoriesSuggested)
	}
}

func TestCompileRejectsInvalid(t *testing.T) {
	bad := compiler.NewProgram(2)
	bad.Instrs = append(bad.Instrs, bad.Instrs...)
	bad.Instrs = append(bad.Instrs, compiler.NewProgram(2).Prep0(0).Instrs[0])
	bad.Instrs[0].Target = 9
	if _, err := Compile(bad, DefaultOptions()); err == nil {
		t.Error("invalid program compiled")
	}
}

func TestCompileQASMEndToEndOnMachine(t *testing.T) {
	src := `
prep0 q0
prep0 q1
x q0
cnot q0, q1
measz q0
measz q1
`
	p, err := qasm.ParseString(src, 2)
	if err != nil {
		t.Fatal(err)
	}
	art, err := Compile(p, DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	// Serialize through the wire format, as the real pipeline would.
	var buf bytes.Buffer
	if err := art.Exe.Encode(&buf); err != nil {
		t.Fatal(err)
	}
	exe, err := qexe.Decode(&buf)
	if err != nil {
		t.Fatal(err)
	}
	m := core.NewMachine(core.DefaultMachineConfig())
	rep, err := m.RunExecutable(exe, 0)
	if err != nil {
		t.Fatal(err)
	}
	if !rep.Drained || rep.LogicalRetired != 6 {
		t.Fatalf("machine run: drained=%v retired=%d", rep.Drained, rep.LogicalRetired)
	}
	bits := map[int]int{}
	for _, r := range rep.Results {
		bits[r.Patch] = r.Bit
	}
	if bits[0] != 1 || bits[1] != 0 {
		t.Errorf("measured %v, want q0=1 q1=0", bits)
	}
}

func TestLintFindings(t *testing.T) {
	p := compiler.NewProgram(3)
	p.MeasZ(0) // measure before prep
	p.Prep0(1)
	p.MeasZ(1)
	p.X(1)     // op after measurement
	p.Prep0(2) // q2 never measured
	warnings := Lint(p)
	wantFrags := []string{
		"measuring q0 before any preparation",
		"LX on measured-out q1",
		"q2 is never measured",
	}
	for _, frag := range wantFrags {
		found := false
		for _, w := range warnings {
			if strings.Contains(w, frag) {
				found = true
			}
		}
		if !found {
			t.Errorf("missing warning %q in %v", frag, warnings)
		}
	}
}

func TestLintCleanProgram(t *testing.T) {
	p := compiler.NewProgram(2)
	p.Prep0(0).Prep0(1).H(0).CNOT(0, 1).MeasZ(0).MeasZ(1)
	if w := Lint(p); len(w) != 0 {
		t.Errorf("clean program warned: %v", w)
	}
	// Re-preparation revives a measured qubit.
	p2 := compiler.NewProgram(1)
	p2.Prep0(0).MeasZ(0).Prep0(0).MeasZ(0)
	if w := Lint(p2); len(w) != 0 {
		t.Errorf("re-prepared qubit warned: %v", w)
	}
	// Double measurement warns.
	p3 := compiler.NewProgram(1)
	p3.Prep0(0).MeasZ(0).MeasZ(0)
	if w := Lint(p3); len(w) != 1 {
		t.Errorf("double measurement warnings: %v", w)
	}
	// A cache run names a slot, not a qubit, even past the register.
	p4 := compiler.NewProgram(2).Prep0(0)
	p4.Instrs = append(p4.Instrs, isa.LogicalInstr{Op: isa.LCacheRun, Target: 2})
	p4.MeasZ(0)
	if w := Lint(p4); len(w) != 0 {
		t.Errorf("cache run warned: %v", w)
	}
}

func TestLintInvalidProgram(t *testing.T) {
	bad := compiler.NewProgram(1)
	bad.Instrs = append(bad.Instrs, compiler.NewProgram(2).H(1).Instrs[0])
	if w := Lint(bad); len(w) == 0 {
		t.Error("invalid program produced no findings")
	}
}

func TestCompileWithPlacement(t *testing.T) {
	// Qubits 0 and 3 braid: naive striping on a 2×2 machine splits them, so
	// placement must co-locate and the compiled executable must run.
	p := compiler.NewProgram(4)
	p.Prep0(0).Prep0(3).CNOT(0, 3).MeasZ(0).MeasZ(3)
	opts := DefaultOptions()
	opts.MachineTiles = 2
	opts.PatchesPerTile = 2
	art, err := Compile(p, opts)
	if err != nil {
		t.Fatal(err)
	}
	if art.Placement == nil || art.Placement.CutCNOTs != 0 {
		t.Fatalf("placement = %+v", art.Placement)
	}
	cfg := core.DefaultMachineConfig()
	cfg.Tiles = 2
	cfg.PatchesPerTile = 2
	m := core.NewMachine(cfg)
	rep, err := m.RunExecutable(art.Exe, 0)
	if err != nil {
		t.Fatal(err)
	}
	if !rep.Drained || rep.LogicalRetired != 5 {
		t.Fatalf("placed executable: drained=%v retired=%d", rep.Drained, rep.LogicalRetired)
	}
	// Over-capacity placement surfaces an error.
	big := compiler.NewProgram(9)
	big.H(8)
	if _, err := Compile(big, opts); err == nil {
		t.Error("over-capacity placement compiled")
	}
}
