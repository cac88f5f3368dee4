package compiler

import (
	"testing"

	"quest/internal/isa"
	"quest/internal/surface"
)

func TestProgramBuilder(t *testing.T) {
	p := NewProgram(4)
	p.Prep0(0).PrepPlus(1).H(0).CNOT(0, 1).T(2).S(3).X(0).Z(1).MeasZ(0).MeasX(1)
	if err := p.Validate(); err != nil {
		t.Fatalf("valid program rejected: %v", err)
	}
	if len(p.Instrs) != 10 {
		t.Errorf("program length = %d", len(p.Instrs))
	}
	if p.TCount() != 1 {
		t.Errorf("T count = %d", p.TCount())
	}
}

func TestProgramPanics(t *testing.T) {
	expect := func(name string, f func()) {
		defer func() {
			if recover() == nil {
				t.Errorf("%s: no panic", name)
			}
		}()
		f()
	}
	expect("register too big", func() { NewProgram(100) })
	expect("register empty", func() { NewProgram(0) })
	p := NewProgram(2)
	expect("qubit out of range", func() { p.H(5) })
	expect("self CNOT", func() { p.CNOT(1, 1) })
	expect("bad eps", func() { p.DecomposeRz(0, 1.0, 0) })
	expect("bad eps count", func() { RzTCount(2) })
}

func TestValidateCatchesCorruptPrograms(t *testing.T) {
	p := NewProgram(2)
	p.H(0)
	p.Instrs = append(p.Instrs, isa.LogicalInstr{Op: isa.LCNOT, Target: 0, Arg: 9})
	if err := p.Validate(); err == nil {
		t.Error("CNOT arg outside register accepted")
	}
	p2 := NewProgram(2)
	p2.Instrs = append(p2.Instrs, isa.LogicalInstr{Op: isa.LogicalOpcode(60), Target: 0})
	if err := p2.Validate(); err == nil {
		t.Error("invalid opcode accepted")
	}
	p3 := NewProgram(2)
	p3.Instrs = append(p3.Instrs, isa.LogicalInstr{Op: isa.LH, Target: 7})
	if err := p3.Validate(); err == nil {
		t.Error("target outside register accepted")
	}
	p4 := NewProgram(2)
	p4.Instrs = append(p4.Instrs, isa.LogicalInstr{Op: isa.LCNOT, Target: 1, Arg: 1})
	if err := p4.Validate(); err == nil {
		t.Error("CNOT of a qubit onto itself accepted")
	}
}

// TestValidateCacheRunNamesSlot pins that an LCacheRun's Target is a cache
// slot, which the register check skips, while a gate on the same number
// is still outside the register.
func TestValidateCacheRunNamesSlot(t *testing.T) {
	p := NewProgram(2).Prep0(0)
	p.Instrs = append(p.Instrs, isa.LogicalInstr{Op: isa.LCacheRun, Target: 2})
	if err := p.Validate(); err != nil {
		t.Errorf("cache run on slot 2 of a 2-qubit program rejected: %v", err)
	}
	p.Instrs = append(p.Instrs, isa.LogicalInstr{Op: isa.LX, Target: 2})
	if err := p.Validate(); err == nil {
		t.Error("LX 2 on a 2-qubit register accepted")
	}
}

func TestDecomposeRzShape(t *testing.T) {
	p := NewProgram(1)
	eps := 1e-6
	p.DecomposeRz(0, 1.234, eps)
	want := RzTCount(eps)
	if p.TCount() != want {
		t.Errorf("T count = %d, want %d (≈3·log2(1/eps))", p.TCount(), want)
	}
	if want < 55 || want > 65 {
		t.Errorf("RzTCount(1e-6) = %d, want ≈60", want)
	}
	// Deterministic: same angle, same sequence.
	q := NewProgram(1)
	q.DecomposeRz(0, 1.234, eps)
	if len(p.Instrs) != len(q.Instrs) {
		t.Fatal("recompilation changed length")
	}
	for i := range p.Instrs {
		if p.Instrs[i] != q.Instrs[i] {
			t.Fatalf("instruction %d differs between compilations", i)
		}
	}
	// Different angles give different sequences.
	r := NewProgram(1)
	r.DecomposeRz(0, 2.468, eps)
	same := true
	for i := range p.Instrs {
		if p.Instrs[i] != r.Instrs[i] {
			same = false
			break
		}
	}
	if same {
		t.Error("different angles produced identical sequences")
	}
}

func TestLayoutGeometry(t *testing.T) {
	l := NewLayout(3, 4)
	if l.NumPatches() != 4 {
		t.Fatalf("patches = %d", l.NumPatches())
	}
	if l.Lat.Rows != 5 || l.Lat.Cols != 23 {
		t.Errorf("lattice = %dx%d, want 5x23", l.Lat.Rows, l.Lat.Cols)
	}
	// Patches must not overlap and must preserve the role pattern.
	seen := map[int]int{}
	for i := 0; i < 4; i++ {
		for _, q := range l.PatchQubits(i) {
			if prev, ok := seen[q]; ok {
				t.Fatalf("qubit %d in patches %d and %d", q, prev, i)
			}
			seen[q] = i
		}
		data := l.PatchDataQubits(i)
		if len(data) != 13 {
			t.Errorf("patch %d: %d data qubits, want 13 (d=3)", i, len(data))
		}
		if got := len(l.PatchLogicalZ(i)); got != 3 {
			t.Errorf("patch %d: logical Z weight %d, want 3", i, got)
		}
	}
	// Each patch is a translated copy: role at same offset must match.
	r00, c00, _, _ := l.PatchRegion(0)
	r10, c10, _, _ := l.PatchRegion(1)
	for dr := 0; dr < 5; dr++ {
		for dc := 0; dc < 5; dc++ {
			if l.Lat.RoleAt(r00+dr, c00+dc) != l.Lat.RoleAt(r10+dr, c10+dc) {
				t.Fatalf("role pattern broken at offset (%d,%d)", dr, dc)
			}
		}
	}
	defer func() {
		if recover() == nil {
			t.Error("patch index out of range accepted")
		}
	}()
	l.PatchRegion(9)
}

func TestTransverseExpansion(t *testing.T) {
	l := NewLayout(3, 2)
	ops, err := ExpandTransverse(l, isa.LogicalInstr{Op: isa.LH, Target: 1})
	if err != nil {
		t.Fatal(err)
	}
	if len(ops) != 13 {
		t.Fatalf("overlay size = %d, want 13", len(ops))
	}
	dataSet := map[int]bool{}
	for _, q := range l.PatchDataQubits(1) {
		dataSet[q] = true
	}
	for _, m := range ops {
		if m.Op != isa.OpH {
			t.Errorf("overlay op = %s", m.Op)
		}
		if !dataSet[m.Qubit] {
			t.Errorf("overlay hit qubit %d outside patch 1 data", m.Qubit)
		}
	}
	if _, err := ExpandTransverse(l, isa.LogicalInstr{Op: isa.LCNOT, Target: 0, Arg: 1}); err == nil {
		t.Error("CNOT expanded transversally")
	}
	if _, err := ExpandTransverse(l, isa.LogicalInstr{Op: isa.LH, Target: 9}); err == nil {
		t.Error("patch out of range accepted")
	}
}

func TestTransverseOpCoverage(t *testing.T) {
	for op := isa.LogicalOpcode(0); op.Valid(); op++ {
		phys, err := TransverseOp(op)
		if op.IsTransverse() {
			if err != nil {
				t.Errorf("%s: transverse op unmapped: %v", op, err)
			}
			if !phys.Valid() {
				t.Errorf("%s maps to invalid opcode", op)
			}
		} else if err == nil {
			t.Errorf("%s: non-transverse op mapped", op)
		}
	}
}

func TestBraidForCNOT(t *testing.T) {
	l := NewLayout(3, 3)
	steps := BraidForCNOT(l, 0, 2)
	if len(steps) == 0 || len(steps)%2 != 0 {
		t.Fatalf("braid length %d", len(steps))
	}
	// Apply to a mask: path must not collide with patches, and must restore.
	m := surface.NewMask(l.Lat)
	for _, s := range steps {
		if err := surface.ApplyBraidStep(m, s); err != nil {
			t.Fatalf("braid step: %v", err)
		}
	}
	if m.DisabledCount() != 0 {
		t.Error("braid did not restore mask")
	}
	// Reverse direction works too.
	rev := BraidForCNOT(l, 2, 0)
	if len(rev) != len(steps) {
		t.Errorf("reverse braid length %d != %d", len(rev), len(steps))
	}
	m2 := surface.NewMask(l.Lat)
	for _, s := range rev {
		if err := surface.ApplyBraidStep(m2, s); err != nil {
			t.Fatalf("reverse braid step: %v", err)
		}
	}
	defer func() {
		if recover() == nil {
			t.Error("self braid accepted")
		}
	}()
	BraidForCNOT(l, 1, 1)
}

func TestAppendAndRepeat(t *testing.T) {
	a := NewProgram(3)
	a.Prep0(0).H(0)
	b := NewProgram(2)
	b.X(1)
	a.Append(b)
	if len(a.Instrs) != 3 || a.Instrs[2].Op != isa.LX {
		t.Fatalf("append failed: %v", a.Instrs)
	}
	a.Repeat(3)
	if len(a.Instrs) != 9 {
		t.Fatalf("repeat length = %d, want 9", len(a.Instrs))
	}
	if a.Instrs[3] != a.Instrs[0] || a.Instrs[8] != a.Instrs[2] {
		t.Error("repeat did not copy the body")
	}
	expect := func(name string, f func()) {
		defer func() {
			if recover() == nil {
				t.Errorf("%s: no panic", name)
			}
		}()
		f()
	}
	expect("append larger register", func() { NewProgram(2).Append(NewProgram(5)) })
	expect("repeat zero", func() { NewProgram(2).Repeat(0) })
}

func TestStatsHistogram(t *testing.T) {
	p := NewProgram(4)
	p.Prep0(0).T(1).T(2).CNOT(0, 1).H(3).MeasZ(0)
	s := p.Stats()
	if s.Total != 6 || s.TCount != 2 || s.CNOTs != 1 {
		t.Errorf("stats = %+v", s)
	}
	if s.TFraction != 2.0/6 {
		t.Errorf("T fraction = %v", s.TFraction)
	}
	if s.ByOpcode[isa.LH] != 1 || s.ByOpcode[isa.LPrep0] != 1 {
		t.Error("histogram wrong")
	}
	empty := NewProgram(1).Stats()
	if empty.TFraction != 0 || empty.Total != 0 {
		t.Error("empty stats wrong")
	}
}
