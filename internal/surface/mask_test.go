package surface

import "testing"

func TestMaskBasics(t *testing.T) {
	lat := NewPlanar(3)
	m := NewMask(lat)
	if m.DisabledCount() != 0 {
		t.Error("fresh mask disables qubits")
	}
	if m.RawBits() != lat.NumQubits() {
		t.Errorf("RawBits = %d, want %d", m.RawBits(), lat.NumQubits())
	}
	m.SetDisabled(3, true)
	if !m.Disabled(3) || m.DisabledCount() != 1 {
		t.Error("SetDisabled had no effect")
	}
	v := m.Version()
	m.SetDisabled(3, true) // idempotent: version must not bump
	if m.Version() != v {
		t.Error("idempotent set bumped version")
	}
	m.SetDisabled(3, false)
	if m.Version() == v || m.Disabled(3) {
		t.Error("unset failed")
	}
}

func TestMaskRegionClipsToLattice(t *testing.T) {
	lat := NewPlanar(3) // 5x5
	m := NewMask(lat)
	m.SetRegion(3, 3, 10, 10, true) // extends past the edge
	want := 0
	for r := 3; r < 5; r++ {
		for c := 3; c < 5; c++ {
			want++
		}
	}
	if got := m.DisabledCount(); got != want {
		t.Errorf("clipped region disabled %d, want %d", got, want)
	}
	defer func() {
		if recover() == nil {
			t.Error("inverted region accepted")
		}
	}()
	m.SetRegion(2, 2, 1, 1, true)
}

func TestMaskCloneAndEqual(t *testing.T) {
	lat := NewPlanar(3)
	a := NewMask(lat)
	a.SetRegion(0, 0, 1, 1, true)
	b := a.Clone()
	if !a.Equal(b) {
		t.Error("clone not equal")
	}
	b.SetDisabled(20, true)
	if a.Equal(b) {
		t.Error("diverged masks equal")
	}
	if a.Disabled(20) {
		t.Error("clone shares storage")
	}
	other := NewMask(NewPlanar(5))
	if a.Equal(other) {
		t.Error("masks on different lattices equal")
	}
}

func TestCoalescedBits(t *testing.T) {
	lat := NewLattice(25, 25) // 625 qubits
	m := NewMask(lat)
	if got := m.CoalescedBits(5); got != 25 {
		t.Errorf("coalesced bits = %d, want 25 (N/d²)", got)
	}
	if got := m.CoalescedBits(1); got != 625 {
		t.Errorf("d=1 coalescing = %d, want 625", got)
	}
	// Non-divisible dimensions round up.
	m2 := NewMask(NewLattice(7, 7))
	if got := m2.CoalescedBits(5); got != 4 {
		t.Errorf("7x7 d=5 coalesced = %d, want 4", got)
	}
	defer func() {
		if recover() == nil {
			t.Error("d=0 accepted")
		}
	}()
	m.CoalescedBits(0)
}

// TestApplyBraidStepGuards pins the two refusals of ApplyBraidStep: a step
// outside the lattice, and a grow onto a site that is already masked.
func TestApplyBraidStepGuards(t *testing.T) {
	m := NewMask(NewLattice(5, 5))
	if err := ApplyBraidStep(m, BraidStep{Grow: true, R: 2, C: 3}); err != nil {
		t.Fatal(err)
	}
	if err := ApplyBraidStep(m, BraidStep{Grow: true, R: 99, C: 0}); err == nil {
		t.Error("out-of-lattice braid step accepted")
	}
	if err := ApplyBraidStep(m, BraidStep{Grow: true, R: 2, C: 3}); err == nil {
		t.Error("grow onto a masked site accepted")
	}
}

func TestRenderMask(t *testing.T) {
	lat := NewLattice(3, 3)
	m := NewMask(lat)
	m.SetDisabled(lat.Index(1, 1), true)
	got := RenderMask(lat, m)
	want := "DxD\nz#z\nDxD\n"
	if got != want {
		t.Errorf("render:\n%q\nwant:\n%q", got, want)
	}
	// nil mask renders the plain role map.
	if got := RenderMask(lat, nil); got != "DxD\nzDz\nDxD\n" {
		t.Errorf("nil-mask render: %q", got)
	}
}
