package surface

import "fmt"

// Mask is the QECC mask of a lattice patch: one bit per qubit saying whether
// the microcode pipeline should replace that qubit's QECC µop with a logical
// µop (or idle). Logical qubits are created by masking the ancillas inside
// and on the perimeter of square regions (paper §5.1, Figure 12); braiding
// grows, moves and shrinks those regions.
//
// The mask is the mask-table contents of an MCE. Its raw size is N bits; for
// surface codes the paper coalesces it to N/d² bits because logical
// operations act at d² granularity — CoalescedBits computes that reduction.
type Mask struct {
	lat      Lattice
	disabled []bool
	version  uint64 // bumped on every mutation; lets caches detect staleness
}

// NewMask returns an all-enabled (no logical qubits) mask for the lattice.
func NewMask(lat Lattice) *Mask {
	return &Mask{lat: lat, disabled: make([]bool, lat.NumQubits())}
}

// Lattice returns the lattice the mask covers.
func (m *Mask) Lattice() Lattice { return m.lat }

// Version returns a counter that increments on every mutation.
func (m *Mask) Version() uint64 { return m.version }

// Disabled reports whether QECC is masked off for qubit i.
func (m *Mask) Disabled(i int) bool { return m.disabled[i] }

// SetDisabled sets the mask bit for one qubit.
func (m *Mask) SetDisabled(i int, v bool) {
	if m.disabled[i] != v {
		m.disabled[i] = v
		m.version++
	}
}

// DisabledCount returns the number of masked qubits.
func (m *Mask) DisabledCount() int {
	n := 0
	for _, d := range m.disabled {
		if d {
			n++
		}
	}
	return n
}

// SetRegion masks (v=true) or unmasks (v=false) every qubit in the inclusive
// rectangle [r0,r1]×[c0,c1].
func (m *Mask) SetRegion(r0, c0, r1, c1 int, v bool) {
	if r0 > r1 || c0 > c1 {
		panic(fmt.Sprintf("surface: inverted mask region (%d,%d)-(%d,%d)", r0, c0, r1, c1))
	}
	for r := r0; r <= r1; r++ {
		for c := c0; c <= c1; c++ {
			if m.lat.InBounds(r, c) {
				m.SetDisabled(m.lat.Index(r, c), v)
			}
		}
	}
}

// Clone returns an independent copy of the mask.
func (m *Mask) Clone() *Mask {
	c := &Mask{lat: m.lat, disabled: append([]bool(nil), m.disabled...), version: m.version}
	return c
}

// Equal reports whether two masks select identical qubit sets.
func (m *Mask) Equal(o *Mask) bool {
	if m.lat != o.lat {
		return false
	}
	for i, d := range m.disabled {
		if d != o.disabled[i] {
			return false
		}
	}
	return true
}

// RawBits returns the uncoalesced mask-table size in bits (one per qubit).
func (m *Mask) RawBits() int { return m.lat.NumQubits() }

// CoalescedBits returns the mask-table size when one bit covers a d×d-site
// block (the paper's N/d² optimization: logical instructions operate at d²
// physical-qubit granularity, so per-qubit mask bits are redundant).
func (m *Mask) CoalescedBits(d int) int {
	if d < 1 {
		panic(fmt.Sprintf("surface: coalescing distance %d < 1", d))
	}
	blocksR := (m.lat.Rows + d - 1) / d
	blocksC := (m.lat.Cols + d - 1) / d
	return blocksR * blocksC
}

// PhysicalQubitsPerLogical returns the count of physical qubits a
// defect-pair logical qubit occupies under the paper's appendix-M costing:
// 12.5·d² per logical qubit (the two masked squares, their perimeters and
// separation).
func PhysicalQubitsPerLogical(d int) float64 { return 12.5 * float64(d) * float64(d) }

// BraidStep is one mask mutation along a braid path.
type BraidStep struct {
	// Grow extends the mask to cover this site; otherwise the step shrinks
	// the mask back off this site.
	Grow bool
	R, C int
}

// RenderMask draws the lattice with the mask overlaid: masked sites print
// '#', active sites print their role (D, x, z). Used by examples and
// debugging output to visualize defects and braids (Figure 12).
func RenderMask(lat Lattice, m *Mask) string {
	buf := make([]byte, 0, (lat.Cols+1)*lat.Rows)
	for r := 0; r < lat.Rows; r++ {
		for c := 0; c < lat.Cols; c++ {
			i := lat.Index(r, c)
			switch {
			case m != nil && m.Disabled(i):
				buf = append(buf, '#')
			case lat.RoleAt(r, c) == RoleData:
				buf = append(buf, 'D')
			case lat.RoleAt(r, c) == RoleAncillaX:
				buf = append(buf, 'x')
			default:
				buf = append(buf, 'z')
			}
		}
		buf = append(buf, '\n')
	}
	return string(buf)
}

// ApplyBraidStep mutates the mask for one braid step. It returns an error if
// the step addresses a site outside the lattice, or if a grow step lands on
// an already-masked site — braid paths must route around other defects, and
// silently merging with one would corrupt the partner logical qubit when the
// return path shrinks back.
func ApplyBraidStep(m *Mask, s BraidStep) error {
	if !m.lat.InBounds(s.R, s.C) {
		return fmt.Errorf("surface: braid step at (%d,%d) outside lattice", s.R, s.C)
	}
	i := m.lat.Index(s.R, s.C)
	if s.Grow && m.Disabled(i) {
		return fmt.Errorf("surface: braid grow at (%d,%d) collides with an existing defect", s.R, s.C)
	}
	m.SetDisabled(i, s.Grow)
	return nil
}
