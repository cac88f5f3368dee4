package mce

import (
	"fmt"
	"reflect"
	"slices"
	"testing"

	"quest/internal/clifford"
	"quest/internal/compiler"
	"quest/internal/isa"
	"quest/internal/microcode"
	"quest/internal/noise"
)

// memoPair is two engines of one config and seed. fast replays cycles
// through its memo; ref has its memo dropped before every cycle, so it
// fires every cycle directly and never replays.
type memoPair struct {
	t         *testing.T
	fast, ref *MCE
	cycle     int
	// replays counts fast's cycles replayed from a recording, and
	// recompiles its cycles that compiled a new expansion.
	replays, recompiles int
}

func newMemoPair(t *testing.T, d, patches int, design microcode.Design, p float64) *memoPair {
	opt := func(c *Config) {
		c.Layout = compiler.NewLayout(d, patches)
		c.Design = design
		c.Seed = 3
		if p > 0 {
			nm := noise.Uniform(p)
			c.Noise = &nm
		}
	}
	return &memoPair{t: t, fast: newMCE(t, patches, opt), ref: newMCE(t, patches, opt)}
}

// stepOverlay runs one cycle of m. A nil overlay is a StepCycle; otherwise
// the cycle fires overlay in its first word, as an issued instruction's
// would, but leaves the mask alone.
func stepOverlay(m *MCE, overlay []isa.MicroOp) CycleReport {
	if overlay == nil {
		return m.StepCycle()
	}
	rep := CycleReport{Cycle: m.cycle}
	m.beginCycle(&rep)
	m.runCycle(&rep, overlay, m.stalledT)
	return rep
}

// step runs one cycle on both engines and requires the same report, the
// same delivered bits, the same tableau (X/Z planes, signs and rng state)
// and the same injector. A replay leaves fast's planes stale until
// something reads them, so its tableau is compared through a copy with the
// planes its memo names restored; fast itself is left as it is, so the
// stale planes carry on into the next cycle as they would in a run.
func (p *memoPair) step(overlay []isa.MicroOp) {
	p.t.Helper()
	m := p.fast
	s, before := m.memo.cur, m.compiledFrom
	recorded := s >= 0 && m.memo.next[s] >= 0
	got := stepOverlay(m, overlay)
	p.ref.memo.clear()
	want := stepOverlay(p.ref, overlay)
	switch {
	case len(before) == 0 || &before[0] != &m.compiledFrom[0]:
		p.recompiles++
	case recorded && overlay == nil:
		p.replays++
	}
	switch {
	case !reflect.DeepEqual(got, want):
		p.t.Fatalf("cycle %d: report\n%+v\nwant\n%+v", p.cycle, got, want)
	case !slices.Equal(m.measured, p.ref.measured) || !slices.Equal(m.outcomes, p.ref.outcomes):
		p.t.Fatalf("cycle %d: delivered measurement bits differ", p.cycle)
	case !reflect.DeepEqual(current(m), p.ref.tableau):
		p.t.Fatalf("cycle %d: tableaus differ", p.cycle)
	case !reflect.DeepEqual(m.inj, p.ref.inj):
		p.t.Fatalf("cycle %d: injectors differ", p.cycle)
	}
	p.cycle++
}

// current returns m's tableau as it stands once its planes are synced: a
// copy when the memo holds them stale, sharing the rng.
func current(m *MCE) *clifford.Tableau {
	if !m.memo.stale {
		return m.tableau
	}
	c := m.tableau.Clone()
	c.RestorePlanes(m.memo.planes[m.memo.cur])
	return c
}

func (p *memoPair) idle(n int) {
	p.t.Helper()
	for i := 0; i < n; i++ {
		p.step(nil)
	}
}

// both applies f to each engine.
func (p *memoPair) both(f func(m *MCE)) {
	f(p.fast)
	f(p.ref)
}

// send enqueues in on both engines and steps until both have drained.
func (p *memoPair) send(in isa.LogicalInstr) {
	p.t.Helper()
	p.both(func(m *MCE) {
		if err := m.Enqueue(in); err != nil {
			p.t.Fatal(err)
		}
	})
	for n := 0; p.fast.PendingLogical()+p.ref.PendingLogical() > 0; n++ {
		if n == 100 {
			p.t.Fatalf("%s still pending after %d cycles", in, n)
		}
		p.step(nil)
	}
}

// finish compares the next draws of both tableaus' rngs, through a
// measurement of every qubit after an H, and of both injectors.
func (p *memoPair) finish() {
	p.t.Helper()
	var outs [2][]int
	for i, m := range []*MCE{p.fast, p.ref} {
		m.memo.sync(m.tableau)
		for q := 0; q < m.tableau.N(); q++ {
			m.tableau.H(q)
			outs[i] = append(outs[i], m.tableau.MeasureZ(q))
		}
	}
	if !slices.Equal(outs[0], outs[1]) {
		p.t.Fatal("the tableaus' next draws differ")
	}
	if p.fast.inj != nil {
		chans := make([]noise.Channel, 1<<12)
		for i := range chans {
			chans[i] = noise.ChanIdle
		}
		if f, r := p.fast.inj.Next(chans, 0), p.ref.inj.Next(chans, 0); f != r {
			p.t.Fatalf("the injectors' next hits differ: %d and %d", f, r)
		}
	}
}

// TestMemoReplayMatchesDirect pins replayed cycles to direct execution. For
// every design, noiseless and at p=1e-2, an engine replaying through its
// memo must match, cycle for cycle, one of the same seed whose memo is
// dropped before every cycle: idle runs at d=3, d=5 and d=7 (351 qubits,
// six sign words a bitset), then a 3-patch tile
// taking transversal preparations and measurements, a braid across the
// middle patch, a patch masked for several cycles, an overlay that leaves
// the mask alone and a Reset mid-run.
func TestMemoReplayMatchesDirect(t *testing.T) {
	for _, design := range microcode.Designs() {
		for _, pn := range []float64{0, 1e-2} {
			t.Run(fmt.Sprintf("%s/p=%g", design, pn), func(t *testing.T) {
				for _, d := range []int{3, 5, 7} {
					p := newMemoPair(t, d, 2, design, pn)
					p.idle(40)
					p.finish()
					if p.replays < 35 {
						t.Errorf("d=%d idle: %d of 40 cycles replayed", d, p.replays)
					}
				}

				p := newMemoPair(t, 3, 3, design, pn)
				p.idle(6)
				// Patch 1 masked for several cycles: its rows hold still
				// while the others' return to the states they had under the
				// rest mask.
				r0, c0, r1, c1 := p.fast.cfg.Layout.PatchRegion(1)
				p.both(func(m *MCE) { m.mask.SetRegion(r0, c0, r1, c1, true) })
				p.idle(6)
				p.both(func(m *MCE) { m.mask.SetRegion(r0, c0, r1, c1, false) })
				p.idle(6)

				for _, op := range []isa.LogicalOpcode{isa.LPrep0, isa.LPrepPlus, isa.LMeasZ, isa.LMeasX} {
					p.send(isa.LogicalInstr{Op: op, Target: 1})
					p.idle(6)
				}
				across := false
				for _, s := range p.fast.braidPaths[0*3+2] {
					across = across || (s.R >= r0 && s.R <= r1 && s.C >= c0 && s.C <= c1)
				}
				if !across {
					t.Fatal("the braid from patch 0 to patch 2 does not cross patch 1")
				}
				p.send(isa.LogicalInstr{Op: isa.LCNOT, Target: 0, Arg: 2})
				p.idle(6)

				// A data site masked inside a patch leaves neighbouring
				// checks that anticommute: every cycle draws outcomes.
				var data []int
				for _, q := range p.fast.patches[0].qubits {
					if p.fast.dataMask[q>>6]>>(q&63)&1 != 0 {
						data = append(data, q)
					}
				}
				hole := data[len(data)/2]
				p.both(func(m *MCE) { m.mask.SetDisabled(hole, true) })
				p.idle(8)
				p.both(func(m *MCE) { m.mask.SetDisabled(hole, false) })
				p.idle(6)

				// An H on a gap qubit moves the planes without disturbing
				// the code.
				gap := -1
				for q, op := range p.fast.compiledFrom[0].Ops {
					if p.fast.baseMask.Disabled(q) && op == isa.OpIdle {
						gap = q
						break
					}
				}
				if gap < 0 {
					t.Fatal("no idle gap qubit in the first word")
				}
				p.step([]isa.MicroOp{{Qubit: gap, Op: isa.OpH}})
				p.idle(6)

				p.both(func(m *MCE) { m.Reset(9, nil, nil, nil, nil) })
				p.idle(4)
				p.send(isa.LogicalInstr{Op: isa.LMeasZ, Target: 0})
				p.idle(6)
				p.finish()
				if p.replays < 20 || p.recompiles < 10 {
					t.Errorf("3-patch run: %d replays and %d recompiles; the test should exercise both", p.replays, p.recompiles)
				}
			})
		}
	}
}
