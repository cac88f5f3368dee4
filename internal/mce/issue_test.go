package mce

import (
	"reflect"
	"testing"

	"quest/internal/distill"
	"quest/internal/isa"
	"quest/internal/noise"
)

// naiveIssue is the full-scan reference for issueLogical: every cycle it
// walks both queues end to end, rebuilds them into fresh slices and tracks
// used patches in a map. issueLogical must match it cycle for cycle.
func naiveIssue(m *MCE, rep *CycleReport) []isa.MicroOp {
	var overlay []isa.MicroOp
	issued := 0
	usedPatch := map[int]bool{}
	take := func(queue *[]isa.LogicalInstr) {
		var rest []isa.LogicalInstr
		for _, in := range *queue {
			if issued >= issueWidth {
				rest = append(rest, in)
				continue
			}
			p1, p2 := int(in.Target), -1
			if in.Op == isa.LCNOT {
				p2 = int(in.Arg)
			}
			if usedPatch[p1] || (p2 >= 0 && usedPatch[p2]) {
				rest = append(rest, in)
				continue
			}
			ok, ops := m.tryIssue(in, rep)
			if !ok {
				rest = append(rest, in)
				usedPatch[p1] = true
				continue
			}
			usedPatch[p1] = true
			if p2 >= 0 {
				usedPatch[p2] = true
			}
			overlay = append(overlay, ops...)
			issued++
		}
		*queue = rest
	}
	take(&m.replayQ)
	take(&m.buffer)
	return overlay
}

// stepNaive is StepCycle with the reference issue stage.
func stepNaive(m *MCE) CycleReport {
	stallBefore := m.stalledT
	rep := CycleReport{Cycle: m.cycle}
	m.beginCycle(&rep)
	m.runCycle(&rep, naiveIssue(m, &rep), stallBefore)
	return rep
}

// distillBody projects one distillation round onto a two-patch tile: braided
// CNOTs between the patches, transversal T (stalling on the magic-state
// pool), H, preparations and measurements. LS has no transversal form, so it
// becomes a frame-level X.
func distillBody() []isa.LogicalInstr {
	var body []isa.LogicalInstr
	for _, in := range distill.RoundCircuit() {
		in.Target %= 2
		in.Arg %= 2
		switch {
		case in.Op == isa.LS:
			in = isa.LogicalInstr{Op: isa.LX, Target: in.Target}
		case in.Op == isa.LCNOT && in.Target == in.Arg:
			in = isa.LogicalInstr{Op: isa.LZ, Target: in.Target}
		case in.Op != isa.LCNOT:
			in.Arg = 0
		}
		body = append(body, in)
	}
	return body
}

// TestIssueLogicalMatchesFullScan drives a 63-rep cached distillation body,
// plus buffered traffic that names patches outside the tile, through two
// identical noisy MCEs: one steps with issueLogical, the other with the
// full-scan reference. Every cycle's report and both queues must agree.
func TestIssueLogicalMatchesFullScan(t *testing.T) {
	nm := noise.Uniform(1e-3)
	noisy := func(c *Config) { c.Noise = &nm }
	fast, ref := newMCE(t, 2, noisy), newMCE(t, 2, noisy)
	body := distillBody()
	for _, m := range []*MCE{fast, ref} {
		m.StepCycle()
		if err := m.LoadCacheSlot(0, body); err != nil {
			t.Fatal(err)
		}
		if err := m.Enqueue(isa.LogicalInstr{Op: isa.LCacheRun, Target: 0, Arg: 63}); err != nil {
			t.Fatal(err)
		}
	}
	// Mid-run traffic: a mask opcode aimed past the tile (Enqueue does not
	// range-check those) among in-tile Paulis, twice for one far patch.
	burst := []isa.LogicalInstr{
		{Op: isa.LX, Target: 1},
		{Op: isa.LMaskGrow, Target: 200},
		{Op: isa.LMaskShrink, Target: 200},
		{Op: isa.LZ, Target: 0},
	}
	cycles, bursts := 0, 0
	for ; fast.PendingLogical() > 0 || ref.PendingLogical() > 0; cycles++ {
		if cycles > 20000 {
			t.Fatalf("queues not drained after %d cycles", cycles)
		}
		for _, m := range []*MCE{fast, ref} {
			if cycles%7 == 0 {
				m.SupplyMagicStates(2)
			}
			if cycles%500 == 250 {
				bursts++
				for _, in := range burst {
					if err := m.Enqueue(in); err != nil {
						t.Fatal(err)
					}
				}
			}
		}
		got, want := fast.StepCycle(), stepNaive(ref)
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("cycle %d: report\n%+v\nwant\n%+v", cycles, got, want)
		}
		if !sameQueue(fast.replayQ, ref.replayQ) || !sameQueue(fast.buffer, ref.buffer) {
			t.Fatalf("cycle %d: queues diverged (replay %d vs %d, buffer %d vs %d)",
				cycles, len(fast.replayQ), len(ref.replayQ), len(fast.buffer), len(ref.buffer))
		}
	}
	_, retired, _, _, stalled := fast.Stats()
	if want := uint64(63*len(body) + bursts/2*len(burst)); retired != want || stalled == 0 {
		t.Errorf("retired %d, want %d; stalled T %d, want > 0", retired, want, stalled)
	}
	if fast.farQueued != 0 {
		t.Errorf("farQueued = %d after draining", fast.farQueued)
	}
}

// sameQueue compares queue contents; an empty queue equals a nil one.
func sameQueue(a, b []isa.LogicalInstr) bool {
	return len(a) == len(b) && (len(a) == 0 || reflect.DeepEqual(a, b))
}
