package mce

import (
	"fmt"
	"reflect"
	"slices"
	"testing"

	"quest/internal/compiler"
	"quest/internal/distill"
	"quest/internal/isa"
	"quest/internal/metrics"
	"quest/internal/microcode"
	"quest/internal/noise"
	"quest/internal/surface"
)

// naiveIssue is the full-scan reference for issueLogical: it lays each of
// the engine's queues out in arrival order, walks the replay queue and then
// the buffer end to end with the used patches in a map, and queues what
// still waits again in the same order. issueLogical must match it cycle for
// cycle.
func naiveIssue(m *MCE, rep *CycleReport) []isa.MicroOp {
	var overlay []isa.MicroOp
	issued := 0
	usedPatch := map[int]bool{}
	take := func(q *queue) {
		waiting := flat(q)
		q.reset()
		for _, in := range waiting {
			p1, p2 := int(in.Target), -1
			if in.Op == isa.LCNOT {
				p2 = int(in.Arg)
			}
			if issued >= issueWidth || usedPatch[p1] || (p2 >= 0 && usedPatch[p2]) {
				q.push(in)
				continue
			}
			ok, ops := m.tryIssue(in, rep)
			usedPatch[p1] = true
			if !ok {
				q.push(in)
				continue
			}
			if p2 >= 0 {
				usedPatch[p2] = true
			}
			overlay = append(overlay, ops...)
			issued++
		}
	}
	take(&m.replayQ)
	take(&m.buffer)
	return overlay
}

// flat returns a queue's waiting instructions in arrival order, merging its
// lanes by arrival number. It walks a copy of each lane's head entry, so a
// run's cursor stays where it is.
func flat(q *queue) []isa.LogicalInstr {
	type walk struct {
		head entry   // the lane's next entry, a copy
		rest []entry // the entries behind it
	}
	var out []isa.LogicalInstr
	lanes := make([]walk, 0, len(q.active))
	for _, l := range q.active {
		lanes = append(lanes, walk{l.entries[l.head], l.entries[l.head+1:]})
	}
	for {
		next, nextSeq := -1, uint64(0)
		for i := range lanes {
			if _, s := lanes[i].head.head(); next < 0 || s < nextSeq {
				next, nextSeq = i, s
			}
		}
		if next < 0 {
			return out
		}
		w := &lanes[next]
		in, _ := w.head.head()
		out = append(out, in)
		if w.head.advance() {
			if len(w.rest) == 0 {
				lanes[next] = lanes[len(lanes)-1]
				lanes = lanes[:len(lanes)-1]
				continue
			}
			w.head, w.rest = w.rest[0], w.rest[1:]
		}
	}
}

// stepNaive is StepCycle with the reference issue stage.
func stepNaive(m *MCE) CycleReport {
	stallBefore := m.stalledT
	rep := CycleReport{Cycle: m.cycle}
	m.beginCycle(&rep)
	m.runCycle(&rep, naiveIssue(m, &rep), stallBefore)
	return rep
}

// distillBody projects one distillation round onto a tile of n patches:
// braided CNOTs between the patches, transversal T (stalling on the
// magic-state pool), H, preparations and measurements. LS has no
// transversal form, so it becomes a frame-level X, and a CNOT folded onto
// one patch becomes a frame-level Z.
func distillBody(n uint8) []isa.LogicalInstr {
	var body []isa.LogicalInstr
	for _, in := range distill.RoundCircuit() {
		in.Target %= n
		in.Arg %= n
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

// burst is mid-run buffered traffic: a mask opcode aimed past the tile
// (Enqueue does not range-check those) among in-tile Paulis, twice for one
// far patch.
var burst = []isa.LogicalInstr{
	{Op: isa.LX, Target: 1},
	{Op: isa.LMaskGrow, Target: 200},
	{Op: isa.LMaskShrink, Target: 200},
	{Op: isa.LZ, Target: 0},
}

// issuePair is two identical noisy engines, fast stepping with
// issueLogical and ref with the full-scan reference, and the number of
// instructions each was sent since it was built or last Reset.
type issuePair struct {
	t         *testing.T
	fast, ref *MCE
	sent      map[*MCE]int
	// magicEvery is how many cycles apart run supplies two magic states.
	magicEvery int
}

func newIssuePair(t *testing.T, patches int, opts ...func(*Config)) *issuePair {
	nm := noise.Uniform(1e-3)
	reg := metrics.New()
	opts = append(opts, func(c *Config) { c.Noise, c.Metrics = &nm, reg })
	p := &issuePair{t: t, fast: newMCE(t, patches, opts...), ref: newMCE(t, patches, opts...), sent: map[*MCE]int{}, magicEvery: 7}
	p.fast.StepCycle()
	p.ref.StepCycle()
	return p
}

// enqueue sends ins to m, counting a cache run as the instructions it
// replays.
func (p *issuePair) enqueue(m *MCE, ins ...isa.LogicalInstr) {
	p.t.Helper()
	for _, in := range ins {
		if err := m.Enqueue(in); err != nil {
			p.t.Fatal(err)
		}
		if in.Op == isa.LCacheRun {
			p.sent[m] += max(1, int(in.Arg)) * len(m.cache[int(in.Target)].body)
		} else {
			p.sent[m]++
		}
	}
}

// replay caches body in slot 0 of m and queues reps replays of it, which
// must then wait in the replay queue in program order.
func (p *issuePair) replay(m *MCE, body []isa.LogicalInstr, reps int) {
	p.t.Helper()
	if err := m.LoadCacheSlot(0, body); err != nil {
		p.t.Fatal(err)
	}
	before := flat(&m.replayQ)
	p.enqueue(m, isa.LogicalInstr{Op: isa.LCacheRun, Target: 0, Arg: uint8(reps)})
	want := before
	for r := 0; r < reps; r++ {
		want = append(want, body...)
	}
	if got := flat(&m.replayQ); !slices.Equal(got, want) {
		p.t.Fatalf("replay queue after %d replays holds %d instructions out of program order", reps, len(got))
	}
}

// run steps both engines until each has drained and feed, called on both
// before every cycle, reports that it has nothing more to send. Every
// cycle's report and both queues, in arrival order, must agree; at the end
// each engine must have retired all it was sent, with some T stalls.
func (p *issuePair) run(feed func(m *MCE, cycle int) (more bool)) {
	p.t.Helper()
	for cycle := 0; ; cycle++ {
		if cycle > 20000 {
			p.t.Fatalf("queues not drained after %d cycles", cycle)
		}
		more := false
		for _, m := range []*MCE{p.fast, p.ref} {
			if cycle%p.magicEvery == 0 {
				m.SupplyMagicStates(2)
			}
			more = feed(m, cycle) || more
		}
		if !more && p.fast.PendingLogical() == 0 && p.ref.PendingLogical() == 0 {
			break
		}
		got, want := p.fast.StepCycle(), stepNaive(p.ref)
		if !reflect.DeepEqual(got, want) {
			p.t.Fatalf("cycle %d: report\n%+v\nwant\n%+v", cycle, got, want)
		}
		for _, q := range []struct {
			name      string
			fast, ref *queue
		}{{"replay", &p.fast.replayQ, &p.ref.replayQ}, {"buffer", &p.fast.buffer, &p.ref.buffer}} {
			if f, r := flat(q.fast), flat(q.ref); !slices.Equal(f, r) {
				p.t.Fatalf("cycle %d: %s queues diverged (%d vs %d waiting)", cycle, q.name, len(f), len(r))
			}
		}
	}
	for _, m := range []*MCE{p.fast, p.ref} {
		_, retired, _, _, stalled := m.Stats()
		if retired != uint64(p.sent[m]) || stalled == 0 {
			p.t.Errorf("retired %d, want %d; stalled T %d, want > 0", retired, p.sent[m], stalled)
		}
	}
}

// bursts sends burst every 500 cycles, from cycle 250 on.
func (p *issuePair) bursts(m *MCE, cycle int) bool {
	if cycle%500 == 250 {
		p.enqueue(m, burst...)
	}
	return false
}

// TestIssueLogicalMatchesFullScan drives cached distillation bodies and
// buffered traffic through pairs of identical noisy engines, one stepping
// with issueLogical and the other with the full-scan reference, and
// requires the same report every cycle and the same queues in arrival
// order.
func TestIssueLogicalMatchesFullScan(t *testing.T) {
	// 63 replays on two patches, with bursts that name a patch outside the
	// tile.
	t.Run("distill", func(t *testing.T) {
		p := newIssuePair(t, 2)
		for _, m := range []*MCE{p.fast, p.ref} {
			p.replay(m, distillBody(2), 63)
		}
		p.run(p.bursts)
	})

	// Three patches, with braided CNOTs over all three pairs.
	t.Run("three-patch", func(t *testing.T) {
		body := distillBody(3)
		pairs := map[[2]uint8]bool{}
		for _, in := range body {
			if in.Op == isa.LCNOT {
				pairs[[2]uint8{min(in.Target, in.Arg), max(in.Target, in.Arg)}] = true
			}
		}
		if len(pairs) != 3 {
			t.Fatalf("body braids %d patch pairs, want all 3: %v", len(pairs), pairs)
		}
		p := newIssuePair(t, 3)
		p.magicEvery = 40
		for _, m := range []*MCE{p.fast, p.ref} {
			p.replay(m, body, 10)
		}
		p.run(p.bursts)
	})

	// A bounded buffer fed a long program as fast as FreeBufferSlots
	// allows, beside a replay backlog that takes priority over it.
	t.Run("bounded-buffer", func(t *testing.T) {
		p := newIssuePair(t, 2, func(c *Config) { c.BufferCapacity = 8 })
		var program []isa.LogicalInstr
		for r := 0; r < 5; r++ {
			program = append(program, distillBody(2)...)
		}
		for _, m := range []*MCE{p.fast, p.ref} {
			p.replay(m, distillBody(2), 10)
		}
		next := map[*MCE]int{}
		p.run(func(m *MCE, cycle int) bool {
			for free := m.FreeBufferSlots(); free > 0 && next[m] < len(program); free-- {
				p.enqueue(m, program[next[m]])
				next[m]++
			}
			return next[m] < len(program)
		})
		if peak := p.fast.in.bufferPeak.Value(); peak != 8 {
			t.Errorf("mce.buffer.peak = %v, want the capacity 8", peak)
		}
	})

	// A Reset with both queues deep must empty them; a fresh replay then
	// drains the same way on both engines.
	t.Run("reset", func(t *testing.T) {
		p := newIssuePair(t, 2)
		for _, m := range []*MCE{p.fast, p.ref} {
			p.replay(m, distillBody(2), 63)
		}
		p.run(func(m *MCE, cycle int) bool {
			switch cycle {
			case 250:
				p.enqueue(m, burst...)
			case 300:
				if m.PendingLogical() < 1000 || m.buffer.n == 0 {
					t.Fatalf("backlog %d, buffer %d before Reset; want both deep", m.PendingLogical(), m.buffer.n)
				}
				m.Reset(7, nil, nil, nil, nil)
				if m.PendingLogical() != 0 || len(flat(&m.replayQ))+len(flat(&m.buffer)) != 0 {
					t.Fatalf("backlog %d after Reset", m.PendingLogical())
				}
				p.sent[m] = 0
				p.replay(m, distillBody(2), 5)
				p.enqueue(m, burst...)
			}
			return cycle < 300
		})
	})
}

// expandRun is the replay queue's reference for a cache run: what Enqueue
// did before runs waited as lane cursors, pushing every repetition of the
// body instruction by instruction, with the same cache-hit accounting.
func expandRun(m *MCE, slot, reps int) {
	for r := 0; r < reps; r++ {
		for _, b := range m.cache[slot].body {
			m.replayQ.push(b)
		}
	}
	m.cacheHits += uint64(reps)
	m.in.cacheHits.Add(uint64(reps))
}

// TestCacheRunMatchesExpansion pins cache runs queued as lane cursors to
// the instruction-by-instruction expansion. Two noisy three-patch engines
// load the same two bodies, each mixing one-patch instructions with braided
// CNOTs, and queue a run of each back to back: one through Enqueue, the
// other through expandRun. At 1, 2 and 7 repetitions every cycle's report,
// backlog and replay queue in arrival order must agree until both drain,
// and so must their counters at the end.
func TestCacheRunMatchesExpansion(t *testing.T) {
	bodies := [][]isa.LogicalInstr{distillBody(3), {
		{Op: isa.LCNOT, Target: 0, Arg: 2},
		{Op: isa.LX, Target: 1},
		{Op: isa.LCNOT, Target: 2, Arg: 0},
		{Op: isa.LZ, Target: 0},
		{Op: isa.LPrep0, Target: 1},
		{Op: isa.LCNOT, Target: 0, Arg: 2},
		{Op: isa.LMeasZ, Target: 1},
	}}
	nm := noise.Uniform(1e-3)
	for _, reps := range []int{1, 2, 7} {
		t.Run(fmt.Sprintf("reps-%d", reps), func(t *testing.T) {
			opt := func(c *Config) { c.Noise, c.Metrics = &nm, metrics.New() }
			fast, ref := newMCE(t, 3, opt), newMCE(t, 3, opt)
			for _, m := range []*MCE{fast, ref} {
				m.StepCycle()
				for slot, body := range bodies {
					if err := m.LoadCacheSlot(slot, body); err != nil {
						t.Fatal(err)
					}
				}
			}
			for slot := range bodies {
				if err := fast.Enqueue(isa.LogicalInstr{Op: isa.LCacheRun, Target: uint8(slot), Arg: uint8(reps)}); err != nil {
					t.Fatal(err)
				}
				expandRun(ref, slot, reps)
			}
			want := reps * (len(bodies[0]) + len(bodies[1]))
			if fast.PendingLogical() != want || ref.PendingLogical() != want {
				t.Fatalf("backlog %d and %d, want %d", fast.PendingLogical(), ref.PendingLogical(), want)
			}
			for cycle := 0; fast.PendingLogical()+ref.PendingLogical() > 0; cycle++ {
				if cycle > 5000 {
					t.Fatalf("not drained after %d cycles", cycle)
				}
				if cycle%5 == 0 {
					fast.SupplyMagicStates(1)
					ref.SupplyMagicStates(1)
				}
				got, want := fast.StepCycle(), ref.StepCycle()
				switch {
				case !reflect.DeepEqual(got, want):
					t.Fatalf("cycle %d: report\n%+v\nwant\n%+v", cycle, got, want)
				case fast.PendingLogical() != ref.PendingLogical():
					t.Fatalf("cycle %d: backlog %d, want %d", cycle, fast.PendingLogical(), ref.PendingLogical())
				case !slices.Equal(flat(&fast.replayQ), flat(&ref.replayQ)):
					t.Fatalf("cycle %d: replay queues diverged", cycle)
				}
			}
			a, b := [5]uint64{}, [5]uint64{}
			a[0], a[1], a[2], a[3], a[4] = fast.Stats()
			b[0], b[1], b[2], b[3], b[4] = ref.Stats()
			if a != b || a[1] < uint64(want) {
				t.Errorf("stats %v, want %v with at least %d retired", a, b, want)
			}
		})
	}
}

// TestCacheRunAllocsFollowBody pins a cache run's queue cost to its body:
// an Enqueue of an LCacheRun allocates the same at 1, 7 and 255
// repetitions.
func TestCacheRunAllocsFollowBody(t *testing.T) {
	var allocs []float64
	for _, reps := range []int{1, 7, 255} {
		m := newMCE(t, 2)
		if err := m.LoadCacheSlot(0, distillBody(2)); err != nil {
			t.Fatal(err)
		}
		run := isa.LogicalInstr{Op: isa.LCacheRun, Target: 0, Arg: uint8(reps)}
		allocs = append(allocs, testing.AllocsPerRun(100, func() {
			if err := m.Enqueue(run); err != nil {
				t.Fatal(err)
			}
		}))
	}
	if allocs[0] != allocs[1] || allocs[0] != allocs[2] {
		t.Errorf("allocs per cache run at 1, 7 and 255 repetitions: %v; want them equal", allocs)
	}
}

// BenchmarkIssueBacklog steps a noiseless two-patch engine replaying the
// distillation body with a shallow and a deep backlog. As in the machine's
// cached distillation replay, the body's T, H, preparations and
// measurements are frame-level Paulis, so nothing stalls. A replay is added
// outside the timer whenever the backlog falls a body below its depth, so
// every cycle issues from the same depth; the issue stage's cost must not
// grow with it.
func BenchmarkIssueBacklog(b *testing.B) {
	body := distillBody(2)
	for i, in := range body {
		if in.Op != isa.LCNOT && in.Op != isa.LZ {
			body[i] = isa.LogicalInstr{Op: isa.LX, Target: in.Target}
		}
	}
	for _, reps := range []int{63, 630} {
		b.Run(fmt.Sprintf("replays-%d", reps), func(b *testing.B) {
			m := New(Config{
				Design:     microcode.DesignUnitCell,
				Schedule:   surface.Steane,
				Layout:     compiler.NewLayout(3, 2),
				Seed:       1,
				CacheSlots: 1,
			})
			m.StepCycle()
			if err := m.LoadCacheSlot(0, body); err != nil {
				b.Fatal(err)
			}
			run := func(n int) {
				if err := m.Enqueue(isa.LogicalInstr{Op: isa.LCacheRun, Target: 0, Arg: uint8(n)}); err != nil {
					b.Fatal(err)
				}
			}
			for left := reps; left > 0; left -= 63 {
				run(min(left, 63))
			}
			depth := reps * len(body)
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if m.PendingLogical() <= depth-len(body) {
					b.StopTimer()
					run(1)
					b.StartTimer()
				}
				m.StepCycle()
			}
		})
	}
}
