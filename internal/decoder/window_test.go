package decoder

import (
	"math/rand"
	"testing"

	"quest/internal/awg"
	"quest/internal/clifford"
	"quest/internal/isa"
	"quest/internal/mc"
	"quest/internal/noise"
	"quest/internal/surface"
	"quest/internal/tracing"
)

func TestWindowBuffersUntilFull(t *testing.T) {
	lat := surface.NewPlanar(5)
	w := NewWindowDecoder(NewGlobalDecoder(lat), 3)
	frame := NewPauliFrame()
	a := lat.Index(3, 4)
	d1 := mkDefect(lat, a, 1)
	if n := w.Absorb([]Defect{d1}, frame); n != 0 {
		t.Fatalf("window decoded early: %d", n)
	}
	if w.Pending() != 1 {
		t.Fatalf("pending = %d", w.Pending())
	}
	// Same ancilla next round: the measurement-error pair must cancel with
	// zero corrections once the window closes, in one decode.
	d2 := mkDefect(lat, a, 2)
	w.Absorb([]Defect{d2}, frame)
	n := w.Absorb(nil, frame) // third round closes the window
	if n != 1 {
		t.Errorf("closing the window ran %d decodes, want 1", n)
	}
	if len(frame.XFlips())+len(frame.ZFlips()) != 0 {
		t.Error("frame disturbed by measurement error")
	}
	if w.Pending() != 0 {
		t.Error("window not drained")
	}
}

func TestWindowFlushAndClamp(t *testing.T) {
	lat := surface.NewPlanar(3)
	w := NewWindowDecoder(NewGlobalDecoder(lat), 0) // clamps to 1
	if w.WindowRounds != 1 {
		t.Errorf("window = %d, want clamped 1", w.WindowRounds)
	}
	frame := NewPauliFrame()
	if n := w.Flush(frame); n != 0 {
		t.Errorf("empty flush ran %d decodes", n)
	}
	// Window 1 behaves like per-round decoding: each round's defects are
	// decoded at once, one decode per defect type present.
	d := mkDefect(lat, lat.Index(1, 0), 1)
	if n := w.Absorb([]Defect{d}, frame); n != 1 {
		t.Errorf("window-1 ran %d decodes on one defect, want 1", n)
	}
	if len(frame.XFlips())+len(frame.ZFlips()) == 0 {
		t.Error("window-1 applied no correction")
	}
	x := 0
	for lat.RoleOf(x) != surface.RoleAncillaX {
		x++
	}
	if n := w.Absorb([]Defect{d, mkDefect(lat, x, 2)}, frame); n != 2 {
		t.Errorf("window-1 ran %d decodes on an X and a Z defect, want 2", n)
	}
	if n := w.Absorb(nil, frame); n != 0 {
		t.Errorf("an empty round ran %d decodes", n)
	}
}

// windowedFailRate runs the full path with window = distance rounds,
// fanning trials over the mc pool (workers <= 0 uses GOMAXPROCS). The
// noise model is noise.Uniform(p) — including the Prep channel — and each
// trial is seeded from (cell, trial) via the mc mixer, so distinct (d, p)
// cells never replay correlated fault patterns.
func windowedFailRate(t *testing.T, d int, p float64, trials int) float64 {
	t.Helper()
	lat := surface.NewPlanar(d)
	words := surface.CompileCycle(lat, surface.Steane, nil)
	cell := mc.Seed(0xdec0de, mc.F64(p), uint64(d))
	res := mc.RunBatch(trials, 0, cell, nil, nil, mc.Observers{}, func(start int, seeds []uint64, _ mc.BatchCtx, out []mc.Outcome) {
		for i, seed := range seeds {
			tb := clifford.New(lat.NumQubits(), rand.New(rand.NewSource(int64(mc.Derive(seed, 0)))))
			inj := noise.NewInjector(noise.Uniform(p), int64(mc.Derive(seed, 1)))
			noisy := awg.New(tb, inj)
			clean := awg.New(tb, nil)
			run := func(u *awg.ExecutionUnit) map[int]int {
				synd := make(map[int]int)
				u.MeasSink = func(q, bit int) { synd[q] = bit }
				for _, w := range words {
					u.ExecuteWord(w)
				}
				return synd
			}
			hist := NewHistory(lat)
			frame := NewPauliFrame()
			win := NewWindowDecoder(NewGlobalDecoder(lat), d)
			run(clean)
			hist.Absorb(run(clean))
			for round := 0; round < 4; round++ {
				inj.SetLocation(round, 0)
				win.Absorb(hist.Absorb(run(noisy)), frame)
			}
			win.Absorb(hist.Absorb(run(clean)), frame)
			win.Flush(frame)
			logZ := lat.LogicalZ()
			raw := tb.MeasureObservable(nil, logZ)
			want := 1 - 2*frame.ParityOn(logZ, true)
			out[i] = mc.Outcome{Fail: raw != 0 && raw != want}
		}
	})
	_ = isa.OpIdle
	return res.Rate
}

// TestDistanceSuppressionWithWindowedDecode is the qualitative threshold
// result: below threshold, distance 5 must not fail more than distance 3.
func TestDistanceSuppressionWithWindowedDecode(t *testing.T) {
	if testing.Short() {
		t.Skip("statistical test")
	}
	const p = 1e-3
	const trials = 250
	f3 := windowedFailRate(t, 3, p, trials)
	f5 := windowedFailRate(t, 5, p, trials)
	if f5 > f3 {
		t.Errorf("d=5 fail rate %.4f exceeds d=3 rate %.4f below threshold", f5, f3)
	}
	if f3 > 0.1 {
		t.Errorf("d=3 fail rate %.4f implausibly high at p=%.0e", f3, p)
	}
}

// TestWindowTracerEmitsWindowSpans pins the decoder-track "window" span: one
// span per flush, covering [open round, flush round) on the window's clock.
func TestWindowTracerEmitsWindowSpans(t *testing.T) {
	lat := surface.NewPlanar(5)
	w := NewWindowDecoder(NewGlobalDecoder(lat), 3)
	tr := tracing.New(64)
	w.SetTracer(tr, 2)
	frame := NewPauliFrame()
	a := lat.Index(3, 4)
	w.Absorb([]Defect{mkDefect(lat, a, 1)}, frame)
	w.Absorb([]Defect{mkDefect(lat, a, 2)}, frame)
	w.Absorb(nil, frame) // closes window 1: rounds [0,3)
	w.Absorb([]Defect{mkDefect(lat, a, 4)}, frame)
	w.Flush(frame) // force-closes window 2 early: rounds [3,4)
	evs := tr.Events()
	if len(evs) != 2 {
		t.Fatalf("events = %d, want 2 window spans: %+v", len(evs), evs)
	}
	for i, want := range []struct{ ts, dur int64 }{{0, 3}, {3, 1}} {
		ev := evs[i]
		if ev.Proc != "decoder" || ev.Tid != 2 || ev.Name != "window" {
			t.Errorf("span %d track = %s/%d %q, want decoder/2 \"window\"", i, ev.Proc, ev.Tid, ev.Name)
		}
		if ev.Ts != want.ts || ev.Dur != want.dur {
			t.Errorf("span %d covers [%d,%d), want [%d,%d)", i, ev.Ts, ev.Ts+ev.Dur, want.ts, want.ts+want.dur)
		}
	}
	// An empty flush emits nothing.
	w.Flush(frame)
	if tr.Len() != 2 {
		t.Errorf("empty flush emitted an event")
	}
}
