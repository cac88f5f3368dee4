package core

import (
	"bytes"
	"io"
	"testing"
	"time"

	"quest/internal/bwprofile"
	"quest/internal/compiler"
	"quest/internal/events"
	"quest/internal/heatmap"
	"quest/internal/ledger"
	"quest/internal/mc"
	"quest/internal/metrics"
	"quest/internal/noise"
	"quest/internal/tracing"
)

// quietInstruments are the registered instruments no production run makes
// fire, each with the reason.
var quietInstruments = map[string]string{
	"decoder.match.greedy":  "greedy matching takes over only past GlobalDecoder.MaxExact defects, which no run reaches",
	"master.syncs":          "Master.SendSync and its one caller, MoveLogical, have no caller outside tests",
	"master.bus.sync.instr": "the sync bus carries only SendSync tokens",
	"master.bus.sync.bytes": "the sync bus carries only SendSync tokens",
	"mce.stalled.t":         "only a logical T gate waits on a magic state; the cached distillation body turns its Ts into Paulis",
	"mce.buffer.occupancy":  "a gauge of the last cycle's buffer depth, which reads 0 once the buffer drains",
}

// sidebands holds one run's private registry and every side-band the
// commands can switch on: ledger, heatmaps, bandwidth profile, trace and
// live events.
type sidebands struct {
	reg  *metrics.Registry
	tr   *tracing.Tracer
	heat *heatmap.Set
	bw   *bwprofile.Recorder
	smp  *events.Sampler
	led  *ledger.Writer
}

func newSidebands(t *testing.T) *sidebands {
	t.Helper()
	s := &sidebands{
		reg:  metrics.New(),
		tr:   tracing.New(1 << 12),
		heat: heatmap.NewSet(),
		bw:   bwprofile.New(bwprofile.DefaultWindow),
	}
	s.smp = events.NewSampler(events.NewWriter(io.Discard, nil), s.reg)
	s.smp.SetBW(s.bw)
	// The run stops the sampler before the ticker's first tick.
	if err := s.smp.Start(events.Header{Experiment: "liveness"}, time.Hour); err != nil {
		t.Fatal(err)
	}
	led, err := ledger.NewWriter(&bytes.Buffer{}, "liveness", nil, ledger.ShardInfo{})
	if err != nil {
		t.Fatal(err)
	}
	s.led = led
	return s
}

func (s *sidebands) sweep() SweepObs {
	return SweepObs{
		Ledger: s.led, Heat: s.heat, BW: s.bw,
		Progress: func(cell string, p mc.Progress) { s.smp.ObserveCell(cell, p) },
	}
}

func (s *sidebands) machine(cfg MachineConfig) *Machine {
	cfg.Metrics, cfg.Tracer, cfg.Heat, cfg.BW = s.reg, s.tr, s.heat, s.bw
	nm := noise.Uniform(1e-3)
	cfg.Noise = &nm
	return NewMachine(cfg)
}

// idle steps the machine the way questsim's -cycles tail does, feeding the
// events side-band one pseudo-cell.
func (s *sidebands) idle(m *Machine, cycles int) {
	for c := 1; c <= cycles; c++ {
		m.Master().StepCycle()
		s.smp.ObserveCell("idle-cycles", mc.Progress{Completed: c, Budget: cycles, Done: c == cycles})
	}
}

// TestEveryInstrumentFires runs one small instance of each kind of run the
// commands make — a threshold cell, a memory cell, a cache-replayed
// distillation and a 4-tile d=5 GHZ program — each into a private registry
// with every side-band on. Every instrument those runs register must then
// have recorded something in at least one of them, or be listed in
// quietInstruments: an instrument that never fires measures nothing a user
// can run.
func TestEveryInstrumentFires(t *testing.T) {
	runs := []struct {
		name string
		run  func(t *testing.T, s *sidebands)
	}{
		{"threshold cell", func(t *testing.T, s *sidebands) {
			if _, err := Threshold(s.reg, s.tr, []float64{2e-3}, []int{3}, 64, 1, s.sweep()); err != nil {
				t.Fatal(err)
			}
		}},
		{"memory cell", func(t *testing.T, s *sidebands) {
			if _, _, err := MachineMemory(s.reg, s.tr, 5e-4, 8, 64, 1, s.sweep()); err != nil {
				t.Fatal(err)
			}
		}},
		{"distill run", func(t *testing.T, s *sidebands) {
			m := s.machine(DefaultMachineConfig())
			if _, err := m.RunDistillationCached(5, 0); err != nil {
				t.Fatal(err)
			}
			s.idle(m, 10)
		}},
		{"4-tile GHZ run", func(t *testing.T, s *sidebands) {
			cfg := DefaultMachineConfig()
			cfg.Tiles, cfg.Distance = 4, 5
			m := s.machine(cfg)
			p := compiler.NewProgram(2).Prep0(0).Prep0(1).H(0).CNOT(0, 1).MeasZ(0).MeasZ(1)
			if _, err := m.RunProgram(p, 0); err != nil {
				t.Fatal(err)
			}
			s.idle(m, 20)
		}},
	}
	fired := map[string]bool{}
	for _, r := range runs {
		s := newSidebands(t)
		r.run(t, s)
		if err := s.smp.Stop(); err != nil {
			t.Fatalf("%s: events: %v", r.name, err)
		}
		if s.tr.Len() == 0 || s.smp.Snapshots() == 0 || s.led.Flush() != nil {
			t.Fatalf("%s: a side-band recorded nothing", r.name)
		}
		snap := s.reg.Snapshot()
		for _, c := range snap.Counters {
			fired[c.Name] = fired[c.Name] || c.Value > 0
		}
		for _, g := range snap.Gauges {
			fired[g.Name] = fired[g.Name] || g.Value != 0
		}
		for _, h := range snap.Histograms {
			fired[h.Name] = fired[h.Name] || h.Summary.Count > 0
		}
	}
	for name, ok := range fired {
		_, quiet := quietInstruments[name]
		switch {
		case !ok && !quiet:
			t.Errorf("instrument %s is registered but never fires", name)
		case ok && quiet:
			t.Errorf("instrument %s fires now; drop it from quietInstruments", name)
		}
	}
	for name := range quietInstruments {
		if _, ok := fired[name]; !ok {
			t.Errorf("quietInstruments lists %s, which no run registers", name)
		}
	}
}
