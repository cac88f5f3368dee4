package core

import (
	"bytes"
	"strings"
	"testing"

	"quest/internal/bwprofile"
	"quest/internal/heatmap"
	"quest/internal/ledger"
	"quest/internal/mc"
	"quest/internal/metrics"
	"quest/internal/noise"
)

// The byte-identity grid: noiseless, sub-threshold and above-threshold
// rates, against round counts that exercise the zero-round
// schedule (LMeasZ queued behind LPrep0), a prep-then-measure cycle pair, a
// partly filled decode window and the questbench depth.
var (
	memoryGridRates  = []float64{0, 1e-4, 5e-4, 2e-3, 1e-2}
	memoryGridRounds = []int{0, 1, 4, 8}
)

// memorySweepOut is everything one memory sweep emits.
type memorySweepOut struct {
	rows     []MemoryRow
	ledger   []byte
	heat, bw []byte
	counters map[string]uint64
}

// memorySweep runs the memory grid through the batched engine or the scalar
// oracle with every side-band attached — ledger, heat, quest-bw/1, a
// private metrics registry.
func memorySweep(t *testing.T, batched bool, trials, workers int) memorySweepOut {
	t.Helper()
	var buf bytes.Buffer
	lw, err := ledger.NewWriter(&buf, "memory-batch-test", map[string]string{"suite": "memory_test"})
	if err != nil {
		t.Fatalf("NewWriter: %v", err)
	}
	heat := heatmap.NewSet()
	bw := bwprofile.New(4)
	reg := metrics.New()
	obs := SweepObs{Ledger: lw, Heat: heat, BW: bw}
	run := MachineMemory
	if !batched {
		run = machineMemoryScalar
	}
	var out memorySweepOut
	for _, p := range memoryGridRates {
		for _, rounds := range memoryGridRounds {
			row, err := run(reg, nil, p, rounds, trials, workers, obs)
			if err != nil {
				t.Fatalf("p=%g rounds=%d: %v", p, rounds, err)
			}
			out.rows = append(out.rows, row)
		}
	}
	if err := lw.Flush(); err != nil {
		t.Fatalf("Flush: %v", err)
	}
	out.ledger = buf.Bytes()
	var hj, bj bytes.Buffer
	if err := heat.WriteJSON(&hj); err != nil {
		t.Fatalf("heat WriteJSON: %v", err)
	}
	if err := bw.WriteJSONL(&bj, "memory-batch-test", nil); err != nil {
		t.Fatalf("bw WriteJSONL: %v", err)
	}
	out.heat, out.bw = hj.Bytes(), bj.Bytes()
	out.counters = map[string]uint64{}
	for _, c := range reg.Snapshot().Counters {
		if c.Value != 0 {
			out.counters[c.Name] = c.Value
		}
	}
	return out
}

// TestMachineMemoryBatchedMatchesScalar pins the batched memory engine's
// whole contract against the pooled-machine oracle: over the memory grid,
// at 130 trials a cell (two full lanes and a short one) and 1 or 8 workers,
// the rows, ledger bytes, heat JSON and quest-bw/1 bytes are identical, and
// the two register the same non-zero counters at the same values —
// mce.*, master.*, decoder.* and mc.* alike. The grid holds trials that drew
// no fault, whose decode the engine skips, and trials that drew one.
func TestMachineMemoryBatchedMatchesScalar(t *testing.T) {
	const trials = 130
	var clean, faulty int
	for _, p := range memoryGridRates {
		for _, rounds := range memoryGridRounds {
			c, f := faultCounts(&memoryProgramFor(rounds).stream, p, memoryInjSeed,
				mc.Seed(ExperimentSeed, mc.F64(p), uint64(rounds), 0x3e3), trials) // the cell seed MachineMemory derives
			clean, faulty = clean+c, faulty+f
		}
	}
	if clean == 0 || faulty == 0 {
		t.Errorf("the grid holds %d fault-free and %d faulty trials; it must hold both", clean, faulty)
	}
	want := memorySweep(t, false, trials, 1)
	if len(want.rows) != len(memoryGridRates)*len(memoryGridRounds) {
		t.Fatalf("oracle emitted %d rows", len(want.rows))
	}
	for _, name := range []string{"mce.cycles", "master.dispatched", "decoder.match.calls", "master.bus.syndrome.bytes"} {
		if want.counters[name] == 0 {
			t.Errorf("oracle counter %s = 0: the grid does not exercise it", name)
		}
	}
	for _, workers := range []int{1, 8} {
		got := memorySweep(t, true, trials, workers)
		for i := range want.rows {
			if i >= len(got.rows) || got.rows[i] != want.rows[i] {
				t.Errorf("workers=%d: row %d differs:\nbatched: %+v\nscalar:  %+v", workers, i, got.rows, want.rows)
				break
			}
		}
		if !bytes.Equal(got.ledger, want.ledger) {
			t.Errorf("workers=%d: ledger bytes differ from the scalar oracle", workers)
		}
		if !bytes.Equal(got.heat, want.heat) {
			t.Errorf("workers=%d: heat JSON differs from the scalar oracle", workers)
		}
		if !bytes.Equal(got.bw, want.bw) {
			t.Errorf("workers=%d: quest-bw/1 bytes differ from the scalar oracle", workers)
		}
		for name, v := range want.counters {
			if got.counters[name] != v {
				t.Errorf("workers=%d: counter %s = %d, scalar oracle %d", workers, name, got.counters[name], v)
			}
		}
		for name, v := range got.counters {
			if _, ok := want.counters[name]; !ok {
				t.Errorf("workers=%d: counter %s = %d, zero on the scalar oracle", workers, name, v)
			}
		}
	}
	if _, err := ledger.Validate(want.ledger); err != nil {
		t.Fatalf("questcheck rejects the oracle ledger: %v", err)
	}
}

// TestMachineMemoryPublishesNoMCEGauge pins that a memory cell registers
// only the MCE instruments its tally adds. A memory trial steps no MCE, so
// it never raises mce.buffer.peak, yet the registry merge copies every
// gauge: a tally that resolved the engine's whole instrument set in every
// worker shard would publish that gauge at 0.
func TestMachineMemoryPublishesNoMCEGauge(t *testing.T) {
	reg := metrics.New()
	if _, err := MachineMemory(reg, nil, 1e-3, 2, 130, 2, SweepObs{}); err != nil {
		t.Fatal(err)
	}
	snap := reg.Snapshot()
	for _, g := range snap.Gauges {
		if strings.HasPrefix(g.Name, "mce.") {
			t.Errorf("memory cell published gauge %s = %v", g.Name, g.Value)
		}
	}
	if got := reg.Counter("mce.cycles").Value(); got == 0 {
		t.Error("mce.cycles = 0: the cell recorded no tally")
	}
}

// TestGlobalDecodesMeanOneThing pins that the machine counts global decodes
// one way at every window width: over 200 noisy memory trials of a
// one-patch machine (ten cycles each), at a one-round window (DecodeWindow
// 0) and at windows of 3 and 4 rounds, which leave one and two rounds to the
// drain's flush, Master.Stats' global decodes equal master.global.decodes
// and decoder.match.calls in every trial.
func TestGlobalDecodesMeanOneThing(t *testing.T) {
	for _, window := range []int{0, 3, 4} {
		cfg := DefaultMachineConfig()
		cfg.PatchesPerTile = 1
		cfg.DecodeWindow = window
		nm := noise.Uniform(1e-2)
		cfg.Noise = &nm
		m := NewMachine(cfg)
		var total uint64
		for seed := int64(1); seed <= 200; seed++ {
			reg := metrics.New()
			m.Reset(seed, reg, nil, nil, nil)
			if _, err := memoryTrial(m, 8); err != nil {
				t.Fatalf("window %d seed %d: %v", window, seed, err)
			}
			_, decodes := m.Master().Stats()
			metric, calls := reg.Counter("master.global.decodes").Value(), reg.Counter("decoder.match.calls").Value()
			if decodes != metric || decodes != calls {
				t.Fatalf("window %d seed %d: Stats counts %d global decodes, master.global.decodes %d, decoder.match.calls %d",
					window, seed, decodes, metric, calls)
			}
			total += decodes
		}
		if total == 0 {
			t.Errorf("window %d: no trial decoded globally", window)
		}
	}
}
