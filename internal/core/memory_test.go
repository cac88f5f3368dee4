package core

import (
	"bytes"
	"strings"
	"testing"

	"quest/internal/bwprofile"
	"quest/internal/heatmap"
	"quest/internal/ledger"
	"quest/internal/metrics"
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
// private metrics registry — optionally as one shard of a split or resumed
// from a checkpoint.
func memorySweep(t *testing.T, batched bool, trials, workers int, shard ledger.ShardInfo, res *ledger.Resume) memorySweepOut {
	t.Helper()
	var buf bytes.Buffer
	lw, err := ledger.NewWriter(&buf, "memory-batch-test", map[string]string{"suite": "memory_test"}, shard)
	if err != nil {
		t.Fatalf("NewWriter: %v", err)
	}
	cursor, err := NewShard(shard.Index, shard.Count)
	if err != nil {
		t.Fatalf("NewShard: %v", err)
	}
	heat := heatmap.NewSet()
	bw := bwprofile.New(4)
	reg := metrics.New()
	obs := SweepObs{Ledger: lw, Heat: heat, BW: bw, Shard: cursor, Resume: res}
	run := MachineMemory
	if !batched {
		run = machineMemoryScalar
	}
	var out memorySweepOut
	for _, p := range memoryGridRates {
		for _, rounds := range memoryGridRounds {
			row, ran, err := run(reg, nil, p, rounds, trials, workers, obs)
			if err != nil {
				t.Fatalf("p=%g rounds=%d: %v", p, rounds, err)
			}
			if ran {
				out.rows = append(out.rows, row)
			}
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
// mce.*, master.*, decoder.* and mc.* alike. The same ledger bytes hold when
// the engine runs the grid as a 2-way shard split and merges, and when it
// resumes from the oracle's ledger cut mid-cell past a lane boundary.
func TestMachineMemoryBatchedMatchesScalar(t *testing.T) {
	const trials = 130
	want := memorySweep(t, false, trials, 1, ledger.ShardInfo{}, nil)
	if len(want.rows) != len(memoryGridRates)*len(memoryGridRounds) {
		t.Fatalf("oracle emitted %d rows", len(want.rows))
	}
	for _, name := range []string{"mce.cycles", "master.dispatched", "decoder.match.calls", "master.bus.syndrome.bytes"} {
		if want.counters[name] == 0 {
			t.Errorf("oracle counter %s = 0: the grid does not exercise it", name)
		}
	}
	for _, workers := range []int{1, 8} {
		got := memorySweep(t, true, trials, workers, ledger.ShardInfo{}, nil)
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

	t.Run("shard-split", func(t *testing.T) {
		var shards []*ledger.Ledger
		for i := 0; i < 2; i++ {
			out := memorySweep(t, true, trials, 3, ledger.ShardInfo{Index: i, Count: 2}, nil)
			sh, err := ledger.Read(out.ledger)
			if err != nil {
				t.Fatalf("Read(%d/2): %v", i, err)
			}
			shards = append(shards, sh)
		}
		merged, err := ledger.Merge(shards)
		if err != nil {
			t.Fatalf("Merge: %v", err)
		}
		if !bytes.Equal(merged, want.ledger) {
			t.Error("merged shard ledgers differ from the scalar oracle's bytes")
		}
	})
	t.Run("resume", func(t *testing.T) {
		// Keep the header, the first three cells (130 trials + summary
		// each) and 70 trials of the fourth, so the resumed cell's first
		// lane starts past a 64-trial boundary; then a torn fragment.
		lines := bytes.Split(bytes.TrimSuffix(want.ledger, []byte("\n")), []byte("\n"))
		cut := append(bytes.Join(lines[:1+3*(trials+1)+70], []byte("\n")), '\n')
		cut = append(cut, []byte(`{"record":"trial","cell":"mem`)...)
		res, err := ledger.NewResume(cut)
		if err != nil {
			t.Fatalf("NewResume: %v", err)
		}
		got := memorySweep(t, true, trials, 8, ledger.ShardInfo{}, res)
		if !bytes.Equal(got.ledger, want.ledger) {
			t.Error("resumed ledger differs from the scalar oracle's bytes")
		}
		for i := range want.rows {
			if i >= len(got.rows) || got.rows[i] != want.rows[i] {
				t.Errorf("resumed row %d differs:\nresumed: %+v\nscalar:  %+v", i, got.rows, want.rows)
				break
			}
		}
	})
}

// TestMachineMemoryPublishesNoMCEGauge pins that a memory cell registers
// only the MCE instruments its tally adds. The merged registry used to
// carry mce.buffer.occupancy, a gauge no memory trial sets: the registry
// merge copies every gauge, and the tally resolved the engine's whole
// instrument set in every worker shard.
func TestMachineMemoryPublishesNoMCEGauge(t *testing.T) {
	reg := metrics.New()
	if _, _, err := MachineMemory(reg, nil, 1e-3, 2, 130, 2, SweepObs{}); err != nil {
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
