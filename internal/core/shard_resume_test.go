package core

import (
	"bytes"
	"encoding/json"
	"strings"
	"testing"

	"quest/internal/ledger"
	"quest/internal/metrics"
)

// shardedSweep runs the combined threshold+memory sweep (2 threshold cells
// then 1 memory cell of two and a bit lanes, sharing one shard cursor like
// questbench does) as shard index/count on the batched engines or the
// scalar oracles, returning the ledger bytes and the emitted row counts.
func shardedSweep(t *testing.T, index, count, trials int, batched bool) ([]byte, int) {
	t.Helper()
	var buf bytes.Buffer
	info := ledger.ShardInfo{Index: index, Count: count}
	lw, err := ledger.NewWriter(&buf, "shard-test", map[string]string{"suite": "shard_resume_test"}, info)
	if err != nil {
		t.Fatalf("NewWriter: %v", err)
	}
	shard, err := NewShard(index, count)
	if err != nil {
		t.Fatalf("NewShard: %v", err)
	}
	obs := SweepObs{Ledger: lw, Shard: shard}
	var rows []ThresholdRow
	if batched {
		rows, err = Threshold(nil, nil, []float64{2e-3, 4e-3}, []int{3}, trials, 4, obs)
	} else {
		rows, err = thresholdScalar(nil, nil, []float64{2e-3, 4e-3}, []int{3}, trials, 4, obs)
	}
	if err != nil {
		t.Fatalf("threshold sweep: %v", err)
	}
	emitted := len(rows)
	memory := MachineMemory
	if !batched {
		memory = machineMemoryScalar
	}
	_, ran, err := memory(nil, nil, 2e-3, 4, memoryPinTrials, 4, obs)
	if err != nil {
		t.Fatalf("memory sweep: %v", err)
	}
	if ran {
		emitted++
	}
	if err := lw.Flush(); err != nil {
		t.Fatalf("Flush: %v", err)
	}
	return buf.Bytes(), emitted
}

// TestShardedSweepMergesByteIdentical is the tentpole invariant: N sharded
// processes produce N complete ledgers that merge into bytes identical to
// the 1-process run, for the engine and the scalar oracle, with the shard
// cursor spanning the threshold and memory entry points exactly as
// questbench wires it.
func TestShardedSweepMergesByteIdentical(t *testing.T) {
	for _, tc := range []struct {
		name    string
		batched bool
	}{{"scalar", false}, {"batched", true}} {
		t.Run(tc.name, func(t *testing.T) {
			const trials = 12
			full, fullRows := shardedSweep(t, 0, 1, trials, tc.batched)
			if fullRows != 3 {
				t.Fatalf("unsharded sweep emitted %d cells, want 3", fullRows)
			}
			for _, n := range []int{2, 3} {
				var shards []*ledger.Ledger
				rowSum := 0
				for i := 0; i < n; i++ {
					data, rows := shardedSweep(t, i, n, trials, tc.batched)
					rowSum += rows
					sh, err := ledger.Read(data)
					if err != nil {
						t.Fatalf("Read(%d/%d): %v", i, n, err)
					}
					shards = append(shards, sh)
				}
				if rowSum != fullRows {
					t.Errorf("N=%d: shards emitted %d cells total, want %d", n, rowSum, fullRows)
				}
				merged, err := ledger.Merge(shards)
				if err != nil {
					t.Fatalf("N=%d: Merge: %v", n, err)
				}
				if !bytes.Equal(merged, full) {
					t.Errorf("N=%d: merged ledger differs from the 1-process bytes", n)
				}
			}
		})
	}
}

// thresholdResumeRun runs the 2-cell threshold sweep with a ledger, an
// optional resume checkpoint, and an executed-trial counter.
func thresholdResumeRun(t *testing.T, trials int, ciWidth float64, res *ledger.Resume) ([]ThresholdRow, []byte, uint64) {
	t.Helper()
	var buf bytes.Buffer
	lw, err := ledger.NewWriter(&buf, "resume-test", nil, ledger.ShardInfo{})
	if err != nil {
		t.Fatalf("NewWriter: %v", err)
	}
	reg := metrics.New()
	rows, err := Threshold(reg, nil, []float64{2e-3, 4e-3}, []int{3}, trials, 4,
		SweepObs{Ledger: lw, CIWidth: ciWidth, Resume: res})
	if err != nil {
		t.Fatalf("Threshold: %v", err)
	}
	if err := lw.Flush(); err != nil {
		t.Fatalf("Flush: %v", err)
	}
	return rows, buf.Bytes(), reg.Counter("mc.trials").Value()
}

// TestResumeSkipsCompletedTrials pins both halves of the resume contract:
// the resumed run's rows and ledger bytes equal the uninterrupted run's, and
// recorded trials are not re-executed (completed cells run zero trials, the
// partial cell only its remainder).
func TestResumeSkipsCompletedTrials(t *testing.T) {
	const trials = 30
	wantRows, full, executed := thresholdResumeRun(t, trials, 0, nil)
	if executed != 2*trials {
		t.Fatalf("uninterrupted run executed %d trials, want %d", executed, 2*trials)
	}
	lines := bytes.Split(bytes.TrimSuffix(full, []byte("\n")), []byte("\n"))
	// Cut mid-second-cell: header + cell 0's 31 lines + 10 of cell 1's
	// trials, plus a torn fragment like a real crash leaves.
	cut := append(bytes.Join(lines[:1+trials+1+10], []byte("\n")), '\n')
	cut = append(cut, []byte(`{"record":"trial","cell":"thresh`)...)
	res, err := ledger.NewResume(cut)
	if err != nil {
		t.Fatalf("NewResume: %v", err)
	}
	if !res.Truncated() {
		t.Error("torn final line not flagged")
	}
	rows, resumed, executed := thresholdResumeRun(t, trials, 0, res)
	if executed != trials-10 {
		t.Errorf("resumed run executed %d trials, want %d (cell 0 replayed, cell 1 resumed at trial 10)", executed, trials-10)
	}
	if len(rows) != len(wantRows) {
		t.Fatalf("resumed run emitted %d rows, want %d", len(rows), len(wantRows))
	}
	for i := range rows {
		if rows[i] != wantRows[i] {
			t.Errorf("row %d differs after resume: %+v vs %+v", i, rows[i], wantRows[i])
		}
	}
	if !bytes.Equal(resumed, full) {
		t.Errorf("resumed ledger differs from the uninterrupted bytes")
	}
}

// TestMemoryResumeSkipsCompletedTrials is TestResumeSkipsCompletedTrials
// for the memory sweep on its lane engine: the checkpoint ends 70 trials
// into the second cell, so the resumed cell's first lane starts past a
// 64-trial boundary, and the resumed run must execute exactly the
// unrecorded trials and converge to the uninterrupted bytes.
func TestMemoryResumeSkipsCompletedTrials(t *testing.T) {
	const trials, recorded = memoryPinTrials, 70
	run := func(res *ledger.Resume) ([]MemoryRow, []byte, uint64) {
		t.Helper()
		var buf bytes.Buffer
		lw, err := ledger.NewWriter(&buf, "resume-test", nil, ledger.ShardInfo{})
		if err != nil {
			t.Fatalf("NewWriter: %v", err)
		}
		reg := metrics.New()
		var rows []MemoryRow
		for _, p := range []float64{2e-3, 5e-3} {
			row, _, err := MachineMemory(reg, nil, p, 4, trials, 3, SweepObs{Ledger: lw, Resume: res})
			if err != nil {
				t.Fatalf("MachineMemory: %v", err)
			}
			rows = append(rows, row)
		}
		if err := lw.Flush(); err != nil {
			t.Fatalf("Flush: %v", err)
		}
		return rows, buf.Bytes(), reg.Counter("mc.trials").Value()
	}
	wantRows, full, executed := run(nil)
	if executed != 2*trials {
		t.Fatalf("uninterrupted run executed %d trials, want %d", executed, 2*trials)
	}
	lines := bytes.Split(bytes.TrimSuffix(full, []byte("\n")), []byte("\n"))
	cut := append(bytes.Join(lines[:1+trials+1+recorded], []byte("\n")), '\n')
	cut = append(cut, []byte(`{"record":"trial","cell":"mem`)...)
	res, err := ledger.NewResume(cut)
	if err != nil {
		t.Fatalf("NewResume: %v", err)
	}
	rows, resumed, executed := run(res)
	if executed != trials-recorded {
		t.Errorf("resumed run executed %d trials, want %d (cell 0 replayed, cell 1 resumed at trial %d)", executed, trials-recorded, recorded)
	}
	for i := range wantRows {
		if rows[i] != wantRows[i] {
			t.Errorf("row %d differs after resume: %+v vs %+v", i, rows[i], wantRows[i])
		}
	}
	if !bytes.Equal(resumed, full) {
		t.Errorf("resumed ledger differs from the uninterrupted bytes")
	}
}

// TestResumeConvergesUnderCIStop pins the interaction between resume and
// adaptive stopping: prior outcomes feed the Wilson-width frontier before
// any worker starts, so the stop decision — and the bytes — converge to the
// uninterrupted run's.
func TestResumeConvergesUnderCIStop(t *testing.T) {
	const budget, width = 120, 0.15
	_, full, _ := thresholdResumeRun(t, budget, width, nil)
	lines := bytes.Split(bytes.TrimSuffix(full, []byte("\n")), []byte("\n"))
	for _, cutAt := range []int{3, len(lines) / 2, len(lines) - 1} {
		res, err := ledger.NewResume(append(bytes.Join(lines[:cutAt], []byte("\n")), '\n'))
		if err != nil {
			t.Fatalf("NewResume(cut at %d): %v", cutAt, err)
		}
		_, resumed, _ := thresholdResumeRun(t, budget, width, res)
		if !bytes.Equal(resumed, full) {
			t.Errorf("cut at line %d: resumed ledger differs from the uninterrupted bytes", cutAt)
		}
	}
}

// TestResumeRefusesForeignCheckpoint pins the overlap/mismatch detection: a
// checkpoint whose recorded budget or seeds disagree with the sweep is
// refused with an error, never silently spliced in.
func TestResumeRefusesForeignCheckpoint(t *testing.T) {
	const trials = 10
	_, full, _ := thresholdResumeRun(t, trials, 0, nil)

	t.Run("budget mismatch", func(t *testing.T) {
		res, err := ledger.NewResume(full)
		if err != nil {
			t.Fatal(err)
		}
		_, err = Threshold(nil, nil, []float64{2e-3, 4e-3}, []int{3}, trials*2, 4,
			SweepObs{Resume: res})
		if err == nil || !strings.Contains(err.Error(), "budget") {
			t.Errorf("budget mismatch not refused: %v", err)
		}
	})
	t.Run("seed mismatch", func(t *testing.T) {
		// Tamper with a recorded trial seed and leave the cell partial.
		lines := bytes.Split(bytes.TrimSuffix(full, []byte("\n")), []byte("\n"))
		var tr ledger.Trial
		if err := json.Unmarshal(lines[1], &tr); err != nil {
			t.Fatal(err)
		}
		tr.Seed = ledger.SeedString(0xdeadbeef)
		tampered, err := json.Marshal(tr)
		if err != nil {
			t.Fatal(err)
		}
		cut := append(bytes.Join([][]byte{lines[0], tampered}, []byte("\n")), '\n')
		res, err := ledger.NewResume(cut)
		if err != nil {
			t.Fatal(err)
		}
		_, err = Threshold(nil, nil, []float64{2e-3, 4e-3}, []int{3}, trials, 4,
			SweepObs{Resume: res})
		if err == nil || !strings.Contains(err.Error(), "does not match") {
			t.Errorf("seed mismatch not refused: %v", err)
		}
	})
}
