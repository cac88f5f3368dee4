package ledger

import (
	"bytes"
	"strings"
	"testing"
)

// writeSample builds a small well-formed ledger: header, trials for two
// cells, two cell summaries.
func writeSample(t *testing.T) []byte {
	t.Helper()
	var buf bytes.Buffer
	w, err := NewWriter(&buf, "threshold", map[string]string{"trials": "6", "distances": "3"}, ShardInfo{})
	if err != nil {
		t.Fatal(err)
	}
	for _, cell := range []string{"p=1e-3,d=3", "p=5e-4,d=3"} {
		for trial := 0; trial < 6; trial++ {
			if err := w.WriteTrial(Trial{
				Cell: cell, Trial: trial, Seed: SeedString(uint64(trial) + 7),
				Fail: trial%3 == 0,
			}); err != nil {
				t.Fatal(err)
			}
		}
		if err := w.WriteCell(Cell{
			Cell:   cell,
			Params: map[string]float64{"p": 1e-3, "d": 3},
			Seed:   SeedString(0xabc), Budget: 6, Trials: 6, Failures: 2,
			Rate: 2.0 / 6.0, WilsonLo: 0.09, WilsonHi: 0.70,
		}); err != nil {
			t.Fatal(err)
		}
	}
	if err := w.Flush(); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

func TestWriterRoundTrip(t *testing.T) {
	data := writeSample(t)
	rep, err := Validate(data)
	if err != nil {
		t.Fatalf("Validate: %v\n%s", err, data)
	}
	if rep.Experiment != "threshold" {
		t.Errorf("experiment = %q", rep.Experiment)
	}
	if rep.Cells != 2 || rep.Trials != 12 {
		t.Errorf("cells=%d trials=%d, want 2, 12", rep.Cells, rep.Trials)
	}
	first := strings.SplitN(string(data), "\n", 2)[0]
	for _, want := range []string{`"record":"header"`, `"schema":"quest-ledger/1"`, `"gomaxprocs"`, `"git_sha"`, `"host"`} {
		if !strings.Contains(first, want) {
			t.Errorf("header line missing %s: %s", want, first)
		}
	}
}

// TestWriterDeterministicBytes pins that two identical runs produce
// byte-identical ledgers — params maps included (encoding/json sorts keys).
func TestWriterDeterministicBytes(t *testing.T) {
	a, b := writeSample(t), writeSample(t)
	if !bytes.Equal(a, b) {
		t.Error("identical runs produced different ledger bytes")
	}
}

func TestValidateRejections(t *testing.T) {
	header := strings.SplitN(string(writeSample(t)), "\n", 2)[0]
	cases := []struct {
		name, data, wantErr string
	}{
		{"empty", "", "empty"},
		{"no header", `{"record":"cell","cell":"x","seed":"0x1","budget":1,"trials":1}`, "first record"},
		{"bad schema", `{"record":"header","schema":"quest-ledger/99","experiment":"x"}`, "schema"},
		{"duplicate header", header + "\n" + header, "duplicate header"},
		{"unknown kind", header + "\n" + `{"record":"mystery"}`, "unknown record kind"},
		{"orphan trial", header + "\n" + `{"record":"trial","cell":"x","trial":0,"seed":"0x1"}`, "no cell summary"},
		{"bad seed", header + "\n" + `{"record":"trial","cell":"x","trial":0,"seed":"12"}` + "\n" +
			`{"record":"cell","cell":"x","seed":"0x1","budget":1,"trials":1}`, "hex literal"},
		{"trial after summary", header + "\n" +
			`{"record":"trial","cell":"x","trial":0,"seed":"0x1"}` + "\n" +
			`{"record":"cell","cell":"x","seed":"0x1","budget":1,"trials":1}` + "\n" +
			`{"record":"trial","cell":"x","trial":0,"seed":"0x1"}`, "after its summary"},
		{"failures exceed trials", header + "\n" +
			`{"record":"cell","cell":"x","seed":"0x1","budget":9,"trials":4,"failures":5,"rate":1.25,"wilson_hi":1.3}`, "failures"},
		{"trials exceed budget", header + "\n" +
			`{"record":"cell","cell":"x","seed":"0x1","budget":3,"trials":4,"failures":0,"rate":0}`, "exceed budget"},
		{"rate mismatch", header + "\n" +
			`{"record":"cell","cell":"x","seed":"0x1","budget":4,"trials":4,"failures":2,"rate":0.3,"wilson_lo":0.1,"wilson_hi":0.9}`, "rate"},
		{"rate outside wilson", header + "\n" +
			`{"record":"cell","cell":"x","seed":"0x1","budget":4,"trials":4,"failures":2,"rate":0.5,"wilson_lo":0.6,"wilson_hi":0.9}`, "Wilson"},
		{"duplicate cell", header + "\n" +
			`{"record":"trial","cell":"x","trial":0,"seed":"0x1"}` + "\n" +
			`{"record":"cell","cell":"x","seed":"0x1","budget":1,"trials":1,"failures":0,"rate":0}` + "\n" +
			`{"record":"cell","cell":"x","seed":"0x1","budget":1,"trials":1,"failures":0,"rate":0}`, "duplicate cell"},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			_, err := Validate([]byte(c.data))
			if err == nil {
				t.Fatalf("accepted invalid ledger")
			}
			if !strings.Contains(err.Error(), c.wantErr) {
				t.Errorf("error %q does not mention %q", err, c.wantErr)
			}
		})
	}
}

func TestValidateCountsEarlyStops(t *testing.T) {
	var buf bytes.Buffer
	w, err := NewWriter(&buf, "sweep", nil, ShardInfo{})
	if err != nil {
		t.Fatal(err)
	}
	trials := func(cell string, n, fails int) {
		for i := 0; i < n; i++ {
			if err := w.WriteTrial(Trial{Cell: cell, Trial: i, Seed: SeedString(uint64(i)), Fail: i < fails}); err != nil {
				t.Fatal(err)
			}
		}
	}
	trials("easy", 40, 0)
	if err := w.WriteCell(Cell{
		Cell: "easy", Seed: SeedString(1), Budget: 100, Trials: 40, Failures: 0,
		Rate: 0, WilsonLo: 0, WilsonHi: 0.1, CIStop: 0.1, StoppedEarly: true,
	}); err != nil {
		t.Fatal(err)
	}
	trials("hard", 100, 50)
	if err := w.WriteCell(Cell{
		Cell: "hard", Seed: SeedString(2), Budget: 100, Trials: 100, Failures: 50,
		Rate: 0.5, WilsonLo: 0.4, WilsonHi: 0.6, CIStop: 0.1,
	}); err != nil {
		t.Fatal(err)
	}
	if err := w.Flush(); err != nil {
		t.Fatal(err)
	}
	rep, err := Validate(buf.Bytes())
	if err != nil {
		t.Fatal(err)
	}
	if rep.StoppedEarly != 1 {
		t.Errorf("StoppedEarly = %d, want 1", rep.StoppedEarly)
	}
	if w.Cells() != 2 || w.Trials() != 140 {
		t.Errorf("writer counts cells=%d trials=%d, want 2, 140", w.Cells(), w.Trials())
	}
}

// TestValidateDanglingCellsErrorDeterministic pins that the verdict on
// several open cells is deterministic text. An old validator reported
// whichever cell map iteration surfaced first, so the same broken ledger
// produced different error text run to run; the reader now stops at the
// first interleaved trial record.
func TestValidateDanglingCellsErrorDeterministic(t *testing.T) {
	header := strings.SplitN(string(writeSample(t)), "\n", 2)[0]
	data := header
	for _, cell := range []string{"zeta", "alpha", "mid", "beta", "omega"} {
		data += "\n" + `{"record":"trial","cell":"` + cell + `","trial":0,"seed":"0x1"}`
	}
	want := `line 3: trial for cell "alpha" interleaved into cell "zeta"'s block`
	for i := 0; i < 20; i++ {
		_, err := Validate([]byte(data))
		if err == nil {
			t.Fatal("accepted ledger with dangling trials")
		}
		if err.Error() != want {
			t.Fatalf("run %d: error %q, want %q", i, err, want)
		}
	}
}
