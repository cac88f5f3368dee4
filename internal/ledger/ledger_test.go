package ledger

import (
	"bytes"
	"fmt"
	"strings"
	"testing"
)

// writeSample builds a small well-formed ledger: header, trials for two
// cells, two cell summaries.
func writeSample(t *testing.T) []byte {
	t.Helper()
	var buf bytes.Buffer
	w, err := NewWriter(&buf, "threshold", map[string]string{"trials": "6", "distances": "3"})
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

// TestValidateAcceptsEarlyStoppedLedger pins that ledgers from sweeps that
// stopped cells early still validate: a cell summary may report fewer
// trials than its budget, and the ci_stop and stopped_early fields those
// sweeps wrote are ignored. The fixture is raw lines as such a run wrote
// them.
func TestValidateAcceptsEarlyStoppedLedger(t *testing.T) {
	lines := []string{`{"record":"header","schema":"quest-ledger/1","experiment":"questbench","go_version":"go1.24.0","goos":"linux","goarch":"amd64","gomaxprocs":2,"host":"vm","git_sha":"unknown","config":{"args":"threshold","ci-stop":"0.1","trials":"100"}}`}
	trials := func(cell string, n, fails int) {
		for i := 0; i < n; i++ {
			lines = append(lines, fmt.Sprintf(`{"record":"trial","cell":%q,"trial":%d,"seed":"0x%016x","fail":%v}`, cell, i, i+7, i < fails))
		}
	}
	trials("easy", 40, 0)
	lines = append(lines, `{"record":"cell","cell":"easy","seed":"0x0000000000000001","budget":100,"trials":40,"failures":0,"rate":0,"wilson_lo":0,"wilson_hi":0.0876,"ci_stop":0.1,"stopped_early":true}`)
	trials("hard", 100, 50)
	lines = append(lines, `{"record":"cell","cell":"hard","seed":"0x0000000000000002","budget":100,"trials":100,"failures":50,"rate":0.5,"wilson_lo":0.4038,"wilson_hi":0.5962,"ci_stop":0.1}`)
	rep, err := Validate([]byte(strings.Join(lines, "\n") + "\n"))
	if err != nil {
		t.Fatal(err)
	}
	if rep.Cells != 2 || rep.Trials != 140 {
		t.Errorf("cells=%d trials=%d, want 2, 140", rep.Cells, rep.Trials)
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
