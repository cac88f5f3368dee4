package ledger

import (
	"errors"
	"fmt"
	"strings"
	"testing"
)

// TestReadersAgree runs hostile ledgers through the three readers a ledger
// meets: Validate (tools/questcheck), Read (tools/ledgermerge, per shard)
// and NewResume (questbench -resume). All three share one parse, so they
// refuse the same inputs for the same reason. The one difference is at the
// end of the file, where a crash leaves an open last cell or a torn final
// line: a resume takes those up, and the other two refuse them.
func TestReadersAgree(t *testing.T) {
	header := strings.SplitN(string(writeSample(t)), "\n", 2)[0]
	trial := func(cell string, i int, fail bool) string {
		return fmt.Sprintf(`{"record":"trial","cell":%q,"trial":%d,"seed":"0x%x","fail":%v}`, cell, i, i+7, fail)
	}
	summary := func(cell string, trials, failures int) string {
		rate := 0.0
		if trials > 0 {
			rate = float64(failures) / float64(trials)
		}
		return fmt.Sprintf(`{"record":"cell","cell":%q,"seed":"0x1","budget":%d,"trials":%d,"failures":%d,"rate":%v,"wilson_lo":0,"wilson_hi":1}`,
			cell, trials, trials, failures, rate)
	}
	cases := []struct {
		name  string
		lines []string
		want  string
		// resumable marks what a crash leaves, which only NewResume accepts.
		resumable bool
	}{
		{"interleaved cell blocks", []string{header, trial("a", 0, false), trial("b", 0, false), trial("a", 1, false),
			summary("a", 2, 0), summary("b", 1, 0)}, `trial for cell "b" interleaved into cell "a"'s block`, false},
		{"failures above trials", []string{header, trial("a", 0, true),
			`{"record":"cell","cell":"a","seed":"0x1","budget":1,"trials":1,"failures":2,"rate":2,"wilson_lo":0,"wilson_hi":2}`},
			"failures 2 outside [0, 1]", false},
		{"bad seed", []string{header, `{"record":"trial","cell":"a","trial":0,"seed":"12"}`, summary("a", 1, 0)},
			"not a hex literal", false},
		{"fail bits differ from failures", []string{header, trial("a", 0, false), trial("a", 1, false), summary("a", 2, 1)},
			"0 trial record(s) fail but the summary counts 1 failures", false},
		{"index gap", []string{header, trial("a", 0, false), trial("a", 2, false), summary("a", 2, 0)},
			"trial index 2, want 1", false},
		{"negative index", []string{header, trial("a", -1, false), summary("a", 1, 0)},
			"trial index -1, want 0", false},
		{"fewer records than trials", []string{header, trial("a", 0, false), summary("a", 2, 0)},
			"has 1 trial record(s) but summarizes 2", false},
		{"summary with no records", []string{header, summary("a", 2, 0)},
			"has 0 trial record(s) but summarizes 2", false},
		{"empty experiment", []string{`{"record":"header","schema":"quest-ledger/1","experiment":""}`},
			"missing experiment", false},
		{"blank line", []string{header, trial("a", 0, false), "", summary("a", 1, 0)},
			"line 3: empty line", false},
		{"dangling trials", []string{header, trial("a", 0, false), summary("a", 1, 0), trial("b", 0, true), trial("b", 1, false)},
			`cell "b" has 2 trial record(s) but no cell summary`, true},
		{"torn tail", []string{header, trial("a", 0, false), summary("a", 1, 0), `{"record":"trial","cell":"b","tri`},
			"line 4: corrupt ledger", true},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			data := []byte(strings.Join(tc.lines, "\n") + "\n")
			_, verr := Validate(data)
			_, rerr := Read(data)
			for _, r := range []struct {
				reader string
				err    error
			}{{"Validate", verr}, {"Read", rerr}} {
				if r.err == nil || !strings.Contains(r.err.Error(), tc.want) {
					t.Errorf("%s = %v, want an error containing %q", r.reader, r.err, tc.want)
				}
			}
			if tc.name == "torn tail" && !errors.Is(rerr, ErrCorrupt) {
				t.Errorf("Read = %v, want ErrCorrupt so ledgermerge exits 2", rerr)
			}
			res, err := NewResume(data)
			switch {
			case tc.resumable && err != nil:
				t.Errorf("NewResume = %v, want the crash leftovers accepted", err)
			case tc.resumable:
				if _, partial := res.Counts(); partial != 1 && !res.Truncated() {
					t.Error("NewResume reports neither an open cell nor a torn line")
				}
			case err == nil || !strings.Contains(err.Error(), tc.want):
				t.Errorf("NewResume = %v, want an error containing %q", err, tc.want)
			}
		})
	}
}
