package main

import (
	"bytes"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// The fixtures in testdata are the four CLIs' real outputs at small sizes:
//
//	questbench -trials 20 -workers 1 threshold                     > threshold.txt
//	questbench -trials 20 -workers 1 -metrics json -ledger memory.ledger.jsonl memory \
//	                                                   > memory.txt 2> memory.stderr
//	questsim -program distill -replays 2 -cycles 5 -noise 1e-3 -seed 1 > distill.txt
//	questsim -program ghz -tiles 4 -d 5 -noise 1e-3 -cycles 5 -seed 1  > ghz.txt

func fixture(t *testing.T, name string) []byte {
	t.Helper()
	b, err := os.ReadFile(filepath.Join("testdata", name))
	if err != nil {
		t.Fatal(err)
	}
	return b
}

func TestParseSweepTables(t *testing.T) {
	rows, err := parseSweep(fixture(t, "threshold.txt"))
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 6 || rows[0] != (sweepRow{Rate: "2e-03", Param: 3, Fail: 0, Trials: 20}) || rows[5].Param != 5 {
		t.Fatalf("threshold rows = %+v", rows)
	}
	if n, err := sweepWork(6)(fixture(t, "threshold.txt")); err != nil || n != 120 {
		t.Errorf("threshold work = %g, %v; want 120 trials", n, err)
	}
	if _, err := sweepWork(3)(fixture(t, "threshold.txt")); err == nil {
		t.Error("a 6-cell table passed as a 3-cell sweep")
	}
	if n, err := sweepWork(3)(fixture(t, "memory.txt")); err != nil || n != 60 {
		t.Errorf("memory work = %g, %v; want 60 trials", n, err)
	}
	if _, err := parseSweep([]byte("== threshold ==\nno table\n")); err == nil {
		t.Error("output without a table parsed")
	}
	torn := bytes.Replace(fixture(t, "memory.txt"), []byte("]  20"), []byte("]  2x"), 1)
	if _, err := parseSweep(torn); err == nil {
		t.Error("a row with an unparsable trial count parsed")
	}
}

func TestParseSimReports(t *testing.T) {
	r, err := parseSim(fixture(t, "distill.txt"))
	if err != nil {
		t.Fatal(err)
	}
	if r.Cycles != 174 || r.Idle != 5 || r.uops() != 89100 || r.Escalated != 26 || r.GlobalDecodes != 19 {
		t.Errorf("distill report = %+v", r)
	}
	g, err := parseSim(fixture(t, "ghz.txt"))
	if err != nil {
		t.Fatal(err)
	}
	if g.Cycles != 5 || len(g.TileUops) != 4 || g.uops() != 4*16929 || g.Escalated != 56 || g.GlobalDecodes != 22 {
		t.Errorf("ghz report = %+v", g)
	}
	if n, err := simWork(fixture(t, "ghz.txt")); err != nil || n != 4*16929 {
		t.Errorf("ghz work = %g, %v", n, err)
	}
	cut := fixture(t, "ghz.txt")
	cut = cut[:bytes.Index(cut, []byte("  defects escalated"))]
	if _, err := parseSim(cut); err == nil {
		t.Error("a truncated report parsed")
	}
}

func TestSeedIndependentDropsNoiseLines(t *testing.T) {
	got := string(seedIndependent(fixture(t, "ghz.txt")))
	for _, gone := range []string{"defects escalated", "syndrome bytes", "logical measurement"} {
		if strings.Contains(got, gone) {
			t.Errorf("seed-independent part still has %q", gone)
		}
	}
	for _, kept := range []string{"program cycles:        5", "tile 3: 16929 µops", "QuEST bus bytes:       12"} {
		if !strings.Contains(got, kept) {
			t.Errorf("seed-independent part lost %q", kept)
		}
	}
}

// The registry dump follows questbench's ledger status line on stderr. Its
// busy times nest: decoder.match inside decoder.window.flush, that and
// mce.cycle inside each trial.
func TestRegistryNesting(t *testing.T) {
	snap, err := parseRegistry(fixture(t, "memory.stderr"))
	if err != nil {
		t.Fatal(err)
	}
	r := indexSnapshot(snap)
	if r.count("mc.trials") != 60 || r.count("mce.cycles") != 600 {
		t.Fatalf("trials %g, cycles %g", r.count("mc.trials"), r.count("mce.cycles"))
	}
	trial, mce := r.busy("mc.trial.ns"), r.busy("mce.cycle.ns")
	flush, match := r.busy("decoder.window.flush.ns"), r.busy("decoder.match.ns")
	if !(match <= flush && flush+mce <= trial) {
		t.Fatalf("timers do not nest: match %g, flush %g, mce %g, trial %g", match, flush, mce, trial)
	}
	if got := outsideTimers(r, 99); !near(got, trial-mce-flush) {
		t.Errorf("time outside timers = %g, want trial-mce-flush = %g", got, trial-mce-flush)
	}
	// Without a trial histogram (questsim) the root is the given wall time.
	delete(r.hists, "mc.trial.ns")
	if got := outsideTimers(r, 2); !near(got, 2-mce-flush) {
		t.Errorf("time outside timers of a 2 s run = %g", got)
	}
	if _, err := parseRegistry([]byte("ledger: done\n")); err == nil {
		t.Error("stderr without a dump parsed")
	}
}

func TestLedgerFails(t *testing.T) {
	data := fixture(t, "memory.ledger.jsonl")
	fails, dg, err := ledgerFails(data)
	if err != nil {
		t.Fatal(err)
	}
	if len(fails) != 3 || len(fails["memory p=0.0005 rounds=8"]) != 20 {
		t.Fatalf("cells = %d, trials = %d", len(fails), len(fails["memory p=0.0005 rounds=8"]))
	}
	// The digest skips the header, which carries host and revision.
	other := bytes.Replace(data, []byte(`"host":"`), []byte(`"host":"elsewhere-`), 1)
	if _, dg2, err := ledgerFails(other); err != nil || dg2 != dg {
		t.Errorf("header provenance changed the digest: %v", err)
	}
	flipped := bytes.Replace(data, []byte(`"trial":3,"seed":"0x`), []byte(`"trial":3,"seed":"0y`), 1)
	if _, dg3, _ := ledgerFails(flipped); dg3 == dg {
		t.Error("a changed record kept the digest")
	}
	swapped := bytes.Replace(data, []byte(`"trial":1,`), []byte(`"trial":2,`), 1)
	if _, _, err := ledgerFails(swapped); err == nil {
		t.Error("out-of-order trials accepted")
	}
	if _, _, err := ledgerFails([]byte(`{"record":"header","schema":"quest-other/1"}` + "\n")); err == nil {
		t.Error("foreign schema accepted")
	}
}
