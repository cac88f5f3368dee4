package core

import (
	"math"
	"strings"
	"testing"

	"quest/internal/compiler"
	"quest/internal/microcode"
	"quest/internal/noise"
)

func TestMachineRunsSimpleProgram(t *testing.T) {
	m := NewMachine(DefaultMachineConfig())
	p := compiler.NewProgram(2)
	p.Prep0(0).X(0).MeasZ(0).Prep0(1).MeasZ(1)
	rep, err := m.RunProgram(p, 0)
	if err != nil {
		t.Fatal(err)
	}
	if !rep.Drained {
		t.Fatal("program did not drain")
	}
	if rep.LogicalRetired != 5 {
		t.Errorf("retired %d, want 5", rep.LogicalRetired)
	}
	bits := map[int]int{}
	for _, r := range rep.Results {
		bits[r.Patch] = r.Bit
	}
	if bits[0] != 1 || bits[1] != 0 {
		t.Errorf("measured %v, want patch0=1 patch1=0", bits)
	}
	if rep.BaselineBusBytes <= rep.QuESTBusBytes {
		t.Error("baseline traffic not above QuEST traffic")
	}
	if rep.Savings() < 100 {
		t.Errorf("measured savings %.0f, want ≥100 even on a toy tile", rep.Savings())
	}
}

func TestMachineMultiTile(t *testing.T) {
	cfg := DefaultMachineConfig()
	cfg.Tiles = 2
	m := NewMachine(cfg)
	p := compiler.NewProgram(4) // qubits 0,1 on tile 0; 2,3 on tile 1
	p.Prep0(0).Prep0(2).X(2).MeasZ(0).MeasZ(2)
	rep, err := m.RunProgram(p, 0)
	if err != nil {
		t.Fatal(err)
	}
	bits := map[int]int{}
	for _, r := range rep.Results {
		bits[r.Patch] = r.Bit
	}
	// Patch indices are tile-local; both tiles report patch 0.
	if len(rep.Results) != 2 {
		t.Fatalf("results = %+v", rep.Results)
	}
	// Cross-tile CNOT is rejected.
	bad := compiler.NewProgram(4)
	bad.CNOT(0, 2)
	if _, err := m.RunProgram(bad, 0); err == nil {
		t.Error("cross-tile CNOT accepted")
	}
	// Capacity overflow is rejected.
	big := compiler.NewProgram(10)
	big.H(9)
	if _, err := m.RunProgram(big, 0); err == nil {
		t.Error("over-capacity program accepted")
	}
}

func TestMachineCNOTAndNoise(t *testing.T) {
	cfg := DefaultMachineConfig()
	nm := noise.Uniform(1e-4)
	cfg.Noise = &nm
	m := NewMachine(cfg)
	p := compiler.NewProgram(2)
	p.Prep0(0).Prep0(1).CNOT(0, 1).MeasZ(0).MeasZ(1)
	rep, err := m.RunProgram(p, 0)
	if err != nil {
		t.Fatal(err)
	}
	if !rep.Drained || rep.LogicalRetired != 5 {
		t.Fatalf("drain=%v retired=%d", rep.Drained, rep.LogicalRetired)
	}
	if len(rep.Results) != 2 {
		t.Errorf("results = %+v", rep.Results)
	}
}

func TestMachineDemoMeasuredSavings(t *testing.T) {
	res, err := MachineDemo(20)
	if err != nil {
		t.Fatal(err)
	}
	if res.LogicalRetired == 0 || res.Cycles == 0 {
		t.Fatalf("demo did nothing: %+v", res)
	}
	// The cache demo replays ~155-instruction bodies from a one-time load:
	// measured savings on even a toy tile should clear 10³.
	if res.MeasuredSavings < 1e3 {
		t.Errorf("measured savings %.0f, want ≥1000", res.MeasuredSavings)
	}
	if _, err := MachineDemo(0); err == nil {
		t.Error("zero replays accepted")
	}
}

func TestFig2Shape(t *testing.T) {
	rows := Fig2()
	if len(rows) != 4 {
		t.Fatalf("rows = %d", len(rows))
	}
	for i := 1; i < len(rows); i++ {
		if rows[i].PhysQubits <= rows[i-1].PhysQubits {
			t.Error("physical qubits not increasing")
		}
		if rows[i].Bandwidth <= rows[i-1].Bandwidth {
			t.Error("bandwidth not increasing")
		}
	}
	last := rows[len(rows)-1]
	if last.Bits != 1024 || float64(last.Bandwidth) < 1e13 {
		t.Errorf("Shor-1024 bandwidth %v below the 100 TB/s regime", last.Bandwidth)
	}
}

func TestFig6Shape(t *testing.T) {
	rows := Fig6()
	if len(rows) != 7 {
		t.Fatalf("rows = %d", len(rows))
	}
	for _, r := range rows {
		if r.Orders < 4 || r.Orders > 10 {
			t.Errorf("%s: overhead 10^%.1f outside band", r.Workload, r.Orders)
		}
		if r.QECCFrac < 0.9999 {
			t.Errorf("%s: QECC fraction %v", r.Workload, r.QECCFrac)
		}
	}
}

func TestFig10Shape(t *testing.T) {
	rows := Fig10()
	for i, r := range rows {
		if r.RAMBits <= r.FIFOBits {
			t.Errorf("row %d: RAM not above FIFO", i)
		}
		if i > 0 {
			if rows[i].CellBits != rows[0].CellBits {
				t.Error("unit cell capacity not constant")
			}
			if rows[i].RAMBits <= rows[i-1].RAMBits || rows[i].FIFOBits <= rows[i-1].FIFOBits {
				t.Error("capacities not increasing")
			}
		}
	}
}

func TestFig11Shape(t *testing.T) {
	rows := Fig11()
	if len(rows) != 4 {
		t.Fatalf("rows = %d", len(rows))
	}
	for i, r := range rows {
		if r.UnitCell <= r.FIFO || r.FIFO <= r.RAM {
			t.Errorf("%v: ordering broken RAM=%d FIFO=%d UC=%d", r.Config, r.RAM, r.FIFO, r.UnitCell)
		}
		if i > 0 && r.UnitCell <= rows[i-1].UnitCell {
			t.Error("unit cell not scaling with channels")
		}
		if i > 0 && r.RAM != rows[0].RAM {
			t.Error("RAM should be flat across channels")
		}
	}
}

func TestFig13Shape(t *testing.T) {
	for _, r := range Fig13() {
		if r.Orders < 1 || r.Orders > 5 {
			t.Errorf("%s: T-factory overhead 10^%.1f outside band", r.Workload, r.Orders)
		}
		if r.Factories < 1 {
			t.Errorf("%s: no factories", r.Workload)
		}
	}
}

func TestFig14Shape(t *testing.T) {
	rows := Fig14()
	for _, r := range rows {
		if r.OrdersQuEST < 4.6 {
			t.Errorf("%s: QuEST savings 10^%.1f", r.Workload, r.OrdersQuEST)
		}
		if r.OrdersCache <= r.OrdersQuEST {
			t.Errorf("%s: cache did not add savings", r.Workload)
		}
		if float64(r.BaselineBW) <= float64(r.QuESTBW) {
			t.Errorf("%s: bandwidth ordering broken", r.Workload)
		}
	}
	cv := Fig14CoefficientOfVariation()
	if cv > 0.02 {
		t.Errorf("savings coefficient of variation %v — configs should barely matter", cv)
	}
}

func TestFig15Shape(t *testing.T) {
	rows := Fig15()
	if len(rows) != 21 {
		t.Fatalf("rows = %d", len(rows))
	}
	// For each workload: savings at 1e-3 must exceed savings at 1e-5, and
	// distillation overhead must stay within a factor ~20 across rates.
	byWl := map[string]map[float64]Fig15Row{}
	for _, r := range rows {
		if byWl[r.Workload] == nil {
			byWl[r.Workload] = map[float64]Fig15Row{}
		}
		byWl[r.Workload][r.ErrorRate] = r
	}
	for wl, m := range byWl {
		if m[1e-3].SavingsQuEST <= m[1e-5].SavingsQuEST {
			t.Errorf("%s: savings not decreasing with better qubits", wl)
		}
		if m[1e-3].Distance <= m[1e-5].Distance {
			t.Errorf("%s: distance not shrinking with better qubits", wl)
		}
		spread := m[1e-3].DistillOv / m[1e-5].DistillOv
		if spread > 20 || spread < 1.0/20 {
			t.Errorf("%s: distillation overhead moved %vx across rates, want ~flat", wl, spread)
		}
	}
}

func TestFig16Shape(t *testing.T) {
	rows := Fig16()
	if len(rows) != 12 {
		t.Fatalf("rows = %d", len(rows))
	}
	byKey := map[string]int{}
	for _, r := range rows {
		byKey[r.Tech+"/"+r.Schedule] = r.Qubits
		if r.Qubits <= 0 {
			t.Errorf("%s/%s: no qubits serviced", r.Tech, r.Schedule)
		}
	}
	// Slower technology (longer T_ecc) services more qubits; the deeper
	// Shor schedule services fewer than Steane at the same tech.
	if byKey["Experimental_S/Steane"] <= byKey["Projected_D/Steane"] {
		t.Error("tech ordering broken")
	}
	if byKey["Projected_D/Shor"] >= byKey["Projected_D/Steane"]*2 {
		t.Error("Shor implausibly fast")
	}
}

func TestTable2Shape(t *testing.T) {
	rows := Table2()
	want := map[string]struct {
		instrs, channels, jjs int
		power                 float64
	}{
		"Steane": {148, 4, 170048, 2.1},
		"Shor":   {300, 2, 168264, 1.1},
		"SC-13":  {147, 4, 170048, 2.1},
	}
	for _, r := range rows {
		w, ok := want[r.Schedule]
		if !ok {
			continue // SC-17 diverges from the paper; see EXPERIMENTS.md
		}
		if r.Instructions != w.instrs || r.Config.Channels != w.channels ||
			r.JJs != w.jjs || math.Abs(r.PowerUW-w.power) > 1e-9 {
			t.Errorf("%s: got (%d instrs, %d ch, %d JJs, %.1f µW), want %+v",
				r.Schedule, r.Instructions, r.Config.Channels, r.JJs, r.PowerUW, w)
		}
	}
	if len(rows) != 4 {
		t.Errorf("rows = %d", len(rows))
	}
}

func TestFormatTable(t *testing.T) {
	out := FormatTable([]string{"a", "long-header"}, [][]string{{"xx", "y"}, {"1", "2"}})
	lines := strings.Split(strings.TrimRight(out, "\n"), "\n")
	if len(lines) != 4 {
		t.Fatalf("lines = %d", len(lines))
	}
	if !strings.HasPrefix(lines[1], "--") {
		t.Error("no separator line")
	}
	if len(lines[0]) != len(lines[2]) && !strings.Contains(lines[0], "long-header") {
		t.Error("misaligned table")
	}
}

func TestNewMachinePanicsOnBadShape(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("no panic")
		}
	}()
	NewMachine(MachineConfig{Tiles: 0})
}

func TestRunReportSavingsZeroTraffic(t *testing.T) {
	if (RunReport{BaselineBusBytes: 10}).Savings() != 0 {
		t.Error("zero QuEST traffic should report zero savings, not infinity")
	}
}

func TestMachineDesignsAgree(t *testing.T) {
	// The same program on RAM vs unit-cell microcode machines produces the
	// same logical results — the global stream-equivalence property at
	// machine scale.
	run := func(d microcode.Design) []int {
		cfg := DefaultMachineConfig()
		cfg.Design = d
		m := NewMachine(cfg)
		p := compiler.NewProgram(2)
		p.Prep0(0).X(0).X(1 - 1).MeasZ(0)
		rep, err := m.RunProgram(p, 0)
		if err != nil {
			t.Fatal(err)
		}
		var bits []int
		for _, r := range rep.Results {
			bits = append(bits, r.Bit)
		}
		return bits
	}
	a := run(microcode.DesignRAM)
	b := run(microcode.DesignUnitCell)
	if len(a) != 1 || len(b) != 1 || a[0] != b[0] {
		t.Errorf("designs disagree: %v vs %v", a, b)
	}
}

func TestMachineWithNoCAndWindow(t *testing.T) {
	cfg := DefaultMachineConfig()
	cfg.Tiles = 4
	cfg.UseNoC = true
	cfg.DecodeWindow = 3
	nm := noise.Uniform(5e-4)
	cfg.Noise = &nm
	m := NewMachine(cfg)
	p := compiler.NewProgram(8)
	for q := 0; q < 8; q++ {
		p.Prep0(q)
	}
	for q := 0; q < 8; q++ {
		p.MeasZ(q)
	}
	rep, err := m.RunProgram(p, 0)
	if err != nil {
		t.Fatal(err)
	}
	if !rep.Drained || rep.LogicalRetired != 16 {
		t.Fatalf("drained=%v retired=%d", rep.Drained, rep.LogicalRetired)
	}
	if len(rep.Results) != 8 {
		t.Errorf("results = %d, want 8", len(rep.Results))
	}
}

func TestThresholdExperiment(t *testing.T) {
	rows, _ := Threshold(nil, nil, []float64{1e-3}, []int{3, 5}, 120, 0, SweepObs{})
	if len(rows) != 2 {
		t.Fatalf("rows = %d", len(rows))
	}
	d3, d5 := rows[0], rows[1]
	if d3.Distance != 3 || d5.Distance != 5 {
		t.Fatal("row order wrong")
	}
	if d5.FailRate > d3.FailRate {
		t.Errorf("d=5 fail %.4f above d=3 fail %.4f below threshold", d5.FailRate, d3.FailRate)
	}
	if d3.FailRate > 0.15 {
		t.Errorf("d=3 fail rate %.4f implausible", d3.FailRate)
	}
}

func TestMachineMemoryExperiment(t *testing.T) {
	// Noiseless: zero failures, ever.
	clean, _, err := MachineMemory(nil, nil, 0, 6, 10, 0, SweepObs{})
	if err != nil {
		t.Fatal(err)
	}
	if clean.Failures != 0 {
		t.Fatalf("noiseless memory failed %d/10 trials", clean.Failures)
	}
	// Low noise through the full machine decode path: failures stay rare.
	noisy, _, err := MachineMemory(nil, nil, 2e-4, 6, 50, 0, SweepObs{})
	if err != nil {
		t.Fatal(err)
	}
	if noisy.FailRate() > 0.2 {
		t.Errorf("machine memory fail rate %.2f at p=2e-4 — decode path broken", noisy.FailRate())
	}
}

func TestSyndromeTrafficScalesWithNoise(t *testing.T) {
	rows := ExtSyndromeTraffic([]float64{0, 1e-3, 5e-3}, 150)
	if len(rows) != 3 {
		t.Fatal("row count")
	}
	// Idle machine: zero instruction traffic at every rate.
	for _, r := range rows {
		if r.InstructionBytes != 0 {
			t.Errorf("rate %v: instruction traffic %d on an idle machine", r.PhysRate, r.InstructionBytes)
		}
	}
	if rows[0].SyndromeBytes != 0 {
		t.Errorf("noiseless syndrome traffic = %d", rows[0].SyndromeBytes)
	}
	if !(rows[1].SyndromeBytes < rows[2].SyndromeBytes) {
		t.Errorf("syndrome traffic not increasing with noise: %d vs %d",
			rows[1].SyndromeBytes, rows[2].SyndromeBytes)
	}
}

func TestMarkdownReport(t *testing.T) {
	md := MarkdownReport(0, 0)
	for _, frag := range []string{
		"## Figure 2", "## Figure 6", "## Figure 10", "## Figure 11",
		"## Figure 13", "## Figure 14", "## Figure 15", "## Figure 16",
		"## Table 1", "## Table 2", "## Extensions", "measured savings",
		"| SHOR-1024 |", "4 Channel = 1Kb x 4", "2420ns",
	} {
		if !strings.Contains(md, frag) {
			t.Errorf("report missing %q", frag)
		}
	}
	if strings.Contains(md, "Validation — logical failure") {
		t.Error("statistical section present at statTrials=0")
	}
	withStats := MarkdownReport(20, 0)
	if !strings.Contains(withStats, "Validation — logical failure") {
		t.Error("statistical section missing at statTrials=20")
	}
}
