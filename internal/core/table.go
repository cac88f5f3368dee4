package core

import (
	"fmt"
	"strconv"
	"strings"

	"quest/internal/chart"
	"quest/internal/distill"
	"quest/internal/metrics"
	"quest/internal/tracing"
	"quest/internal/workload"
)

// Table is one experiment's result as it is printed: a header and rows of
// cells, an optional bar chart of the same data, and note lines. Text and
// Markdown are its only renderings, so questbench's tables, its -md report
// and EXPERIMENTS.md's generated blocks carry the same cells.
type Table struct {
	Columns []string
	Rows    [][]string
	// Bars are drawn on a log₁₀ scale, the scale of the paper's figures;
	// none draws no chart.
	Bars  []chart.Bar
	Notes []string
}

var chartOptions = chart.Options{Log: true, Unit: "x", Width: 44}

// Text renders the table aligned for a terminal, then the chart after a
// blank line, then the notes, one per line.
func (t Table) Text() string {
	var b strings.Builder
	if len(t.Columns) > 0 {
		b.WriteString(formatTable(t.Columns, t.Rows))
	}
	if len(t.Bars) > 0 {
		b.WriteString("\n" + chart.MustRender(t.Bars, chartOptions))
	}
	for _, n := range t.Notes {
		b.WriteString(n + "\n")
	}
	return b.String()
}

// Markdown renders the table as a Markdown table, the chart in a text
// fence and each note as its own paragraph, blank lines between them.
func (t Table) Markdown() string {
	var blocks []string
	if len(t.Columns) > 0 {
		var b strings.Builder
		row := func(cells []string) { b.WriteString("| " + strings.Join(cells, " | ") + " |\n") }
		row(t.Columns)
		b.WriteString(strings.Repeat("|---", len(t.Columns)) + "|\n")
		for _, r := range t.Rows {
			row(r)
		}
		blocks = append(blocks, b.String())
	}
	if len(t.Bars) > 0 {
		blocks = append(blocks, "```text\n"+chart.MustRender(t.Bars, chartOptions)+"```\n")
	}
	for _, n := range t.Notes {
		blocks = append(blocks, n+"\n")
	}
	return strings.Join(blocks, "\n")
}

// formatTable renders rows of cells as an aligned text table. Widths count
// bytes and %-*s pads runes, so a column holding "µ" is one space wider
// than it needs; questbench's golden stdout holds those bytes.
func formatTable(header []string, rows [][]string) string {
	widths := make([]int, len(header))
	for i, h := range header {
		widths[i] = len(h)
	}
	for _, r := range rows {
		for i, c := range r {
			if len(c) > widths[i] {
				widths[i] = len(c)
			}
		}
	}
	var b strings.Builder
	writeRow := func(cells []string) {
		for i, c := range cells {
			if i > 0 {
				b.WriteString("  ")
			}
			fmt.Fprintf(&b, "%-*s", widths[i], c)
		}
		b.WriteByte('\n')
	}
	writeRow(header)
	for i, w := range widths {
		if i > 0 {
			b.WriteString("  ")
		}
		b.WriteString(strings.Repeat("-", w))
	}
	b.WriteByte('\n')
	for _, r := range rows {
		writeRow(r)
	}
	return b.String()
}

// DefaultTrials is the trial budget of every sweep cell, threshold and
// memory alike, when Run.Trials is 0: enough for memory's p=1e-4 cell to
// see about 200 failures, few enough for a bare questbench to finish in
// well under a second.
const DefaultTrials = 20000

// Run is what an experiment takes from its command line. The two sweeps
// read all of it; the other experiments ignore it.
type Run struct {
	// Trials per sweep cell; 0 runs DefaultTrials.
	Trials int
	// Workers sizes the Monte-Carlo pool; 0 means GOMAXPROCS.
	Workers int
	// Reg and Tracer aggregate the trials' instruments; nil skips either.
	Reg    *metrics.Registry
	Tracer *tracing.Tracer
	// Obs carries the ledger, heatmap, bandwidth and progress hooks.
	Obs SweepObs
}

func (r Run) trials() int {
	if r.Trials > 0 {
		return r.Trials
	}
	return DefaultTrials
}

// Experiment is one table of the evaluation, under the name questbench
// takes on its command line. Table fails only on a failed ledger write or a
// machine run that errs.
type Experiment struct {
	Name, Desc string
	Table      func(Run) (Table, error)
}

// Experiments lists every experiment in the order a bare questbench runs
// them.
var Experiments = []Experiment{
	{"fig2", "Baseline instruction bandwidth vs qubit count (Shor 128-1024 bits)", fig2Table},
	{"fig6", "QECC:regular instruction ratio per workload", fig6Table},
	{"fig10", "Required microcode capacity vs qubits serviced per design", fig10Table},
	{"fig11", "Qubits serviced per MCE at a fixed 4Kb budget", fig11Table},
	{"fig13", "T-factory instruction overhead per workload", fig13Table},
	{"fig14", "Global bandwidth savings with QuEST", fig14Table},
	{"fig15", "Savings sensitivity to qubit error rate", fig15Table},
	{"fig16", "MCE throughput per technology and syndrome design", fig16Table},
	{"table1", "Technology parameters", table1Table},
	{"table2", "QECC microcode design points", table2Table},
	{"machine", "Cycle-level machine demo: measured (not modelled) savings", machineTable},
	{"concat", "Extension (§9): concatenated codes, microcode inner + software outer", concatTable},
	{"dram", "Extension: cryo-DRAM feed analysis of the instruction stream", dramTable},
	{"threshold", "Validation: logical failure rate vs physical rate and distance", thresholdTable},
	{"memory", "Validation: logical memory through the full machine decode path", memoryTable},
	{"syndrome", "Extension: syndrome vs instruction traffic on the global bus", syndromeTable},
}

// ExperimentNamed returns the experiment called name, in any letter case.
func ExperimentNamed(name string) (Experiment, bool) {
	for _, e := range Experiments {
		if e.Name == strings.ToLower(name) {
			return e, true
		}
	}
	return Experiment{}, false
}

func fig2Table(Run) (Table, error) {
	t := Table{Columns: []string{"shor-bits", "logical-qubits", "distance", "phys-qubits", "baseline-BW"}}
	for _, r := range Fig2() {
		t.Rows = append(t.Rows, []string{
			strconv.Itoa(r.Bits), strconv.Itoa(r.LogicalQubits), strconv.Itoa(r.Distance),
			fmt.Sprintf("%.3g", float64(r.PhysQubits)), r.Bandwidth.String(),
		})
	}
	return t, nil
}

func fig6Table(Run) (Table, error) {
	t := Table{Columns: []string{"workload", "qecc:logical", "orders", "logical-share"}}
	for _, r := range Fig6() {
		t.Rows = append(t.Rows, []string{
			r.Workload, fmt.Sprintf("%.3g", r.Ratio), fmt.Sprintf("10^%.1f", r.Orders),
			fmt.Sprintf("%.2e", r.LogicalFrac),
		})
		t.Bars = append(t.Bars, chart.Bar{Label: r.Workload, Value: r.Ratio})
	}
	return t, nil
}

func fig10Table(Run) (Table, error) {
	t := Table{Columns: []string{"qubits", "RAM-bits", "FIFO-bits", "unitcell-bits"}}
	for _, r := range Fig10() {
		t.Rows = append(t.Rows, []string{
			strconv.Itoa(r.Qubits), strconv.Itoa(r.RAMBits), strconv.Itoa(r.FIFOBits),
			strconv.Itoa(r.CellBits),
		})
	}
	return t, nil
}

func fig11Table(Run) (Table, error) {
	t := Table{Columns: []string{"memory config", "RAM", "FIFO", "unit-cell"}}
	for _, r := range Fig11() {
		t.Rows = append(t.Rows, []string{
			r.Config.String(), strconv.Itoa(r.RAM), strconv.Itoa(r.FIFO), strconv.Itoa(r.UnitCell),
		})
	}
	return t, nil
}

func fig13Table(Run) (Table, error) {
	t := Table{Columns: []string{"workload", "distill-rounds", "t-factories", "tfactory:logical", "orders"}}
	for _, r := range Fig13() {
		t.Rows = append(t.Rows, []string{
			r.Workload, strconv.Itoa(r.DistillRounds), strconv.Itoa(r.Factories),
			fmt.Sprintf("%.3g", r.Ratio), fmt.Sprintf("10^%.1f", r.Orders),
		})
	}
	return t, nil
}

func fig14Table(Run) (Table, error) {
	t := Table{Columns: []string{"workload", "baseline", "quest", "quest+cache", "savings", "savings+cache"}}
	for _, r := range Fig14() {
		t.Rows = append(t.Rows, []string{
			r.Workload, r.BaselineBW.String(), r.QuESTBW.String(), r.QuESTCacheBW.String(),
			fmt.Sprintf("10^%.1f", r.OrdersQuEST), fmt.Sprintf("10^%.1f", r.OrdersCache),
		})
		t.Bars = append(t.Bars,
			chart.Bar{Label: r.Workload + " quest", Value: r.SavingsQuEST},
			chart.Bar{Label: r.Workload + " +cache", Value: r.SavingsCache})
	}
	t.Notes = []string{fmt.Sprintf("coefficient of variation across tech/syndrome configs: %.5f%%",
		100*Fig14CoefficientOfVariation())}
	return t, nil
}

func fig15Table(Run) (Table, error) {
	t := Table{Columns: []string{"error-rate", "workload", "distance", "savings", "savings+cache", "distill-ov"}}
	for _, r := range Fig15() {
		t.Rows = append(t.Rows, []string{
			fmt.Sprintf("%.0e", r.ErrorRate), r.Workload, strconv.Itoa(r.Distance),
			fmt.Sprintf("%.3g", r.SavingsQuEST), fmt.Sprintf("%.3g", r.SavingsCache),
			fmt.Sprintf("%.3g", r.DistillOv),
		})
	}
	return t, nil
}

func fig16Table(Run) (Table, error) {
	t := Table{Columns: []string{"technology", "syndrome", "memory config", "qubits/MCE"}}
	for _, r := range Fig16() {
		t.Rows = append(t.Rows, []string{r.Tech, r.Schedule, r.Config.String(), strconv.Itoa(r.Qubits)})
	}
	return t, nil
}

func table1Table(Run) (Table, error) {
	t := Table{Columns: []string{"parameter set", "t_prep", "t_1", "t_meas", "t_CNOT", "T_ecc"}}
	for _, tech := range workload.Techs() {
		t.Rows = append(t.Rows, []string{
			tech.Name,
			fmt.Sprintf("%.0fns", tech.TPrep), fmt.Sprintf("%.0fns", tech.T1),
			fmt.Sprintf("%.0fns", tech.TMeas), fmt.Sprintf("%.0fns", tech.TCNOT),
			fmt.Sprintf("%.0fns", tech.TEcc),
		})
	}
	return t, nil
}

func table2Table(Run) (Table, error) {
	t := Table{Columns: []string{"syndrome", "no. instructions", "optimal µcode config", "no. JJs", "power"}}
	for _, r := range Table2() {
		t.Rows = append(t.Rows, []string{
			r.Schedule, strconv.Itoa(r.Instructions), r.Config.String(),
			strconv.Itoa(r.JJs), fmt.Sprintf("%.1f µW", r.PowerUW),
		})
	}
	return t, nil
}

func machineTable(Run) (Table, error) {
	const replays = 50
	res, err := MachineDemo(replays)
	if err != nil {
		return Table{}, err
	}
	return Table{Notes: []string{
		fmt.Sprintf("distillation body: %d logical instructions, replayed %dx from the MCE cache",
			distill.RoundInstructionCount, replays),
		fmt.Sprintf("cycles: %d   logical retired: %d", res.Cycles, res.LogicalRetired),
		fmt.Sprintf("baseline bus: %d bytes   QuEST bus: %d bytes", res.BaselineBusBytes, res.QuESTBusBytes),
		fmt.Sprintf("measured savings: %.0fx", res.MeasuredSavings),
	}}, nil
}

func concatTable(Run) (Table, error) {
	t := Table{Columns: []string{"outer-levels", "inner-qubits", "logical-error", "outer-instrs/round", "hybrid-savings"}}
	for _, r := range ExtConcat() {
		t.Rows = append(t.Rows, []string{
			strconv.Itoa(r.Levels), strconv.Itoa(r.InnerQubits),
			fmt.Sprintf("%.3g", r.LogicalError), strconv.Itoa(r.OuterInstrs),
			fmt.Sprintf("%.3g", r.Savings),
		})
	}
	return t, nil
}

func dramTable(Run) (Table, error) {
	t := Table{Columns: []string{"workload", "baseline DDR channels needed", "QuEST channel utilization"}}
	for _, r := range ExtDRAM() {
		t.Rows = append(t.Rows, []string{
			r.Workload, strconv.Itoa(r.BaselineChannels), fmt.Sprintf("%.2e", r.QuESTUtilization),
		})
	}
	return t, nil
}

func thresholdTable(run Run) (Table, error) {
	rows, err := Threshold(run.Reg, run.Tracer, []float64{2e-3, 1e-3, 5e-4}, []int{3, 5},
		run.trials(), run.Workers, run.Obs)
	if err != nil {
		return Table{}, err
	}
	t := Table{Columns: []string{"phys-rate", "distance", "logical-fail", "95% CI", "trials"}}
	for _, r := range rows {
		t.Rows = append(t.Rows, []string{
			fmt.Sprintf("%.0e", r.PhysRate), strconv.Itoa(r.Distance),
			fmt.Sprintf("%.4f", r.FailRate),
			fmt.Sprintf("[%.4f, %.4f]", r.WilsonLo, r.WilsonHi), strconv.Itoa(r.Trials),
		})
	}
	return t, nil
}

func memoryTable(run Run) (Table, error) {
	t := Table{Columns: []string{"phys-rate", "rounds", "logical-fail", "95% CI", "trials"}}
	for _, p := range []float64{0, 1e-4, 5e-4} {
		r, err := MachineMemory(run.Reg, run.Tracer, p, 8, run.trials(), run.Workers, run.Obs)
		if err != nil {
			return Table{}, err
		}
		t.Rows = append(t.Rows, []string{
			fmt.Sprintf("%.0e", r.PhysRate), strconv.Itoa(r.Rounds),
			fmt.Sprintf("%.3f", r.FailRate()),
			fmt.Sprintf("[%.3f, %.3f]", r.WilsonLo, r.WilsonHi), strconv.Itoa(r.Trials),
		})
	}
	return t, nil
}

func syndromeTable(Run) (Table, error) {
	t := Table{Columns: []string{"phys-rate", "cycles", "instr-bytes (down)", "syndrome-bytes (up)"}}
	for _, r := range ExtSyndromeTraffic([]float64{0, 1e-4, 1e-3}, 200) {
		t.Rows = append(t.Rows, []string{
			fmt.Sprintf("%.0e", r.PhysRate), strconv.Itoa(r.Cycles),
			strconv.FormatUint(r.InstructionBytes, 10), strconv.FormatUint(r.SyndromeBytes, 10),
		})
	}
	return t, nil
}

// ValidationTable pivots a threshold sweep over two distances into one row
// per rate: each distance's failure rate with its 95% Wilson interval, then
// the second distance against the first. That column reads "lower" or
// "higher" only when the two intervals are disjoint, and otherwise "not
// resolved at N trials". rows come as Threshold returns them for two
// distances: one pair per rate, in the same distance order.
func ValidationTable(rows []ThresholdRow) (Table, error) {
	if len(rows) == 0 || len(rows)%2 != 0 {
		return Table{}, fmt.Errorf("core: validation table needs rows in distance pairs, got %d rows", len(rows))
	}
	da, db := rows[0].Distance, rows[1].Distance
	t := Table{Columns: []string{
		"p_phys", fmt.Sprintf("d=%d fail (95%% CI)", da), fmt.Sprintf("d=%d fail (95%% CI)", db),
		fmt.Sprintf("d=%d against d=%d", db, da),
	}}
	cell := func(r ThresholdRow) string {
		return fmt.Sprintf("%.4f [%.4f, %.4f]", r.FailRate, r.WilsonLo, r.WilsonHi)
	}
	for k := 0; k < len(rows); k += 2 {
		a, b := rows[k], rows[k+1]
		if a.Distance != da || b.Distance != db || a.PhysRate != b.PhysRate {
			return Table{}, fmt.Errorf("core: validation table rows %d and %d are not a d=%d, d=%d pair at one rate", k, k+1, da, db)
		}
		order := fmt.Sprintf("not resolved at %d trials", b.Trials)
		switch {
		case b.WilsonHi < a.WilsonLo:
			order = "lower, intervals disjoint"
		case b.WilsonLo > a.WilsonHi:
			order = "higher, intervals disjoint"
		}
		t.Rows = append(t.Rows, []string{fmt.Sprintf("%.0e", a.PhysRate), cell(a), cell(b), order})
	}
	return t, nil
}
