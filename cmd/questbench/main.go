// Command questbench regenerates every table and figure of the paper's
// evaluation section as text tables. Run with no arguments for everything,
// or name experiments: fig2 fig6 fig10 fig11 fig13 fig14 fig15 fig16 table1
// table2 machine.
//
// The statistical paths (threshold, memory, and the -md report's validation
// section) accept -trials and -workers. Trials fan out across a worker pool
// with per-trial seeds mixed from a fixed experiment seed, so the printed
// rates are bit-identical for every -workers value — crank workers for
// wall-clock, crank trials for confidence.
//
// Observability (shared with questsim via internal/obsflags): -metrics,
// -cpuprofile FILE (a CPU profile of the whole run, read with go tool
// pprof), -trace, -trace-buf, plus the experiment-ledger bundle — -ledger
// FILE streams a JSONL run ledger (validate with tools/questcheck),
// -progress renders live per-cell Wilson intervals on stderr, and -heatmap
// FILE writes spatial defect/matching heatmaps as JSON (ASCII renders go to
// stderr). All of it is worker-count independent. Every cell runs its full
// -trials budget.
//
// Bandwidth profiling: -bw FILE records per-bus traffic in fixed windows of
// the machine cycle clock and writes a quest-bw/1 profile at exit
// (-bw-window N sets the window width; validate and compare runs with
// tools/bwreport). Like the ledger, the profile is worker-count independent
// and a pure side-band of the sweep.
//
// The -md report runs its sweeps without that bundle, so -md refuses
// -ledger, -heatmap, -bw and -progress; it covers every
// experiment, so it refuses experiment names too. Exit status: 0 on
// success; 1 when an experiment fails or an artifact cannot be written; 2
// on a bad flag value or an unknown experiment, before anything runs.
package main

import (
	"flag"
	"fmt"
	"os"
	"strconv"
	"strings"

	"quest/internal/chart"
	"quest/internal/core"
	"quest/internal/obsflags"
	"quest/internal/workload"
)

var (
	flagMD      = flag.Bool("md", false, "emit the full evaluation as a Markdown report")
	flagTrials  = flag.Int("trials", 0, "Monte-Carlo trials per statistical cell (0 = per-experiment default)")
	flagWorkers = flag.Int("workers", 0, "Monte-Carlo worker goroutines (0 = GOMAXPROCS)")
	// obs wires the shared observability flags (-metrics, -cpuprofile, -trace,
	// -trace-buf, -ledger, -progress, -heatmap, -bw, -bw-window)
	// identically to cmd/questsim.
	obs = obsflags.Register(flag.CommandLine)
	// sweep carries the observation bundle into the statistical experiment
	// drivers; assembled in main after obs.Start.
	sweep core.SweepObs
)

// trialsOr returns the -trials override, or the path's default.
func trialsOr(def int) int {
	if *flagTrials > 0 {
		return *flagTrials
	}
	return def
}

var experiments = []struct {
	name string
	desc string
	run  func()
}{
	{"fig2", "Baseline instruction bandwidth vs qubit count (Shor 128-1024 bits)", fig2},
	{"fig6", "QECC:regular instruction ratio per workload", fig6},
	{"fig10", "Required microcode capacity vs qubits serviced per design", fig10},
	{"fig11", "Qubits serviced per MCE at a fixed 4Kb budget", fig11},
	{"fig13", "T-factory instruction overhead per workload", fig13},
	{"fig14", "Global bandwidth savings with QuEST", fig14},
	{"fig15", "Savings sensitivity to qubit error rate", fig15},
	{"fig16", "MCE throughput per technology and syndrome design", fig16},
	{"table1", "Technology parameters", table1},
	{"table2", "QECC microcode design points", table2},
	{"machine", "Cycle-level machine demo: measured (not modelled) savings", machine},
	{"concat", "Extension (§9): concatenated codes, microcode inner + software outer", concatExt},
	{"dram", "Extension: cryo-DRAM feed analysis of the instruction stream", dramExt},
	{"threshold", "Validation: logical failure rate vs physical rate and distance", threshold},
	{"memory", "Validation: logical memory through the full machine decode path", memory},
	{"syndrome", "Extension: syndrome vs instruction traffic on the global bus", syndrome},
}

func main() {
	flag.Parse()
	given := map[string]bool{}
	flag.Visit(func(f *flag.Flag) { given[f.Name] = true })
	args := flag.Args()
	if err := checkFlags(*flagTrials, *flagWorkers, *flagMD, given, args); err != nil {
		fmt.Fprintln(os.Stderr, "questbench:", err)
		os.Exit(2)
	}
	selected, ok := selectExperiments(args)
	if !ok {
		os.Exit(2)
	}
	if err := obs.Start(); err != nil {
		fmt.Fprintln(os.Stderr, "questbench:", err)
		os.Exit(2)
	}
	// Deliberately no -workers here: the ledger is byte-identical for any
	// worker count, and recording the pool size would break that.
	lw, err := obs.OpenLedger("questbench", map[string]string{
		"args":   strings.Join(args, " "),
		"trials": strconv.Itoa(*flagTrials),
	})
	if err != nil {
		// A ledger that cannot be created is an artifact write failure,
		// the runtime class of the exit contract, as in questsim.
		fmt.Fprintln(os.Stderr, "questbench:", err)
		obs.Exit(1)
	}
	// Same provenance for the bandwidth profile: the artifact must identify
	// the run it measured, and -workers stays out so the waveform bytes keep
	// their worker-count independence.
	if err := obs.OpenBW("questbench", map[string]string{
		"args":   strings.Join(args, " "),
		"trials": strconv.Itoa(*flagTrials),
	}); err != nil {
		fmt.Fprintln(os.Stderr, err)
		obs.Exit(2)
	}
	sweep = core.SweepObs{
		Ledger:   lw,
		Heat:     obs.HeatSet(),
		BW:       obs.BW(),
		Progress: obs.SweepProgress(),
	}
	if *flagMD {
		// Full evaluation as a self-contained Markdown report.
		fmt.Print(core.MarkdownReport(trialsOr(150), *flagWorkers))
	}
	for _, i := range selected {
		e := experiments[i]
		runOne(e.name, e.desc, e.run)
	}
	obs.Exit(0)
}

// mdIgnoredFlags are the sweep-artifact flags a -md run cannot honour: the
// report runs its sweeps without the observation bundle they feed, so it
// would leave a header-only ledger and an empty heatmap or profile.
var mdIgnoredFlags = []string{"ledger", "heatmap", "bw", "progress"}

// checkFlags rejects negative -trials and -workers, which would otherwise
// run the defaults while the ledger header records the negative value, and,
// with -md, any of mdIgnoredFlags that was given and any experiment name,
// which the report would ignore; main reports the error on one stderr line
// and exits 2, the usage class of the 0/1/2 exit contract.
func checkFlags(trials, workers int, md bool, given map[string]bool, names []string) error {
	switch {
	case trials < 0:
		return fmt.Errorf("-trials %d: need a non-negative trial count (0 = per-experiment default)", trials)
	case workers < 0:
		return fmt.Errorf("-workers %d: need a non-negative worker count (0 = GOMAXPROCS)", workers)
	}
	if md {
		for _, name := range mdIgnoredFlags {
			if given[name] {
				return fmt.Errorf("-%s: the -md report writes no sweep artifacts; name the experiments instead (e.g. threshold memory)", name)
			}
		}
		if len(names) > 0 {
			return fmt.Errorf("-md: the report covers every experiment and takes no names (got %s); drop -md to run only those", strings.Join(names, " "))
		}
	}
	return nil
}

// selectExperiments resolves the experiment names on the command line, in
// order, to indices into experiments: every experiment when none is named,
// none under -md (checkFlags has refused names there). On an unknown name
// it prints the available list to stderr and reports false, before
// anything runs.
func selectExperiments(args []string) ([]int, bool) {
	if *flagMD {
		return nil, true
	}
	var sel []int
	if len(args) == 0 {
		for i := range experiments {
			sel = append(sel, i)
		}
		return sel, true
	}
	byName := map[string]int{}
	for i, e := range experiments {
		byName[e.name] = i
	}
	for _, a := range args {
		i, ok := byName[strings.ToLower(a)]
		if !ok {
			fmt.Fprintf(os.Stderr, "unknown experiment %q; available:\n", a)
			for _, e := range experiments {
				fmt.Fprintf(os.Stderr, "  %-8s %s\n", e.name, e.desc)
			}
			return nil, false
		}
		sel = append(sel, i)
	}
	return sel, true
}

func runOne(name, desc string, f func()) {
	fmt.Printf("== %s: %s ==\n", name, desc)
	f()
	fmt.Println()
}

func fig2() {
	var rows [][]string
	for _, r := range core.Fig2() {
		rows = append(rows, []string{
			strconv.Itoa(r.Bits), strconv.Itoa(r.LogicalQubits), strconv.Itoa(r.Distance),
			fmt.Sprintf("%.3g", float64(r.PhysQubits)), r.Bandwidth.String(),
		})
	}
	fmt.Print(core.FormatTable(
		[]string{"shor-bits", "logical-qubits", "distance", "phys-qubits", "baseline-BW"}, rows))
}

func fig6() {
	var rows [][]string
	var bars []chart.Bar
	for _, r := range core.Fig6() {
		rows = append(rows, []string{
			r.Workload, fmt.Sprintf("%.3g", r.Ratio), fmt.Sprintf("10^%.1f", r.Orders),
			fmt.Sprintf("%.5f%%", 100*r.QECCFrac),
		})
		bars = append(bars, chart.Bar{Label: r.Workload, Value: r.Ratio})
	}
	fmt.Print(core.FormatTable([]string{"workload", "qecc:logical", "orders", "qecc-share"}, rows))
	fmt.Println()
	fmt.Print(chart.MustRender(bars, chart.Options{Log: true, Unit: "x", Width: 44}))
}

func fig10() {
	var rows [][]string
	for _, r := range core.Fig10() {
		rows = append(rows, []string{
			strconv.Itoa(r.Qubits), strconv.Itoa(r.RAMBits), strconv.Itoa(r.FIFOBits),
			strconv.Itoa(r.CellBits),
		})
	}
	fmt.Print(core.FormatTable([]string{"qubits", "RAM-bits", "FIFO-bits", "unitcell-bits"}, rows))
}

func fig11() {
	var rows [][]string
	for _, r := range core.Fig11() {
		rows = append(rows, []string{
			r.Config.String(), strconv.Itoa(r.RAM), strconv.Itoa(r.FIFO), strconv.Itoa(r.UnitCell),
		})
	}
	fmt.Print(core.FormatTable([]string{"memory config", "RAM", "FIFO", "unit-cell"}, rows))
}

func fig13() {
	var rows [][]string
	for _, r := range core.Fig13() {
		rows = append(rows, []string{
			r.Workload, strconv.Itoa(r.DistillRounds), strconv.Itoa(r.Factories),
			fmt.Sprintf("%.3g", r.Ratio), fmt.Sprintf("10^%.1f", r.Orders),
		})
	}
	fmt.Print(core.FormatTable([]string{"workload", "distill-rounds", "t-factories", "tfactory:logical", "orders"}, rows))
}

func fig14() {
	var rows [][]string
	for _, r := range core.Fig14() {
		rows = append(rows, []string{
			r.Workload, r.BaselineBW.String(), r.QuESTBW.String(), r.QuESTCacheBW.String(),
			fmt.Sprintf("10^%.1f", r.OrdersQuEST), fmt.Sprintf("10^%.1f", r.OrdersCache),
		})
	}
	fmt.Print(core.FormatTable(
		[]string{"workload", "baseline", "quest", "quest+cache", "savings", "savings+cache"}, rows))
	fmt.Println()
	var bars []chart.Bar
	for _, r := range core.Fig14() {
		bars = append(bars, chart.Bar{Label: r.Workload + " quest", Value: r.SavingsQuEST})
		bars = append(bars, chart.Bar{Label: r.Workload + " +cache", Value: r.SavingsCache})
	}
	fmt.Print(chart.MustRender(bars, chart.Options{Log: true, Unit: "x", Width: 44}))
	fmt.Printf("coefficient of variation across tech/syndrome configs: %.5f%%\n",
		100*core.Fig14CoefficientOfVariation())
}

func fig15() {
	var rows [][]string
	for _, r := range core.Fig15() {
		rows = append(rows, []string{
			fmt.Sprintf("%.0e", r.ErrorRate), r.Workload, strconv.Itoa(r.Distance),
			fmt.Sprintf("%.3g", r.SavingsQuEST), fmt.Sprintf("%.3g", r.SavingsCache),
			fmt.Sprintf("%.3g", r.DistillOv),
		})
	}
	fmt.Print(core.FormatTable(
		[]string{"error-rate", "workload", "distance", "savings", "savings+cache", "distill-ov"}, rows))
}

func fig16() {
	var rows [][]string
	for _, r := range core.Fig16() {
		rows = append(rows, []string{r.Tech, r.Schedule, r.Config.String(), strconv.Itoa(r.Qubits)})
	}
	fmt.Print(core.FormatTable([]string{"technology", "syndrome", "memory config", "qubits/MCE"}, rows))
}

func table1() {
	var rows [][]string
	for _, t := range workload.Techs() {
		rows = append(rows, []string{
			t.Name,
			fmt.Sprintf("%.0fns", t.TPrep), fmt.Sprintf("%.0fns", t.T1),
			fmt.Sprintf("%.0fns", t.TMeas), fmt.Sprintf("%.0fns", t.TCNOT),
			fmt.Sprintf("%.0fns", t.TEcc),
		})
	}
	fmt.Print(core.FormatTable([]string{"parameter set", "t_prep", "t_1", "t_meas", "t_CNOT", "T_ecc"}, rows))
}

func table2() {
	var rows [][]string
	for _, r := range core.Table2() {
		rows = append(rows, []string{
			r.Schedule, strconv.Itoa(r.Instructions), r.Config.String(),
			strconv.Itoa(r.JJs), fmt.Sprintf("%.1f µW", r.PowerUW),
		})
	}
	fmt.Print(core.FormatTable([]string{"syndrome", "no. instructions", "optimal µcode config", "no. JJs", "power"}, rows))
}

func concatExt() {
	var rows [][]string
	for _, r := range core.ExtConcat() {
		rows = append(rows, []string{
			strconv.Itoa(r.Levels), strconv.Itoa(r.InnerQubits),
			fmt.Sprintf("%.3g", r.LogicalError), strconv.Itoa(r.OuterInstrs),
			fmt.Sprintf("%.3g", r.Savings),
		})
	}
	fmt.Print(core.FormatTable(
		[]string{"outer-levels", "inner-qubits", "logical-error", "outer-instrs/round", "hybrid-savings"}, rows))
}

func dramExt() {
	var rows [][]string
	for _, r := range core.ExtDRAM() {
		rows = append(rows, []string{
			r.Workload, strconv.Itoa(r.BaselineChannels), fmt.Sprintf("%.2e", r.QuESTUtilization),
		})
	}
	fmt.Print(core.FormatTable(
		[]string{"workload", "baseline DDR channels needed", "QuEST channel utilization"}, rows))
}

func threshold() {
	trows, err := core.Threshold(obs.ShardReg(), obs.Tracer(),
		[]float64{2e-3, 1e-3, 5e-4}, []int{3, 5}, trialsOr(200), *flagWorkers, sweep)
	if err != nil {
		fmt.Fprintln(os.Stderr, "threshold experiment failed:", err)
		obs.Exit(1)
	}
	var rows [][]string
	for _, r := range trows {
		rows = append(rows, []string{
			fmt.Sprintf("%.0e", r.PhysRate), strconv.Itoa(r.Distance),
			fmt.Sprintf("%.4f", r.FailRate),
			fmt.Sprintf("[%.4f, %.4f]", r.WilsonLo, r.WilsonHi), strconv.Itoa(r.Trials),
		})
	}
	fmt.Print(core.FormatTable([]string{"phys-rate", "distance", "logical-fail", "95% CI", "trials"}, rows))
}

func memory() {
	var rows [][]string
	for _, p := range []float64{0, 1e-4, 5e-4} {
		r, err := core.MachineMemory(obs.ShardReg(), obs.Tracer(), p, 8, trialsOr(40), *flagWorkers, sweep)
		if err != nil {
			fmt.Fprintln(os.Stderr, "memory experiment failed:", err)
			obs.Exit(1)
		}
		rows = append(rows, []string{
			fmt.Sprintf("%.0e", r.PhysRate), strconv.Itoa(r.Rounds),
			fmt.Sprintf("%.3f", r.FailRate()),
			fmt.Sprintf("[%.3f, %.3f]", r.WilsonLo, r.WilsonHi), strconv.Itoa(r.Trials),
		})
	}
	fmt.Print(core.FormatTable([]string{"phys-rate", "rounds", "logical-fail", "95% CI", "trials"}, rows))
}

func syndrome() {
	var rows [][]string
	for _, r := range core.ExtSyndromeTraffic([]float64{0, 1e-4, 1e-3}, 200) {
		rows = append(rows, []string{
			fmt.Sprintf("%.0e", r.PhysRate), strconv.Itoa(r.Cycles),
			strconv.FormatUint(r.InstructionBytes, 10), strconv.FormatUint(r.SyndromeBytes, 10),
		})
	}
	fmt.Print(core.FormatTable([]string{"phys-rate", "cycles", "instr-bytes (down)", "syndrome-bytes (up)"}, rows))
}

func machine() {
	res, err := core.MachineDemo(50)
	if err != nil {
		fmt.Fprintln(os.Stderr, "machine demo failed:", err)
		obs.Exit(1)
	}
	fmt.Printf("distillation body: %d logical instructions, replayed 50x from the MCE cache\n", core.RoundInstrs())
	fmt.Printf("cycles: %d   logical retired: %d\n", res.Cycles, res.LogicalRetired)
	fmt.Printf("baseline bus: %d bytes   QuEST bus: %d bytes\n", res.BaselineBusBytes, res.QuESTBusBytes)
	fmt.Printf("measured savings: %.0fx\n", res.MeasuredSavings)
}
