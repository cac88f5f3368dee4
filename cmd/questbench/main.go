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
// Observability (shared with questsim via internal/obsflags, except the
// sweep-only -ci-stop, -shard and -resume): -metrics, -pprof, -trace,
// -trace-buf, plus the experiment-ledger bundle — -ledger FILE streams a
// JSONL run ledger (validate with tools/questcheck), -progress renders live
// per-cell Wilson intervals on stderr, -ci-stop W stops each cell once its
// 95% interval is narrower than W, and -heatmap FILE writes spatial
// defect/matching heatmaps as JSON (ASCII renders go to stderr). All of it
// is worker-count independent.
//
// Live telemetry: -events FILE streams quest-events/1 JSONL snapshots
// (per-cell progress, trial rates, ETA, metrics deltas, runtime stats) while
// the run is in flight; with -pprof the same stream is served live over SSE
// on /events (plus a /healthz probe). Watch one or many shard streams with
// tools/questtop. Telemetry is a pure side-band: ledger, heatmap and table
// bytes are identical with events on or off.
//
// Bandwidth profiling: -bw FILE records per-bus traffic in fixed windows of
// the machine cycle clock and writes a quest-bw/1 profile at exit
// (-bw-window N sets the window width; validate and compare runs with
// tools/bwreport). Like the ledger, the profile is worker-count independent
// and a pure side-band of the sweep.
//
// Distributed sweeps: -shard i/N runs only the statistical sweep cells owned
// by shard i of N (round-robin in sweep order), each shard writing a
// complete ledger that tools/ledgermerge recombines into bytes identical to
// the 1-process run. -resume FILE restarts from a partial ledger left by an
// interrupted run, replaying recorded cells and trials instead of
// re-executing them; the finished ledger is byte-identical to an
// uninterrupted run's.
package main

import (
	"flag"
	"fmt"
	"os"
	"strconv"
	"strings"

	"quest/internal/benchsuite"
	"quest/internal/chart"
	"quest/internal/core"
	"quest/internal/metrics"
	"quest/internal/obsflags"
	"quest/internal/workload"
)

var (
	flagMD      = flag.Bool("md", false, "emit the full evaluation as a Markdown report")
	flagTrials  = flag.Int("trials", 0, "Monte-Carlo trials per statistical cell (0 = per-experiment default)")
	flagWorkers = flag.Int("workers", 0, "Monte-Carlo worker goroutines (0 = GOMAXPROCS)")
	flagBench   = flag.String("bench-json", "", "run the performance benchmark suite and write the JSON report to this path ('-' for stdout), then exit")
	flagBenchT  = flag.String("benchtime", "", "per-case benchtime for -bench-json ('1s', '100x'; default 1s)")
	// obs wires the shared observability flags (-metrics, -pprof, -trace,
	// -trace-buf, -ledger, -progress, -heatmap, -events, -bw, -bw-window)
	// identically to cmd/questsim, plus the sweep-only -ci-stop, -shard and
	// -resume.
	obs = obsflags.RegisterSweep(flag.CommandLine)
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
	if err := checkFlags(*flagTrials, *flagWorkers); err != nil {
		fmt.Fprintln(os.Stderr, "questbench:", err)
		os.Exit(2)
	}
	args := flag.Args()
	if err := obs.Start(); err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(2)
	}
	if *flagBench != "" {
		runBenchJSON(*flagBench, *flagBenchT)
		return
	}
	defer obs.Finish()
	// Deliberately no -workers here: the ledger is byte-identical for any
	// worker count, and recording the pool size would break that.
	lw, err := obs.OpenLedger("questbench", map[string]string{
		"args":    strings.Join(args, " "),
		"trials":  strconv.Itoa(*flagTrials),
		"ci-stop": strconv.FormatFloat(obs.CIStop(), 'g', -1, 64),
	})
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(2)
	}
	// The telemetry stream shares the ledger's provenance: same experiment
	// name, same config (and the same deliberate -workers omission — events
	// are operational, but the pairing with the ledger should be obvious).
	if err := obs.OpenEvents("questbench", map[string]string{
		"args":    strings.Join(args, " "),
		"trials":  strconv.Itoa(*flagTrials),
		"ci-stop": strconv.FormatFloat(obs.CIStop(), 'g', -1, 64),
	}); err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(2)
	}
	// Same provenance for the bandwidth profile: the artifact must identify
	// the run it measured, and -workers stays out so the waveform bytes keep
	// their worker-count independence.
	if err := obs.OpenBW("questbench", map[string]string{
		"args":    strings.Join(args, " "),
		"trials":  strconv.Itoa(*flagTrials),
		"ci-stop": strconv.FormatFloat(obs.CIStop(), 'g', -1, 64),
	}); err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(2)
	}
	// The shard cursor is shared by every statistical experiment this
	// invocation runs, so cell ownership counts in global sweep order across
	// threshold and memory alike — exactly how ledgermerge re-interleaves.
	shard, err := core.NewShard(obs.Shard().Index, obs.Shard().Count)
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(2)
	}
	sweep = core.SweepObs{
		Ledger:   lw,
		Heat:     obs.HeatSet(),
		BW:       obs.BW(),
		CIWidth:  obs.CIStop(),
		Progress: obs.SweepProgress(),
		Shard:    shard,
		Resume:   obs.Resume(),
	}
	if *flagMD {
		// Full evaluation as a self-contained Markdown report.
		fmt.Print(core.MarkdownReport(trialsOr(150), *flagWorkers))
		return
	}
	if len(args) == 0 {
		for _, e := range experiments {
			runOne(e.name, e.desc, e.run)
		}
		return
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
			os.Exit(2)
		}
		runOne(experiments[i].name, experiments[i].desc, experiments[i].run)
	}
}

// checkFlags rejects negative -trials and -workers, which would otherwise
// run the defaults while the ledger header records the negative value; main
// reports the error on one stderr line and exits 2, the usage class of the
// 0/1/2 exit contract.
func checkFlags(trials, workers int) error {
	switch {
	case trials < 0:
		return fmt.Errorf("-trials %d: need a non-negative trial count (0 = per-experiment default)", trials)
	case workers < 0:
		return fmt.Errorf("-workers %d: need a non-negative worker count (0 = GOMAXPROCS)", workers)
	}
	return nil
}

// runBenchJSON runs the benchsuite and writes the report to path ('-' =
// stdout).
func runBenchJSON(path, benchtime string) {
	rep := benchsuite.Run(benchsuite.Options{Benchtime: benchtime})
	out := os.Stdout
	if path != "-" {
		f, err := os.Create(path)
		if err != nil {
			fmt.Fprintln(os.Stderr, "bench-json:", err)
			os.Exit(1)
		}
		defer f.Close()
		out = f
	}
	if err := rep.WriteJSON(out); err != nil {
		fmt.Fprintln(os.Stderr, "bench-json:", err)
		os.Exit(1)
	}
	fmt.Fprintf(os.Stderr, "bench-json: %d cases written to %s\n", len(rep.Results), path)
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

// shardReg returns the registry Monte-Carlo drivers aggregate their
// per-worker shards into: Default when -metrics or -pprof is requested, nil
// (no aggregation) otherwise.
func shardReg() *metrics.Registry {
	return obs.ShardReg()
}

func threshold() {
	trows, err := core.Threshold(shardReg(), obs.Tracer(),
		[]float64{2e-3, 1e-3, 5e-4}, []int{3, 5}, trialsOr(200), *flagWorkers, sweep)
	if err != nil {
		fmt.Fprintln(os.Stderr, "threshold experiment failed:", err)
		obs.Finish()
		os.Exit(1)
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
		r, ran, err := core.MachineMemory(shardReg(), obs.Tracer(), p, 8, trialsOr(40), *flagWorkers, sweep)
		if err != nil {
			fmt.Fprintln(os.Stderr, "memory experiment failed:", err)
			obs.Finish()
			os.Exit(1)
		}
		if !ran {
			continue
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
		os.Exit(1)
	}
	fmt.Printf("distillation body: %d logical instructions, replayed 50x from the MCE cache\n", core.RoundInstrs())
	fmt.Printf("cycles: %d   logical retired: %d\n", res.Cycles, res.LogicalRetired)
	fmt.Printf("baseline bus: %d bytes   QuEST bus: %d bytes\n", res.BaselineBusBytes, res.QuESTBusBytes)
	fmt.Printf("measured savings: %.0fx\n", res.MeasuredSavings)
}
