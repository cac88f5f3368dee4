// Command questbench regenerates every table and figure of the paper's
// evaluation section as text tables. Run with no arguments for everything,
// or name experiments: fig2 fig6 fig10 fig11 fig13 fig14 fig15 fig16 table1
// table2 machine concat dram threshold memory syndrome. The tables come
// from core.Experiments, the one place their cells are formatted.
//
// The statistical experiments (threshold, memory) accept -trials and
// -workers; -trials 0, the default, runs core.DefaultTrials (20,000) per
// cell in both. Trials fan out across a worker pool with per-trial seeds mixed
// from a fixed experiment seed, so the printed rates are bit-identical for
// every -workers value — crank workers for wall-clock, crank trials for
// confidence.
//
// Observability (shared with questsim via internal/obsflags): -metrics,
// -cpuprofile FILE (a CPU profile of the whole run, read with go tool
// pprof), -trace, -trace-buf, plus the experiment-ledger bundle — -ledger
// FILE streams a JSONL run ledger, -progress renders live per-cell Wilson
// intervals on stderr, and -heatmap FILE writes spatial defect/matching
// heatmaps as JSON (ASCII renders go to stderr). All of it is worker-count
// independent. Every cell runs its full -trials budget. Only the sweeps,
// threshold and memory, write into -ledger and -heatmap: a run that gives
// either, or -bw, without selecting a sweep exits 2. Only the sweeps,
// machine and syndrome record trace spans: a run that gives -trace without
// selecting one of them exits 2 too.
//
// Bandwidth profiling: -bw FILE records per-bus traffic in fixed windows of
// the machine cycle clock and writes a quest-bw/1 profile at exit
// (-bw-window N sets the window width). Only the memory sweep drives the
// machine's buses; the threshold sweep bypasses the machine, so its profile
// has no window. Like the ledger, the profile is worker-count independent
// and a pure side-band of the sweep. tools/questcheck validates each of
// these artifacts but the CPU profile.
//
// -md renders the same experiments as Markdown instead of text: the same
// names, trials, sweeps and artifacts. Under its heading, `questbench -md
// fig2` prints the block EXPERIMENTS.md holds for fig2.
//
// Exit status: 0 on success; 1 when an experiment fails or an artifact
// cannot be written; 2 on a bad flag value or an unknown experiment, before
// anything runs.
package main

import (
	"flag"
	"fmt"
	"os"
	"strconv"
	"strings"

	"quest/internal/core"
	"quest/internal/obsflags"
)

var (
	flagMD      = flag.Bool("md", false, "render the experiments as Markdown")
	flagTrials  = flag.Int("trials", 0, "Monte-Carlo trials per statistical cell (0 = "+strconv.Itoa(core.DefaultTrials)+")")
	flagWorkers = flag.Int("workers", 0, "Monte-Carlo worker goroutines (0 = GOMAXPROCS)")
	// obs wires the shared observability flags (-metrics, -cpuprofile, -trace,
	// -trace-buf, -ledger, -progress, -heatmap, -bw, -bw-window)
	// identically to cmd/questsim.
	obs = obsflags.Register(flag.CommandLine)
)

func main() {
	flag.Parse()
	args := flag.Args()
	if err := checkFlags(*flagTrials, *flagWorkers); err != nil {
		fmt.Fprintln(os.Stderr, "questbench:", err)
		os.Exit(2)
	}
	selected, ok := selectExperiments(args)
	if !ok {
		os.Exit(2)
	}
	if err := checkArtifacts(selected); err != nil {
		fmt.Fprintln(os.Stderr, "questbench:", err)
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
	run := core.Run{
		Trials: *flagTrials, Workers: *flagWorkers,
		Reg: obs.ShardReg(), Tracer: obs.Tracer(),
		Obs: core.SweepObs{
			Ledger:   lw,
			Heat:     obs.HeatSet(),
			BW:       obs.BW(),
			Progress: obs.SweepProgress(),
		},
	}
	head, render := "== %s: %s ==\n", core.Table.Text
	if *flagMD {
		fmt.Print("# QuEST evaluation report (regenerated)\n\n" +
			"Operating point: Projected_D technology, Steane syndrome, physical error rate 1e-4.\n\n")
		head, render = "## %s: %s\n\n", core.Table.Markdown
	}
	for _, e := range selected {
		fmt.Printf(head, e.Name, e.Desc)
		tab, err := e.Table(run)
		if err != nil {
			fmt.Fprintf(os.Stderr, "%s experiment failed: %v\n", e.Name, err)
			obs.Exit(1)
		}
		fmt.Print(render(tab))
		fmt.Println()
	}
	obs.Exit(0)
}

// checkFlags rejects negative -trials and -workers, which would otherwise
// run the defaults while the ledger header records the negative value;
// main reports the error on one stderr line and exits 2, the usage class of
// the 0/1/2 exit contract.
func checkFlags(trials, workers int) error {
	switch {
	case trials < 0:
		return fmt.Errorf("-trials %d: need a non-negative trial count (0 = %d)", trials, core.DefaultTrials)
	case workers < 0:
		return fmt.Errorf("-workers %d: need a non-negative worker count (0 = GOMAXPROCS)", workers)
	}
	return nil
}

// traced names the experiments that record trace spans: the two sweeps,
// and the two that step the machine. TestTracedExperimentsRecordSpans pins
// the set.
var traced = map[string]bool{"threshold": true, "memory": true, "machine": true, "syndrome": true}

// checkArtifacts refuses -ledger, -heatmap and -bw when neither sweep,
// threshold nor memory, is selected, and -trace when no experiment that
// records spans is: nothing else writes into them, so each file would hold
// a header, or no event, and nothing else (questcheck rejects an empty
// trace). main reports the error on one stderr line and exits 2, before
// anything runs.
func checkArtifacts(selected []core.Experiment) error {
	sweep, spans := false, false
	for _, e := range selected {
		sweep = sweep || e.Name == "threshold" || e.Name == "memory"
		spans = spans || traced[e.Name]
	}
	for _, name := range []string{"ledger", "heatmap", "bw"} {
		if !sweep && flag.Lookup(name).Value.String() != "" {
			return fmt.Errorf("-%s: no selected experiment writes it; select threshold or memory", name)
		}
	}
	if !spans && flag.Lookup("trace").Value.String() != "" {
		return fmt.Errorf("-trace: no selected experiment records spans; select threshold, memory, machine or syndrome")
	}
	return nil
}

// selectExperiments resolves the experiment names on the command line, in
// order: every experiment when none is named. On an unknown name it prints
// the available list to stderr and reports false, before anything runs.
func selectExperiments(args []string) ([]core.Experiment, bool) {
	if len(args) == 0 {
		return core.Experiments, true
	}
	var sel []core.Experiment
	for _, a := range args {
		e, ok := core.ExperimentNamed(a)
		if !ok {
			fmt.Fprintf(os.Stderr, "unknown experiment %q; available:\n", a)
			for _, e := range core.Experiments {
				fmt.Fprintf(os.Stderr, "  %-8s %s\n", e.Name, e.Desc)
			}
			return nil, false
		}
		sel = append(sel, e)
	}
	return sel, true
}
