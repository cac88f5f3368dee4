// Command questsim runs a cycle-level simulation of a QuEST machine: an MCE
// array replaying QECC microcode over a noisy stabilizer-simulated surface
// code, executing a logical workload dispatched by the master controller,
// with two-level decoding and full instruction-bus accounting.
//
// Usage:
//
//	questsim [flags]
//
//	-tiles N        MCE tiles (default 1)
//	-patches N      logical patches per tile (default 2)
//	-d N            code distance (default 3)
//	-design NAME    microcode design: ram, fifo, unitcell (default unitcell)
//	-noise P        uniform physical error rate (default 0: noiseless)
//	-cycles N       extra idle QECC cycles to run after the program (default 50)
//	-seed N         reproducibility seed (default 1)
//	-program NAME   workload: bell, ghz, distill, paulis (default bell)
//	-replays N      cache replays for -program distill (default 20)
//
// Observability (shared with questbench via internal/obsflags; the
// sweep-only -ci-stop, -shard and -resume are questbench's alone):
//
//	-metrics text|json   dump the metrics registry to stderr at exit
//	-pprof ADDR          serve net/http/pprof and Prometheus /metrics on ADDR
//	-trace FILE          write a cycle-correlated Perfetto trace (Chrome
//	                     trace-event JSON) of the run
//	-trace-buf N         trace ring capacity in events
//	-ledger FILE         write a provenance header plus a one-cell run
//	                     summary as a JSONL ledger (tools/questcheck)
//	-heatmap FILE        collect machine-wide defect/matching heatmaps and
//	                     write them as JSON (ASCII render on stderr)
//	-progress            tick idle-cycle progress on stderr
//	-events FILE         stream live quest-events/1 telemetry snapshots
//	                     (idle-cycle progress, metrics deltas, runtime stats)
//	                     as JSONL; with -pprof the stream is also served over
//	                     SSE on /events (watch with tools/questtop)
//	-bw FILE             record per-bus instruction-bandwidth waveforms keyed
//	                     to the machine cycle clock and write a quest-bw/1
//	                     profile (validate and compare with tools/bwreport)
//	-bw-window N         profile window width in cycles (default 8)
package main

import (
	"flag"
	"fmt"
	"log"
	"os"
	"strings"

	"quest"
	"quest/internal/awg"
	"quest/internal/core"
	"quest/internal/ledger"
	"quest/internal/mc"
	"quest/internal/microcode"
	"quest/internal/obsflags"
	"quest/internal/workload"
)

func main() {
	var (
		tiles   = flag.Int("tiles", 1, "MCE tiles")
		patches = flag.Int("patches", 2, "logical patches per tile")
		dist    = flag.Int("d", 3, "code distance")
		design  = flag.String("design", "unitcell", "microcode design: ram, fifo, unitcell")
		noiseP  = flag.Float64("noise", 0, "uniform physical error rate")
		cycles  = flag.Int("cycles", 50, "idle QECC cycles appended after the program")
		seed    = flag.Int64("seed", 1, "simulation seed")
		program = flag.String("program", "bell", "workload: bell, ghz, distill, paulis")
		replays = flag.Int("replays", 20, "cache replays for -program distill")
		tech    = flag.String("tech", "projd", "timing model: exps, projf, projd, none")
	)
	obs := obsflags.Register(flag.CommandLine)
	flag.Parse()
	if err := checkFlags(*tiles, *patches, *dist, *cycles, *replays, *noiseP); err != nil {
		fmt.Fprintln(os.Stderr, "questsim:", err)
		os.Exit(2)
	}
	// Start before the machine is built: components resolve tracing.Default
	// at construction time.
	if err := obs.Start(); err != nil {
		log.Fatal(err)
	}
	defer obs.Finish()
	if err := obs.OpenEvents("questsim", map[string]string{
		"program": *program,
		"design":  strings.ToLower(*design),
	}); err != nil {
		log.Fatal(err)
	}
	// The bandwidth artifact carries the design so bwreport can key its
	// comparison table on it (ram vs fifo vs unitcell microcode stores).
	if err := obs.OpenBW("questsim", map[string]string{
		"program": *program,
		"design":  strings.ToLower(*design),
	}); err != nil {
		log.Fatal(err)
	}

	cfg := quest.DefaultMachineConfig()
	cfg.Tiles = *tiles
	cfg.PatchesPerTile = *patches
	cfg.Distance = *dist
	cfg.Seed = *seed
	switch strings.ToLower(*design) {
	case "ram":
		cfg.Design = microcode.DesignRAM
	case "fifo":
		cfg.Design = microcode.DesignFIFO
	case "unitcell":
		cfg.Design = microcode.DesignUnitCell
	default:
		log.Fatalf("unknown design %q", *design)
	}
	if *noiseP > 0 {
		nm := quest.UniformNoise(*noiseP)
		cfg.Noise = &nm
	}
	switch strings.ToLower(*tech) {
	case "none":
	case "exps", "projf", "projd":
		t := map[string]workload.Tech{
			"exps": workload.ExperimentalS, "projf": workload.ProjectedF, "projd": workload.ProjectedD,
		}[strings.ToLower(*tech)]
		cfg.Timing = &awg.Timing{
			PrepNs: t.TPrep, Gate1Ns: t.T1, MeasNs: t.TMeas, CNOTNs: t.TCNOT, IdleNs: t.T1,
		}
	default:
		log.Fatalf("unknown tech %q", *tech)
	}
	cfg.Heat = obs.HeatSet()
	cfg.BW = obs.BW()
	m := quest.NewMachine(cfg)

	var rep quest.RunReport
	var err error
	if *program == "distill" {
		rep, err = m.RunDistillationCached(*replays, 0)
	} else {
		p := buildProgram(*program, *patches)
		rep, err = m.RunProgram(p, 0)
	}
	if err != nil {
		log.Fatal(err)
	}
	tick := *cycles / 10
	if tick < 1 {
		tick = 1
	}
	for c := 0; c < *cycles; c++ {
		m.Master().StepCycle()
		if (c+1)%tick == 0 || c+1 == *cycles {
			// Feed the idle-cycle phase to the telemetry sampler as one
			// pseudo-cell (nil-gated: free when events are off).
			obs.Events().ObserveCell("idle-cycles", mc.Progress{
				Completed: c + 1, Budget: *cycles, Done: c+1 == *cycles,
			})
			if obs.ProgressEnabled() {
				fmt.Fprintf(obs.Log, "\ridle qecc cycles: %d/%d", c+1, *cycles)
			}
		}
	}
	if obs.ProgressEnabled() && *cycles > 0 {
		fmt.Fprintln(obs.Log)
	}
	if err := writeRunLedger(obs, rep, cfg, *noiseP, *cycles, *program); err != nil {
		log.Fatal(err)
	}

	fmt.Printf("questsim: %d tile(s) × %d patch(es), d=%d, %s microcode, noise=%g, program=%s\n",
		*tiles, *patches, *dist, cfg.Design, *noiseP, *program)
	fmt.Printf("  program cycles:        %d (+%d idle)\n", rep.Cycles, *cycles)
	fmt.Printf("  logical retired:       %d\n", rep.LogicalRetired)
	for _, r := range rep.Results {
		fmt.Printf("  logical measurement:   patch %d -> %d\n", r.Patch, r.Bit)
	}
	fmt.Printf("  baseline bus bytes:    %d\n", rep.BaselineBusBytes)
	fmt.Printf("  QuEST bus bytes:       %d\n", rep.QuESTBusBytes)
	fmt.Printf("  syndrome bytes (up):   %d\n", rep.SyndromeBytes)
	if rep.QuESTBusBytes > 0 {
		fmt.Printf("  measured savings:      %.0fx\n", rep.Savings())
	}
	escalated, decodes := m.Master().Stats()
	fmt.Printf("  defects escalated:     %d (global decodes: %d)\n", escalated, decodes)
	for i, t := range m.Master().Tiles() {
		micro, logical, hits, loads, stalls := t.Stats()
		fmt.Printf("  tile %d: %d µops, %d logical, cache %d hits/%d loads, %d T stalls, %d µcode bits streamed\n",
			i, micro, logical, hits, loads, stalls, t.Store().BitsStreamed())
		if ns := t.ElapsedNs(); ns > 0 {
			fmt.Printf("  tile %d wall clock:    %.3f µs (%s gate latencies)\n", i, ns/1e3, *tech)
		}
	}
	_ = core.RoundInstrs
}

// checkFlags rejects the numeric flag values no machine runs with; main
// reports the error on one stderr line and exits 2, the usage class of the
// 0/1/2 exit contract.
func checkFlags(tiles, patches, d, cycles, replays int, noise float64) error {
	switch {
	case tiles < 1:
		return fmt.Errorf("-tiles %d: need at least 1 tile", tiles)
	case patches < 1:
		return fmt.Errorf("-patches %d: need at least 1 patch per tile", patches)
	case d < 2:
		return fmt.Errorf("-d %d: need a code distance of at least 2", d)
	case !(noise >= 0 && noise <= 1):
		return fmt.Errorf("-noise %v: need a probability in [0,1]", noise)
	case cycles < 0:
		return fmt.Errorf("-cycles %d: need a non-negative cycle count", cycles)
	case replays < 1:
		return fmt.Errorf("-replays %d: need at least 1 replay", replays)
	}
	return nil
}

// writeRunLedger records the single simulation as a one-cell ledger (when
// -ledger is on): a provenance header, one trial record carrying the run
// seed, and a summary cell whose Wilson bracket covers the (single,
// successfully drained) trial.
func writeRunLedger(obs *obsflags.Obs, rep quest.RunReport, cfg quest.MachineConfig, noiseP float64, cycles int, program string) error {
	lw, err := obs.OpenLedger("questsim", map[string]string{
		"program": program,
		"design":  cfg.Design.String(),
	})
	if err != nil || lw == nil {
		return err
	}
	cell := fmt.Sprintf("run program=%s", program)
	if err := lw.WriteTrial(ledger.Trial{
		Cell: cell, Trial: 0, Seed: ledger.SeedString(uint64(cfg.Seed)), Fail: !rep.Drained,
	}); err != nil {
		return err
	}
	failures := 0
	if !rep.Drained {
		failures = 1
	}
	lo, hi := mc.Wilson(failures, 1, 1.96)
	return lw.WriteCell(ledger.Cell{
		Cell: cell,
		Params: map[string]float64{
			"noise": noiseP, "d": float64(cfg.Distance), "tiles": float64(cfg.Tiles),
			"patches": float64(cfg.PatchesPerTile), "cycles": float64(cycles),
		},
		Seed: ledger.SeedString(uint64(cfg.Seed)), Budget: 1, Trials: 1,
		Failures: failures, Rate: float64(failures), WilsonLo: lo, WilsonHi: hi,
	})
}

func buildProgram(name string, patches int) *quest.Program {
	p := quest.NewProgram(max(2, patches))
	switch strings.ToLower(name) {
	case "bell":
		p.Prep0(0).Prep0(1).H(0).CNOT(0, 1).MeasZ(0).MeasZ(1)
	case "ghz":
		for q := 0; q < patches; q++ {
			p.Prep0(q)
		}
		p.H(0)
		for q := 1; q < patches; q++ {
			p.CNOT(0, q)
		}
		for q := 0; q < patches; q++ {
			p.MeasZ(q)
		}
	case "paulis":
		for i := 0; i < 20; i++ {
			p.X(i % patches)
			p.Z((i + 1) % patches)
		}
		p.MeasZ(0)
	default:
		log.Fatalf("unknown program %q (want bell, ghz, distill, paulis)", name)
	}
	return p
}

func max(a, b int) int {
	if a > b {
		return a
	}
	return b
}
