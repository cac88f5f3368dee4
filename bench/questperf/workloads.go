package main

import (
	"fmt"
	"strconv"
)

// Workload sizes. They are fixed, identical on every commit, and chosen so
// one CLI run takes about 2 s on a 2-vCPU host: long enough that process
// start-up is noise, short enough for about ten runs per measurement window.
const (
	thresholdTrials = 400  // per cell; 6 cells
	memoryTrials    = 3000 // per cell; 3 cells
	distillReplays  = 100
	distillIdle     = 50 // questsim's default idle tail, spelled out
	ghzCycles       = 400

	// The traced phase replays the first trials of each sweep cell in
	// process, and the distillation at a short and the full replay count.
	replicaThresholdTrials = 64
	replicaMemoryTrials    = 256
	distillShortReplays    = 25
)

// The sweep grids questbench's threshold and memory experiments run.
var (
	thresholdRates     = []float64{2e-3, 1e-3, 5e-4}
	thresholdDistances = []int{3, 5}
	memoryRates        = []float64{0, 1e-4, 5e-4}
)

const memoryRounds = 8

// workload is one CLI invocation the benchmark runs, closed loop: the next
// run starts only after the previous one exits.
type workload struct {
	name string
	bin  string // questbench or questsim
	// flags and positional build the full-size command line; setupFlags the
	// minimum-size one whose run time is set-up: process start, cell or
	// machine construction, and one unit of work.
	flags, setupFlags func(seed int64, workers int) []string
	positional        []string
	// seeded reports whether -seed reaches the program. The sweeps run on
	// the experiment seed compiled into questbench.
	seeded bool
	// sweep marks the questbench workloads, which write a ledger.
	sweep bool
	// work checks the output's shape and returns the work it reports:
	// Monte-Carlo trials for a sweep, simulated µops for questsim.
	work func(out []byte) (float64, error)
	// replica re-runs the workload's layer calls in process, one span per
	// call, and reports where it disagrees with the traced CLI run.
	replica func(rec *Recorder, seed int64, cli tracedRun) []string
}

func workloads() []*workload {
	itoa := strconv.Itoa
	seedFlag := func(seed int64) string { return strconv.FormatInt(seed, 10) }
	return []*workload{
		{
			name: "threshold-sweep", bin: "questbench", sweep: true,
			flags: func(_ int64, w int) []string {
				return []string{"-trials", itoa(thresholdTrials), "-workers", itoa(w)}
			},
			setupFlags: func(_ int64, w int) []string { return []string{"-trials", "1", "-workers", itoa(w)} },
			positional: []string{"threshold"},
			work:       sweepWork(len(thresholdRates) * len(thresholdDistances)),
			replica:    replicaThreshold,
		},
		{
			name: "memory-sweep", bin: "questbench", sweep: true,
			flags: func(_ int64, w int) []string {
				return []string{"-trials", itoa(memoryTrials), "-workers", itoa(w)}
			},
			setupFlags: func(_ int64, w int) []string { return []string{"-trials", "1", "-workers", itoa(w)} },
			positional: []string{"memory"},
			work:       sweepWork(len(memoryRates)),
			replica:    replicaMemory,
		},
		{
			name: "distill-replay", bin: "questsim", seeded: true,
			flags: func(seed int64, _ int) []string {
				return []string{"-program", "distill", "-replays", itoa(distillReplays), "-cycles", itoa(distillIdle),
					"-noise", "1e-3", "-seed", seedFlag(seed)}
			},
			setupFlags: func(seed int64, _ int) []string {
				return []string{"-program", "distill", "-replays", "1", "-cycles", "0", "-noise", "1e-3", "-seed", seedFlag(seed)}
			},
			work:    simWork,
			replica: replicaDistill,
		},
		{
			name: "ghz-d5-4tile", bin: "questsim", seeded: true,
			flags: func(seed int64, _ int) []string {
				return []string{"-program", "ghz", "-tiles", "4", "-d", "5", "-noise", "1e-3",
					"-cycles", itoa(ghzCycles), "-seed", seedFlag(seed)}
			},
			setupFlags: func(seed int64, _ int) []string {
				return []string{"-program", "ghz", "-tiles", "4", "-d", "5", "-noise", "1e-3", "-cycles", "0", "-seed", seedFlag(seed)}
			},
			work:    simWork,
			replica: replicaGHZ,
		},
	}
}

// command assembles a command line: flags, extra flags, then positional
// arguments (questbench stops parsing flags at the experiment name).
func (w *workload) command(flags []string, extra ...string) []string {
	return append(append(append([]string(nil), flags...), extra...), w.positional...)
}

// sweepWork checks that a sweep printed one row per cell, each at the same
// trial count, and returns the trials run.
func sweepWork(cells int) func([]byte) (float64, error) {
	return func(out []byte) (float64, error) {
		rows, err := parseSweep(out)
		if err != nil {
			return 0, err
		}
		if len(rows) != cells {
			return 0, fmt.Errorf("sweep printed %d cells, want %d", len(rows), cells)
		}
		total := 0
		for _, r := range rows {
			if r.Trials != rows[0].Trials || r.Trials < 1 {
				return 0, fmt.Errorf("sweep cell %s/%d ran %d trials, others %d", r.Rate, r.Param, r.Trials, rows[0].Trials)
			}
			total += r.Trials
		}
		return float64(total), nil
	}
}

// simWork checks questsim's report and returns the simulated µops.
func simWork(out []byte) (float64, error) {
	r, err := parseSim(out)
	if err != nil {
		return 0, err
	}
	if r.uops() == 0 {
		return 0, fmt.Errorf("questsim reported no µops")
	}
	return float64(r.uops()), nil
}
