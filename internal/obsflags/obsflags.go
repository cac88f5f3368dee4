// Package obsflags is the shared observability flag wiring for the
// repository's binaries. cmd/questsim and cmd/questbench both expose the
// flags Register installs, and this package keeps their semantics identical
// instead of letting two hand-rolled copies drift.
//
//	-metrics text|json   dump the default metrics registry to stderr at exit;
//	                     without it the instruments are off: nothing
//	                     records and no component reads the clock for them
//	-cpuprofile FILE     write a CPU profile of the whole run to FILE
//	                     (read it with go tool pprof)
//	-trace FILE          record a cycle-correlated event trace and write it
//	                     as Perfetto-loadable Chrome trace-event JSON
//	-trace-buf N         trace ring capacity in events (0 = default 256k)
//	-ledger FILE         stream a schema-versioned run ledger (JSONL): one
//	                     provenance header, one record per trial, one summary
//	                     per sweep cell
//	-progress            render live sweep progress (Wilson CI) on Log
//	-heatmap FILE        accumulate spatial defect/matching heatmaps and write
//	                     them as JSON (plus ASCII renders on Log) at exit
//	-bw FILE             record a cycle-windowed instruction-bandwidth profile
//	                     of every master/MCE bus and write it as a
//	                     quest-bw/1 JSONL artifact ('-' = stdout), plus an
//	                     ASCII waveform on Log; of questbench's experiments
//	                     only memory drives the buses
//	-bw-window N         bandwidth profile window width in machine cycles
//	                     (0 = default 8)
//
// tools/questcheck validates each of these artifacts but the CPU profile.
//
// Lifecycle: Register the flags before flag.Parse, Start after it (and before
// the machine is built, so components resolving tracing.Default and
// metrics.Default see the tracer and registry the flags chose), and leave
// through Exit, which runs Finish and exits 1 when an artifact was not
// written.
//
// Nothing here opens a socket: the package stays off net and net/http, so
// the binaries do not link or initialise Go's network, TLS and crypto stack
// (TestCLIsLinkNoNetworkStack in the module root).
package obsflags

import (
	"flag"
	"fmt"
	"io"
	"os"
	"runtime/pprof"
	"strings"
	"unicode/utf8"

	"quest/internal/bwprofile"
	"quest/internal/chart"
	"quest/internal/heatmap"
	"quest/internal/ledger"
	"quest/internal/mc"
	"quest/internal/metrics"
	"quest/internal/tracing"
)

// Obs holds the registered flag values and the open artifact state.
type Obs struct {
	metricsFmt *string
	cpuPath    *string
	tracePath  *string
	traceBuf   *int
	ledgerPath *string
	progress   *bool
	heatPath   *string
	bwPath     *string
	bwWindow   *int

	// cpuFile is the -cpuprofile file while the profile runs (Start to
	// Finish).
	cpuFile *os.File

	ledgerFile *os.File
	ledgerW    *ledger.Writer
	heat       *heatmap.Set

	// bw is the process bandwidth recorder, created by Start when -bw is
	// given; bwExperiment/bwConfig are the artifact provenance, stored by
	// OpenBW and written by Finish.
	bw           *bwprofile.Recorder
	bwExperiment string
	bwConfig     map[string]string
	bwOpened     bool
	// Log is where status lines and metric dumps go (default os.Stderr).
	Log io.Writer
}

// Register installs the shared flags on fs (flag.CommandLine in the
// binaries; a private FlagSet in tests).
func Register(fs *flag.FlagSet) *Obs {
	return &Obs{
		metricsFmt: fs.String("metrics", "", "dump the metrics registry at exit: 'text' or 'json'"),
		cpuPath: fs.String("cpuprofile", "",
			"write a CPU profile of the whole run to this file (read it with go tool pprof)"),
		tracePath: fs.String("trace", "",
			"write a cycle-correlated Perfetto trace (Chrome trace-event JSON) to this file"),
		traceBuf: fs.Int("trace-buf", 0,
			fmt.Sprintf("trace ring capacity in events (0 = %d)", tracing.DefaultCapacity)),
		ledgerPath: fs.String("ledger", "",
			"stream a run ledger (JSONL: header, per-trial, per-cell records) to this file"),
		progress: fs.Bool("progress", false,
			"render live sweep progress with Wilson confidence intervals on stderr"),
		heatPath: fs.String("heatmap", "",
			"write spatial defect/matching heatmaps as JSON to this file at exit"),
		bwPath: fs.String("bw", "",
			"record a cycle-windowed instruction-bandwidth profile and write it as quest-bw/1 JSONL to this file ('-' = stdout); of questbench's experiments only memory drives the buses"),
		bwWindow: fs.Int("bw-window", 0,
			fmt.Sprintf("bandwidth profile window width in machine cycles (0 = %d)", bwprofile.DefaultWindow)),
		Log: os.Stderr,
	}
}

// ShardReg returns the registry Monte-Carlo drivers should aggregate
// per-worker shards into: metrics.Default when -metrics is requested, nil
// otherwise so the metrics-off path stays allocation-free.
func (o *Obs) ShardReg() *metrics.Registry {
	if *o.metricsFmt != "" {
		return metrics.Default
	}
	return nil
}

// Tracer returns the process tracer (nil when tracing is off). Valid after
// Start.
func (o *Obs) Tracer() *tracing.Tracer { return tracing.Default }

// ProgressEnabled reports whether -progress was given (for binaries that
// render their own non-sweep progress, e.g. questsim's idle cycles).
func (o *Obs) ProgressEnabled() bool { return *o.progress }

// HeatSet returns the process heat-collector set (nil when -heatmap is off,
// which keeps the decode paths allocation-free). Valid after Start.
func (o *Obs) HeatSet() *heatmap.Set { return o.heat }

// BW returns the process bandwidth recorder (nil when -bw is off, which
// keeps the dispatch and cache-replay paths allocation-free). Valid after
// Start. Sweep drivers pass it through core.SweepObs.BW; cycle-loop binaries
// (questsim) hand it straight to the machine config.
func (o *Obs) BW() *bwprofile.Recorder { return o.bw }

// OpenBW stores the experiment name and config the quest-bw/1 artifact's
// provenance header will carry; Finish writes the file. No-op when -bw is
// off. Call once, after Start and before the run.
func (o *Obs) OpenBW(experiment string, config map[string]string) error {
	if *o.bwPath == "" {
		return nil
	}
	if o.bwOpened {
		return fmt.Errorf("bw: OpenBW called twice")
	}
	o.bwOpened = true
	o.bwExperiment, o.bwConfig = experiment, config
	return nil
}

// OpenLedger creates the -ledger file and writes its provenance header; it
// returns (nil, nil) when -ledger is off. Call once, after Start and before
// the sweep; Finish flushes and closes the file. The experiment name and
// config land in the header so a ledger is self-describing.
func (o *Obs) OpenLedger(experiment string, config map[string]string) (*ledger.Writer, error) {
	if *o.ledgerPath == "" {
		return nil, nil
	}
	if o.ledgerW != nil {
		return nil, fmt.Errorf("ledger: OpenLedger called twice")
	}
	f, err := os.Create(*o.ledgerPath)
	if err != nil {
		return nil, fmt.Errorf("ledger: %w", err)
	}
	lw, err := ledger.NewWriter(f, experiment, config)
	if err != nil {
		f.Close()
		return nil, fmt.Errorf("ledger: %w", err)
	}
	o.ledgerFile, o.ledgerW = f, lw
	return lw, nil
}

// SweepProgress returns the cell-labelled live progress sink for -progress
// (nil when it is off). Snapshots overwrite one status line per cell on Log
// and the Done snapshot finishes the line. The stream reflects live
// completion order and is display only — ledger/heatmap/row contents stay
// deterministic.
func (o *Obs) SweepProgress() func(cell string, p mc.Progress) {
	if !*o.progress {
		return nil
	}
	// lastLen is the rune width of the last in-place status line: a shorter
	// line would otherwise leave the tail of its longer predecessor on
	// screen after the \r overwrite, so render pads to the previous width.
	// Cells run sequentially and progressState serializes emits, so a plain
	// closure variable suffices.
	lastLen := 0
	return func(cell string, p mc.Progress) {
		var line string
		if p.Done {
			line = fmt.Sprintf("%s: %d trials, %d failures, CI [%.4f, %.4f] done",
				cell, p.Completed, p.Failures, p.WilsonLo, p.WilsonHi)
		} else {
			line = fmt.Sprintf("%s: %d trials, %d failures, CI width %.4f",
				cell, p.Completed, p.Failures, p.WilsonHi-p.WilsonLo)
		}
		width := utf8.RuneCountInString(line)
		pad := ""
		if width < lastLen {
			pad = strings.Repeat(" ", lastLen-width)
		}
		if p.Done {
			fmt.Fprintf(o.Log, "\r%s%s\n", line, pad)
			lastLen = 0
			return
		}
		fmt.Fprintf(o.Log, "\r%s%s", line, pad)
		lastLen = width
	}
}

// Start validates the flag values, switches metrics.Default off (nil)
// unless -metrics was given, enables tracing.Default when -trace was given,
// and starts the CPU profile when -cpuprofile was given.
func (o *Obs) Start() error {
	switch *o.metricsFmt {
	case "", "text", "json":
	default:
		return fmt.Errorf("unknown -metrics format %q (want 'text' or 'json')", *o.metricsFmt)
	}
	if *o.traceBuf < 0 {
		return fmt.Errorf("-trace-buf %d out of range: want a ring capacity in events, or 0 for the default %d", *o.traceBuf, tracing.DefaultCapacity)
	}
	if *o.bwWindow < 0 {
		return fmt.Errorf("-bw-window %d out of range: want a window width in machine cycles, or 0 for the default %d", *o.bwWindow, bwprofile.DefaultWindow)
	}
	if *o.metricsFmt == "" {
		// Nobody will read the registry: components that resolve
		// metrics.Default get nil instruments, which record nothing, and
		// skip the clock reads that would feed them.
		metrics.Default = nil
	}
	if *o.tracePath != "" {
		tracing.Default = tracing.New(*o.traceBuf)
	}
	if *o.heatPath != "" {
		o.heat = heatmap.NewSet()
	}
	if *o.bwPath != "" {
		o.bw = bwprofile.New(*o.bwWindow)
	}
	if *o.cpuPath != "" {
		f, err := os.Create(*o.cpuPath)
		if err != nil {
			return fmt.Errorf("cpuprofile: %w", err)
		}
		if err := pprof.StartCPUProfile(f); err != nil {
			f.Close()
			return fmt.Errorf("cpuprofile: %w", err)
		}
		o.cpuFile = f
	}
	return nil
}

// Finish flushes everything the flags asked for: the CPU profile (stopped
// first, so the writes below stay out of it), the trace file (plus a
// per-track busy/stall/idle summary on Log), the ledger, the heatmap JSON
// (plus ASCII defect-density renders on Log), the quest-bw/1 bandwidth
// profile (plus an ASCII waveform on Log) and the metrics dump. Every stage
// runs; the first failure is returned. Safe to call when nothing was
// enabled.
func (o *Obs) Finish() error {
	var firstErr error
	if o.cpuFile != nil {
		if err := o.stopCPUProfile(); err != nil {
			firstErr = err
			fmt.Fprintln(o.Log, "cpuprofile:", err)
		}
	}
	if *o.tracePath != "" && tracing.Default != nil {
		if err := o.writeTrace(); err != nil {
			if firstErr == nil {
				firstErr = err
			}
			fmt.Fprintln(o.Log, "trace:", err)
		}
	}
	if o.ledgerW != nil {
		if err := o.closeLedger(); err != nil {
			if firstErr == nil {
				firstErr = err
			}
			fmt.Fprintln(o.Log, err) // already "ledger: ...", like ledger.Writer's errors
		}
	}
	if o.heat != nil {
		if err := o.writeHeat(); err != nil {
			if firstErr == nil {
				firstErr = err
			}
			fmt.Fprintln(o.Log, "heatmap:", err)
		}
	}
	if o.bw != nil {
		if err := o.writeBW(); err != nil {
			if firstErr == nil {
				firstErr = err
			}
			fmt.Fprintln(o.Log, "bw:", err)
		}
	}
	switch *o.metricsFmt {
	case "text":
		fmt.Fprintln(o.Log, "-- metrics --")
		if err := metrics.Default.Snapshot().WriteText(o.Log); err != nil && firstErr == nil {
			firstErr = err
		}
	case "json":
		if err := metrics.Default.Snapshot().WriteJSON(o.Log); err != nil && firstErr == nil {
			firstErr = err
		}
	}
	return firstErr
}

// Exit runs Finish and ends the process with code, or with 1 when code is 0
// and Finish failed: a run whose artifact was not written has failed (the
// runtime class of the 0/1/2 exit contract). Finish has already logged
// which artifact and why.
func (o *Obs) Exit(code int) {
	if err := o.Finish(); err != nil && code == 0 {
		code = 1
	}
	os.Exit(code)
}

func (o *Obs) stopCPUProfile() error {
	pprof.StopCPUProfile()
	f := o.cpuFile
	o.cpuFile = nil
	if err := f.Close(); err != nil {
		return err
	}
	fmt.Fprintf(o.Log, "cpuprofile: written to %s (read with go tool pprof)\n", *o.cpuPath)
	return nil
}

func (o *Obs) closeLedger() error {
	lw, f := o.ledgerW, o.ledgerFile
	o.ledgerW, o.ledgerFile = nil, nil
	if err := lw.Flush(); err != nil {
		f.Close()
		return err
	}
	if err := f.Close(); err != nil {
		return fmt.Errorf("ledger: %w", err)
	}
	fmt.Fprintf(o.Log, "ledger: %d cell(s), %d trial record(s) written to %s (validate with questcheck)\n",
		lw.Cells(), lw.Trials(), *o.ledgerPath)
	return nil
}

func (o *Obs) writeHeat() error {
	f, err := os.Create(*o.heatPath)
	if err != nil {
		return err
	}
	if err := o.heat.WriteJSON(f); err != nil {
		f.Close()
		return err
	}
	if err := f.Close(); err != nil {
		return err
	}
	fmt.Fprintf(o.Log, "heatmap: %d grid(s) written to %s\n", o.heat.Len(), *o.heatPath)
	for _, name := range o.heat.Names() {
		c := o.heat.Lookup(name)
		render, err := chart.Heatmap(c.Defects(), chart.HeatmapOptions{
			Title:  fmt.Sprintf("%s defect births (%d total)", name, c.TotalDefects()),
			Legend: true,
		})
		if err != nil {
			return err
		}
		fmt.Fprintln(o.Log, render)
	}
	return nil
}

func (o *Obs) writeBW() error {
	bw := o.bw
	o.bw = nil
	if *o.bwPath == "-" {
		if err := bw.WriteJSONL(os.Stdout, o.bwExperiment, o.bwConfig); err != nil {
			return err
		}
	} else {
		f, err := os.Create(*o.bwPath)
		if err != nil {
			return err
		}
		if err := bw.WriteJSONL(f, o.bwExperiment, o.bwConfig); err != nil {
			f.Close()
			return err
		}
		if err := f.Close(); err != nil {
			return err
		}
	}
	s := bw.Summary()
	hint := "validate with questcheck"
	if s.Windows == 0 {
		hint += "; no bus traffic: of questbench's experiments only memory drives the buses"
	}
	fmt.Fprintf(o.Log, "bw: %d window(s) over %d cycle(s) written to %s (%s)\n",
		s.Windows, s.Cycles, *o.bwPath, hint)
	wins := bw.WindowBytes()
	if len(wins) == 0 {
		return nil
	}
	vals := make([]float64, len(wins))
	for i, b := range wins {
		vals[i] = float64(b)
	}
	render, err := chart.Waveform(vals, chart.WaveformOptions{
		Title: fmt.Sprintf("bus bytes per %d-cycle window (peak %d B, sustained %.3g B, burstiness %.2f)",
			s.WindowCycles, s.PeakBytes, s.SustainedBytes, s.Burstiness),
		Unit: " B",
	})
	if err != nil {
		return err
	}
	fmt.Fprintln(o.Log, render)
	return nil
}

func (o *Obs) writeTrace() error {
	f, err := os.Create(*o.tracePath)
	if err != nil {
		return err
	}
	if err := tracing.Default.WriteJSON(f); err != nil {
		f.Close()
		return err
	}
	if err := f.Close(); err != nil {
		return err
	}
	fmt.Fprintf(o.Log, "trace: %d event(s) on %d track(s) written to %s (load in ui.perfetto.dev)\n",
		tracing.Default.Len(), len(tracing.Default.Summaries()), *o.tracePath)
	fmt.Fprintln(o.Log, "-- trace summary --")
	return tracing.Default.Summarize(o.Log)
}
