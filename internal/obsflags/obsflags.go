// Package obsflags is the shared observability flag wiring for the
// repository's binaries. cmd/questsim and cmd/questbench both expose the
// flags Register installs, and this package keeps their semantics identical
// instead of letting two hand-rolled copies drift. RegisterSweep adds the
// three flags only a Monte-Carlo sweep can honour (-ci-stop, -shard,
// -resume); only cmd/questbench installs them.
//
//	-metrics text|json   dump the default metrics registry to stderr at exit
//	-pprof ADDR          serve net/http/pprof AND Prometheus /metrics on ADDR
//	-trace FILE          record a cycle-correlated event trace and write it
//	                     as Perfetto-loadable Chrome trace-event JSON
//	-trace-buf N         trace ring capacity in events (0 = default 256k)
//	-ledger FILE         stream a schema-versioned run ledger (JSONL): one
//	                     provenance header, one record per trial, one summary
//	                     per sweep cell (validate with tools/questcheck)
//	-progress            render live sweep progress (Wilson CI) on Log
//	-ci-stop W           (sweeps only) stop each sweep cell once its 95%
//	                     Wilson interval is narrower than W (0 < W < 1);
//	                     deterministic for any worker count
//	-heatmap FILE        accumulate spatial defect/matching heatmaps and write
//	                     them as JSON (plus ASCII renders on Log) at exit
//	-shard i/N           (sweeps only) run only the sweep cells owned by
//	                     shard i of N; each shard writes a complete ledger,
//	                     and tools/ledgermerge recombines N of them into the
//	                     1-process bytes
//	-resume FILE         (sweeps only) resume from a partial run ledger:
//	                     completed cells are replayed verbatim, a
//	                     partially-recorded cell's leading trials are fed to
//	                     the engine as prior outcomes, and the rest executes
//	                     normally
//	-events FILE         stream live quest-events/1 telemetry snapshots
//	                     (per-cell progress/rates/ETA, metrics deltas, runtime
//	                     stats) as JSONL to FILE ('-' = stdout); watch one or
//	                     many with tools/questtop
//	-bw FILE             record a cycle-windowed instruction-bandwidth profile
//	                     of every master/MCE bus and write it as a
//	                     quest-bw/1 JSONL artifact ('-' = stdout), plus an
//	                     ASCII waveform on Log; compare runs with
//	                     tools/bwreport
//	-bw-window N         bandwidth profile window width in machine cycles
//	                     (0 = default 8)
//
// At most one of -events and -bw may write to stdout ('-').
//
// With -pprof, the HTTP server additionally serves the live event stream as
// Server-Sent Events on /events and a liveness probe on /healthz.
//
// Lifecycle: Register the flags before flag.Parse, Start after it (and before
// the machine is built, so components resolving tracing.Default see the
// enabled tracer), Finish on the way out.
package obsflags

import (
	"flag"
	"fmt"
	"io"
	"maps"
	"net"
	"net/http"
	"net/http/pprof"
	"os"
	"runtime"
	"strings"
	"sync/atomic"
	"unicode/utf8"

	"quest/internal/bwprofile"
	"quest/internal/chart"
	"quest/internal/events"
	"quest/internal/heatmap"
	"quest/internal/ledger"
	"quest/internal/mc"
	"quest/internal/metrics"
	"quest/internal/tracing"
)

// Obs holds the registered flag values and the running server state.
type Obs struct {
	metricsFmt *string
	pprofAddr  *string
	tracePath  *string
	traceBuf   *int
	ledgerPath *string
	progress   *bool
	ciStop     *float64
	heatPath   *string
	shardSpec  *string
	resumePath *string
	eventsPath *string
	bwPath     *string
	bwWindow   *int

	// shard and resume are the validated flag values, resolved by Start.
	shard  ledger.ShardInfo
	resume *ledger.Resume

	ln  net.Listener
	srv *http.Server

	ledgerFile *os.File
	ledgerW    *ledger.Writer
	heat       *heatmap.Set

	// bcast is the SSE fan-out, created by Start alongside the -pprof server
	// so /events can be registered on the mux before OpenEvents runs; sampler
	// is stored by OpenEvents and read by HTTP handlers at request time,
	// hence the atomic.
	bcast        *events.Broadcaster
	sampler      atomic.Pointer[events.Sampler]
	eventsFile   *os.File
	eventsOpened bool

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
// binaries; a private FlagSet in tests). The sweep-only values read as unset:
// CIStop 0, Shard unsharded, Resume nil.
func Register(fs *flag.FlagSet) *Obs {
	return &Obs{
		metricsFmt: fs.String("metrics", "", "dump the metrics registry at exit: 'text' or 'json'"),
		pprofAddr: fs.String("pprof", "",
			"serve net/http/pprof and Prometheus /metrics on this address (e.g. localhost:6060)"),
		tracePath: fs.String("trace", "",
			"write a cycle-correlated Perfetto trace (Chrome trace-event JSON) to this file"),
		traceBuf: fs.Int("trace-buf", 0,
			fmt.Sprintf("trace ring capacity in events (0 = %d)", tracing.DefaultCapacity)),
		ledgerPath: fs.String("ledger", "",
			"stream a run ledger (JSONL: header, per-trial, per-cell records) to this file"),
		progress: fs.Bool("progress", false,
			"render live sweep progress with Wilson confidence intervals on stderr"),
		ciStop: new(float64),
		heatPath: fs.String("heatmap", "",
			"write spatial defect/matching heatmaps as JSON to this file at exit"),
		shardSpec:  new(string),
		resumePath: new(string),
		eventsPath: fs.String("events", "",
			"stream live quest-events/1 telemetry snapshots as JSONL to this file ('-' = stdout); watch with tools/questtop"),
		bwPath: fs.String("bw", "",
			"record a cycle-windowed instruction-bandwidth profile and write it as quest-bw/1 JSONL to this file ('-' = stdout); compare with tools/bwreport"),
		bwWindow: fs.Int("bw-window", 0,
			fmt.Sprintf("bandwidth profile window width in machine cycles (0 = %d)", bwprofile.DefaultWindow)),
		Log: os.Stderr,
	}
}

// RegisterSweep installs the shared flags plus the sweep-only -ci-stop,
// -shard and -resume on fs, for binaries that run Monte-Carlo sweeps.
func RegisterSweep(fs *flag.FlagSet) *Obs {
	o := Register(fs)
	o.ciStop = fs.Float64("ci-stop", 0,
		"stop each sweep cell once its 95% Wilson interval is narrower than this width (0 = fixed budget)")
	o.shardSpec = fs.String("shard", "",
		"run shard i of N ('i/N', e.g. 0/2): only the sweep cells with global index ≡ i (mod N); merge the shard ledgers with tools/ledgermerge")
	o.resumePath = fs.String("resume", "",
		"resume from this partial run ledger: replay its completed cells and trials, execute only the rest")
	return o
}

// TraceEnabled reports whether -trace was given.
func (o *Obs) TraceEnabled() bool { return *o.tracePath != "" }

// MetricsFormat returns the -metrics value ("", "text" or "json").
func (o *Obs) MetricsFormat() string { return *o.metricsFmt }

// ShardReg returns the registry Monte-Carlo drivers should aggregate
// per-worker shards into: metrics.Default when -metrics (or -pprof, which
// serves the registry live, or -events, whose snapshots carry registry
// deltas) is requested, nil otherwise so the metrics-off path stays
// allocation-free.
func (o *Obs) ShardReg() *metrics.Registry {
	if *o.metricsFmt != "" || *o.pprofAddr != "" || *o.eventsPath != "" {
		return metrics.Default
	}
	return nil
}

// Tracer returns the process tracer (nil when tracing is off). Valid after
// Start.
func (o *Obs) Tracer() *tracing.Tracer { return tracing.Default }

// CIStop returns the -ci-stop width (0 = adaptive stopping off). Validated
// by Start.
func (o *Obs) CIStop() float64 { return *o.ciStop }

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

// Shard returns the validated -shard value (the zero ShardInfo when
// unsharded). Valid after Start.
func (o *Obs) Shard() ledger.ShardInfo { return o.shard }

// Resume returns the parsed -resume checkpoint (nil when off). Valid after
// Start, which reads the whole file into memory — so -resume and -ledger may
// name the same path: the checkpoint is consumed before OpenLedger truncates
// it.
func (o *Obs) Resume() *ledger.Resume { return o.resume }

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
	if o.resume != nil {
		// The checkpoint must describe the run being resumed: same experiment,
		// same flag provenance. Cell-level seed checks (core.SweepObs.Resume)
		// catch deeper mismatches; this catches the obvious ones up front.
		h := o.resume.Header()
		if h.Experiment != experiment {
			return nil, fmt.Errorf("ledger: -resume checkpoint is from experiment %q, this run is %q", h.Experiment, experiment)
		}
		if !maps.Equal(h.Config, config) {
			return nil, fmt.Errorf("ledger: -resume checkpoint config %v does not match this run's %v — rerun with the original flags", h.Config, config)
		}
	}
	f, err := os.Create(*o.ledgerPath)
	if err != nil {
		return nil, fmt.Errorf("ledger: %w", err)
	}
	lw, err := ledger.NewWriter(f, experiment, config, o.shard)
	if err != nil {
		f.Close()
		return nil, fmt.Errorf("ledger: %w", err)
	}
	o.ledgerFile, o.ledgerW = f, lw
	return lw, nil
}

// SweepProgress returns the cell-labelled live progress sink for -progress
// and/or -events (nil when both are off). With -progress, snapshots
// overwrite one status line per cell on Log and the Done snapshot finishes
// the line; with events, every snapshot also feeds the telemetry sampler.
// The stream reflects live completion order and is display only —
// ledger/heatmap/row contents stay deterministic.
func (o *Obs) SweepProgress() func(cell string, p mc.Progress) {
	if !*o.progress && !o.EventsEnabled() {
		return nil
	}
	// lastLen is the rune width of the last in-place status line: a shorter
	// line would otherwise leave the tail of its longer predecessor on
	// screen after the \r overwrite, so render pads to the previous width.
	// Cells run sequentially and progressState serializes emits, so a plain
	// closure variable suffices.
	lastLen := 0
	return func(cell string, p mc.Progress) {
		if smp := o.sampler.Load(); smp != nil {
			smp.ObserveCell(cell, p) // pure side-band; free when events off
		}
		if !*o.progress {
			return
		}
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

// EventsEnabled reports whether live telemetry sampling is on: -events
// writes the stream to a file, and -pprof serves it over SSE on /events —
// either one activates the sampler.
func (o *Obs) EventsEnabled() bool { return *o.eventsPath != "" || *o.pprofAddr != "" }

// Events returns the live telemetry sampler (nil when events are off, which
// every sampler method treats as a no-op). Valid after OpenEvents; binaries
// with non-sweep progress (questsim's cycle loop) feed it directly via
// ObserveCell.
func (o *Obs) Events() *events.Sampler { return o.sampler.Load() }

// OpenEvents starts the live telemetry sampler: it writes the quest-events/1
// provenance header (stamping the run's shard identity) and begins emitting
// periodic snapshots to the -events file and/or the /events SSE feed. No-op
// when EventsEnabled is false. Call once, after Start and before the sweep;
// Finish emits the final snapshot and closes the file.
func (o *Obs) OpenEvents(experiment string, config map[string]string) error {
	if !o.EventsEnabled() {
		return nil
	}
	if o.eventsOpened {
		return fmt.Errorf("events: OpenEvents called twice")
	}
	var w io.Writer
	switch *o.eventsPath {
	case "":
		// -pprof without -events: SSE-only stream, no file.
	case "-":
		w = os.Stdout
	default:
		f, err := os.Create(*o.eventsPath)
		if err != nil {
			return fmt.Errorf("events: %w", err)
		}
		o.eventsFile = f
		w = f
	}
	smp := events.NewSampler(events.NewWriter(w, o.bcast), o.ShardReg())
	smp.SetBW(o.bw) // nil when -bw is off; snapshots then omit the BW section
	host, _ := os.Hostname()
	h := events.Header{
		Experiment: experiment,
		GoVersion:  runtime.Version(),
		Host:       host,
		PID:        os.Getpid(),
		ShardIndex: o.shard.Index,
		ShardCount: o.shard.Count,
		Config:     config,
	}
	if err := smp.Start(h, 0); err != nil {
		if o.eventsFile != nil {
			o.eventsFile.Close()
			o.eventsFile = nil
		}
		return err
	}
	o.eventsOpened = true
	o.sampler.Store(smp)
	return nil
}

// closeEvents stops the sampler (emitting the final snapshot) and closes
// the -events file.
func (o *Obs) closeEvents() error {
	smp := o.sampler.Load()
	o.sampler.Store(nil)
	var err error
	snaps := 0
	if smp != nil {
		err = smp.Stop()
		snaps = smp.Snapshots()
	}
	if f := o.eventsFile; f != nil {
		o.eventsFile = nil
		if cerr := f.Close(); err == nil {
			err = cerr
		}
		if err == nil {
			fmt.Fprintf(o.Log, "events: %d snapshot(s) written to %s (watch with questtop)\n",
				snaps, *o.eventsPath)
		}
	}
	return err
}

// Addr returns the observability server's listen address ("" when -pprof is
// off). Useful in tests, which pass -pprof 127.0.0.1:0.
func (o *Obs) Addr() string {
	if o.ln == nil {
		return ""
	}
	return o.ln.Addr().String()
}

// Start validates the flag values, enables tracing.Default when -trace was
// given, and starts the pprof + /metrics HTTP server when -pprof was given.
func (o *Obs) Start() error {
	switch *o.metricsFmt {
	case "", "text", "json":
	default:
		return fmt.Errorf("unknown -metrics format %q (want 'text' or 'json')", *o.metricsFmt)
	}
	if *o.ciStop < 0 || *o.ciStop >= 1 {
		return fmt.Errorf("-ci-stop %v out of range: want a Wilson interval width in (0, 1), or 0 to disable", *o.ciStop)
	}
	if *o.traceBuf < 0 {
		return fmt.Errorf("-trace-buf %d out of range: want a ring capacity in events, or 0 for the default %d", *o.traceBuf, tracing.DefaultCapacity)
	}
	if *o.bwWindow < 0 {
		return fmt.Errorf("-bw-window %d out of range: want a window width in machine cycles, or 0 for the default %d", *o.bwWindow, bwprofile.DefaultWindow)
	}
	if *o.eventsPath == "-" && *o.bwPath == "-" {
		// Both artifacts are line-oriented JSONL on their own schema; two
		// writers interleaving on one stdout would corrupt both.
		return fmt.Errorf("-events - and -bw - both claim stdout: at most one stream may write to '-', give the other a file path")
	}
	shard, err := ledger.ParseShardSpec(*o.shardSpec)
	if err != nil {
		return fmt.Errorf("-shard: %w", err)
	}
	o.shard = shard
	if *o.resumePath != "" {
		if *o.heatPath != "" {
			// Heat statistics are not recorded in the ledger, so a resumed
			// run cannot reconstruct the skipped trials' contributions — the
			// heatmap would silently undercount.
			return fmt.Errorf("-resume cannot be combined with -heatmap: the ledger does not record heat, so replayed cells would be missing from it")
		}
		data, err := os.ReadFile(*o.resumePath)
		if err != nil {
			return fmt.Errorf("-resume: %w", err)
		}
		res, err := ledger.NewResume(data)
		if err != nil {
			return fmt.Errorf("-resume %s: %w", *o.resumePath, err)
		}
		h := res.Header()
		if got := (ledger.ShardInfo{Index: h.ShardIndex, Count: h.ShardCount}); got != o.shard {
			return fmt.Errorf("-resume %s: checkpoint is shard %q but this run is shard %q — resume each shard's ledger under its own -shard flag",
				*o.resumePath, specOrUnsharded(got), specOrUnsharded(o.shard))
		}
		complete, partial := res.Counts()
		fmt.Fprintf(o.Log, "resume: %s holds %d completed cell(s) and %d partial cell(s)", *o.resumePath, complete, partial)
		if res.Truncated() {
			fmt.Fprint(o.Log, " (torn final line dropped)")
		}
		fmt.Fprintln(o.Log)
		o.resume = res
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
	if *o.pprofAddr != "" {
		ln, err := net.Listen("tcp", *o.pprofAddr)
		if err != nil {
			return fmt.Errorf("pprof server: %w", err)
		}
		mux := http.NewServeMux()
		mux.HandleFunc("/debug/pprof/", pprof.Index)
		mux.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
		mux.HandleFunc("/debug/pprof/profile", pprof.Profile)
		mux.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
		mux.HandleFunc("/debug/pprof/trace", pprof.Trace)
		mux.Handle("/metrics", metrics.Handler(metrics.Default))
		// The SSE feed and liveness probe ride the same server. The
		// broadcaster exists from here so /events subscribers connected
		// before OpenEvents still get the header when the stream starts;
		// /healthz resolves the sampler per request (it is stored later).
		o.bcast = events.NewBroadcaster()
		mux.Handle("/events", o.bcast)
		mux.HandleFunc("/healthz", func(w http.ResponseWriter, r *http.Request) {
			events.Healthz(o.sampler.Load()).ServeHTTP(w, r)
		})
		o.ln = ln
		o.srv = &http.Server{Handler: mux}
		go func() {
			if err := o.srv.Serve(ln); err != nil && err != http.ErrServerClosed {
				fmt.Fprintln(o.Log, "pprof server:", err)
			}
		}()
		fmt.Fprintf(o.Log, "observability: serving pprof, /metrics, /events and /healthz on http://%s/\n", o.Addr())
	}
	return nil
}

// Finish flushes everything the flags asked for: the trace file (plus a
// per-track busy/stall/idle summary on Log), the ledger, the heatmap JSON
// (plus ASCII defect-density renders on Log), the quest-bw/1 bandwidth
// profile (plus an ASCII waveform on Log), the metrics dump, and the HTTP
// server shutdown. Safe to call when nothing was enabled.
func (o *Obs) Finish() error {
	var firstErr error
	if o.resume != nil {
		if left := o.resume.Unconsumed(); len(left) > 0 {
			fmt.Fprintf(o.Log, "resume: warning: %d recorded cell(s) were never reached by this run (%q) — the checkpoint is from a different invocation and they were not carried forward\n",
				len(left), left)
		}
	}
	if o.eventsOpened {
		o.eventsOpened = false
		// Stop the sampler first so the stream's final snapshot captures the
		// cells' terminal state before anything else is torn down.
		if err := o.closeEvents(); err != nil {
			firstErr = err
			fmt.Fprintln(o.Log, "events:", err)
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
			fmt.Fprintln(o.Log, "ledger:", err)
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
	if o.srv != nil {
		if err := o.srv.Close(); err != nil && firstErr == nil {
			firstErr = err
		}
		o.srv, o.ln = nil, nil
	}
	return firstErr
}

func (o *Obs) closeLedger() error {
	lw, f := o.ledgerW, o.ledgerFile
	o.ledgerW, o.ledgerFile = nil, nil
	if err := lw.Flush(); err != nil {
		f.Close()
		return err
	}
	if err := f.Close(); err != nil {
		return err
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
	fmt.Fprintf(o.Log, "bw: %d window(s) over %d cycle(s) written to %s (compare with bwreport)\n",
		s.Windows, s.Cycles, *o.bwPath)
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

// specOrUnsharded renders a ShardInfo for error messages ("unsharded"
// instead of the empty string).
func specOrUnsharded(s ledger.ShardInfo) string {
	if !s.Sharded() {
		return "unsharded"
	}
	return s.String()
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
