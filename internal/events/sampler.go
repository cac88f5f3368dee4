package events

import (
	"runtime"
	"sort"
	"sync"
	"time"

	"quest/internal/bwprofile"
	"quest/internal/mc"
	"quest/internal/metrics"
)

// DefaultInterval is the sampling period when the caller does not choose
// one: fast enough that questtop feels live, slow enough that a snapshot's
// cost (one ReadMemStats + one registry walk + one JSON marshal) is noise
// next to the trial loop it watches.
const DefaultInterval = 250 * time.Millisecond

// wallClock is the telemetry side-band's single real-clock source; the
// sampler's injectable now() defaults to it. Timestamps, rates and ETAs
// derive from here and land only in the event stream — never in seeds,
// simulated time, or any deterministic artifact.
func wallClock() time.Time {
	return time.Now() //quest:allow(seedsrc) telemetry timestamps only; the value never reaches simulation state
}

// cellState is the sampler's view of one sweep cell: the latest progress
// plus the completion count and timestamp of the previous emitted snapshot,
// from which the per-interval trial rate derives.
type cellState struct {
	p             mc.Progress
	lastCompleted int
	lastAt        time.Time
	rate          float64 // trials/sec over the last sampling interval
}

// Sampler turns the engine's push-style progress stream into periodic
// telemetry snapshots. A nil *Sampler is the events-off mode: every method
// is a nil-gated no-op, so call sites stay unconditional and the off path
// adds zero allocations (pinned by TestObserveCellNilAllocs; enforced
// structurally by the gateflow analyzer, which lists Sampler as a tracked
// observer type).
type Sampler struct {
	w   *Writer
	reg *metrics.Registry // nil when the run has no live registry

	// now is the clock; tests inject a fake to pin exact rates and ETAs.
	now func() time.Time

	mu    sync.Mutex
	cells map[string]*cellState
	names []string // sorted cell names, maintained incrementally
	seq   int
	prev  metrics.Snapshot
	start time.Time
	bw    *bwprofile.Recorder // nil when the run is not profiling bandwidth

	ticker *time.Ticker
	stop   chan struct{}
	done   chan struct{}
	// tickErr latches the first write error from the ticker goroutine
	// (which has no caller to return it to); Stop surfaces it.
	tickErr error
}

// NewSampler builds a sampler writing snapshots through w, with metrics
// deltas from reg (nil for none). Call Start to write the header and begin
// ticking, then Stop to flush the final snapshot.
func NewSampler(w *Writer, reg *metrics.Registry) *Sampler {
	return &Sampler{
		w:     w,
		reg:   reg,
		now:   wallClock,
		cells: make(map[string]*cellState),
	}
}

// SetBW attaches the run's bandwidth recorder: every snapshot then carries
// the recorder's cumulative per-bus totals and mean byte rates (Snapshot.BW)
// so questtop can show fleet bandwidth live. Call before Start; nil detaches.
// No-op on a nil sampler.
func (s *Sampler) SetBW(r *bwprofile.Recorder) {
	if s == nil {
		return
	}
	s.mu.Lock()
	s.bw = r
	s.mu.Unlock()
}

// Start writes the stream header (stamping StartMs from the sampler's
// clock) and launches the ticker goroutine that emits a snapshot every
// interval (DefaultInterval when interval <= 0). No-op on a nil sampler.
func (s *Sampler) Start(h Header, interval time.Duration) error {
	if s == nil {
		return nil
	}
	if interval <= 0 {
		interval = DefaultInterval
	}
	s.mu.Lock()
	s.start = s.now()
	h.StartMs = s.start.UnixMilli()
	if s.reg != nil {
		s.prev = s.reg.Snapshot()
	}
	s.mu.Unlock()
	if err := s.w.WriteHeader(h); err != nil {
		return err
	}
	s.ticker = time.NewTicker(interval)
	s.stop = make(chan struct{})
	s.done = make(chan struct{})
	go func() {
		defer close(s.done)
		for {
			select {
			case <-s.ticker.C:
				if err := s.Sample(); err != nil {
					s.mu.Lock()
					if s.tickErr == nil {
						s.tickErr = err
					}
					s.mu.Unlock()
				}
			case <-s.stop:
				return
			}
		}
	}()
	return nil
}

// ObserveCell folds one progress update into the sampler's live cell table.
// It is the per-cell adapter for mc.Observers.Progress and questsim's cycle
// loop; calls are cheap (one mutex, no allocation after a cell's first
// update) and safe from worker goroutines. No-op on a nil sampler.
func (s *Sampler) ObserveCell(cell string, p mc.Progress) {
	if s == nil {
		return
	}
	s.mu.Lock()
	cs := s.cells[cell]
	if cs == nil {
		cs = &cellState{lastAt: s.now()}
		s.cells[cell] = cs
		s.insertName(cell)
	}
	cs.p = p
	s.mu.Unlock()
}

// insertName keeps names sorted as cells appear (called with mu held).
// Sweeps touch cells mostly in name order, so the common insert is an
// append; the sorted order is what makes snapshot bytes independent of
// map iteration.
func (s *Sampler) insertName(cell string) {
	i := len(s.names)
	for i > 0 && s.names[i-1] > cell {
		i--
	}
	s.names = append(s.names, "")
	copy(s.names[i+1:], s.names[i:])
	s.names[i] = cell
}

// Sample emits one snapshot now: per-cell progress with rates and ETAs in
// sorted cell order, metrics deltas since the previous snapshot, and
// runtime stats. Exported so Stop and tests can force a final/deterministic
// emission; the ticker calls it on every tick. No-op on a nil sampler.
func (s *Sampler) Sample() error {
	if s == nil {
		return nil
	}
	s.mu.Lock()
	now := s.now()
	s.seq++
	snap := Snapshot{
		Seq:   s.seq,
		Ms:    now.Sub(s.start).Milliseconds(),
		Cells: make([]CellProgress, 0, len(s.names)),
	}
	for _, name := range s.names {
		cs := s.cells[name]
		dt := now.Sub(cs.lastAt).Seconds()
		if dt > 0 {
			cs.rate = float64(cs.p.Completed-cs.lastCompleted) / dt
			cs.lastCompleted = cs.p.Completed
			cs.lastAt = now
		}
		cp := CellProgress{
			Cell:       name,
			Completed:  cs.p.Completed,
			Budget:     cs.p.Budget,
			Failures:   cs.p.Failures,
			WilsonLo:   cs.p.WilsonLo,
			WilsonHi:   cs.p.WilsonHi,
			RatePerSec: cs.rate,
			Done:       cs.p.Done,
		}
		if !cp.Done && cp.Budget > cp.Completed && cs.rate > 0 {
			cp.EtaMs = int64(float64(cp.Budget-cp.Completed) / cs.rate * 1000)
		}
		snap.Cells = append(snap.Cells, cp)
	}
	if s.bw != nil {
		elapsed := now.Sub(s.start).Seconds()
		for _, bt := range s.bw.Totals() {
			if bt.Instrs == 0 && bt.Bytes == 0 {
				continue
			}
			br := BusRate{Bus: bt.Bus.String(), Instrs: bt.Instrs, Bytes: bt.Bytes}
			if elapsed > 0 {
				br.RatePerSec = float64(bt.Bytes) / elapsed
			}
			snap.BW = append(snap.BW, br)
		}
		// Totals come back in bus enum order; the stream invariant (and what
		// keeps snapshot bytes stable if the enum is ever reordered) is name
		// order.
		sort.Slice(snap.BW, func(i, j int) bool { return snap.BW[i].Bus < snap.BW[j].Bus })
	}
	if s.reg != nil {
		cur := s.reg.Snapshot()
		d := cur.Delta(s.prev)
		s.prev = cur
		if len(d.Counters)+len(d.Gauges)+len(d.Histograms) > 0 {
			snap.Deltas = &d
		}
	}
	s.mu.Unlock()

	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	snap.Runtime = RuntimeStats{
		HeapBytes:  ms.HeapAlloc,
		Goroutines: runtime.NumGoroutine(),
		NumGC:      ms.NumGC,
	}
	return s.w.WriteSnapshot(snap)
}

// Stop halts the ticker and emits one final snapshot so the stream always
// ends with the cells' terminal state. Safe to call once after Start (or
// on a sampler never started, or nil — both no-ops).
func (s *Sampler) Stop() error {
	if s == nil {
		return nil
	}
	if s.ticker == nil {
		return nil
	}
	s.ticker.Stop()
	close(s.stop)
	<-s.done
	s.ticker = nil
	if err := s.Sample(); err != nil {
		return err
	}
	// Surface any write error the ticker goroutine latched: a truncated
	// stream must fail the run, not validate downstream.
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.tickErr
}

// Snapshots reports how many snapshot records the sampler has written
// (0 on a nil sampler).
func (s *Sampler) Snapshots() int {
	if s == nil {
		return 0
	}
	return s.w.Snapshots()
}
