// Package bwprofile is the cycle-resolved instruction-bandwidth profiler:
// a deterministic, nil-gated recorder that buckets every byte and every
// instruction crossing a master/MCE bus into fixed N-cycle windows keyed to
// the machine's cycle clock — never the wall clock — and attributes the
// traffic to µop/instruction classes at the dispatch and cache-replay sites.
//
// Where internal/bandwidth answers "how many bytes total" (run-cumulative
// counters, so only an average rate), this package answers the questions the
// paper's figures actually compare across µcode designs: what was the *peak*
// window, how bursty is the stream (peak/mean), and which instruction
// classes carry the bytes. Peak — not average — bandwidth is the binding
// constraint on the host→control-processor link.
//
// Determinism follows the same discipline as the ledger, heatmap and event
// layers: windows are indexed by machine cycle, the Monte-Carlo engine gives
// each worker a shard made with NewShard and merges the shards (sums, plus a
// max of the cycle count) after the pool drains, and the quest-bw/1 artifact (jsonl.go) carries no wall-clock or worker-count
// fields, so its bytes are identical for any worker count (pinned by
// core's TestMachineMemoryBWPureSideband and cmd/questbench's
// TestMemoryArtifactsAcrossWorkers).
//
// Profiling is a pure side-band. A nil *Recorder is the -bw-off mode: every
// method is a nil-safe no-op, so an ungated call is correct and allocates
// nothing itself (pinned by TestObserveNilAllocs and TestNilGatedMethods).
// The hot-path call sites still gate on the receiver, because a call's
// arguments are built before the nil check inside it runs; the runtime
// allocation pins (TestRunAllocs, TestLaneKernelAllocs, TestIdleCycleAllocs,
// TestNoisyCycleAllocs) hold the off path to its count.
package bwprofile

import (
	"sync"

	"quest/internal/isa"
)

// Schema identifies the quest-bw/1 JSONL layout; bump on incompatible change
// so Validate, and tools/questcheck through it, refuse the old layout.
const Schema = "quest-bw/1"

// DefaultWindow is the window width in machine cycles when the caller does
// not choose one: fine enough to resolve the per-round dispatch bursts the
// paper's waveforms show, coarse enough that a long run stays a few hundred
// windows.
const DefaultWindow = 8

// Bus identifies one metered link in the master/MCE fabric. BusLogical,
// BusCache and BusSyndrome mirror the bandwidth.Counter meters in
// internal/master. BusSync is the paper's sync-token link: no master path
// sends on it, so its quest-bw/1 fields (omitempty) stay absent. BusReplay is
// the MCE-local cache replay path, whose instructions never cross the global
// bus (it is metered with zero bytes — the traffic the cache *saved*).
type Bus uint8

const (
	BusLogical Bus = iota
	BusSync
	BusCache
	BusSyndrome
	BusReplay
	NumBuses
)

var busNames = [NumBuses]string{"logical", "sync", "cache", "syndrome", "replay"}

// String returns the bus's wire name as used in quest-bw/1 records.
func (b Bus) String() string {
	if b >= NumBuses {
		return "invalid"
	}
	return busNames[b]
}

// Class is the µop/instruction class a bus observation is attributed to.
type Class uint8

const (
	ClassPrep     Class = iota // LPREP0, LPREP+
	ClassMeas                  // LMEASZ, LMEASX
	ClassPauli                 // LX, LZ
	ClassClifford              // LH, LS
	ClassT                     // LT
	ClassBraid                 // LCNOT and the mask instructions it expands to
	ClassSync                  // LSYNC tokens
	ClassCache                 // LCLOAD bodies and LCRUN trigger tokens
	ClassSyndrome              // escalated defects on the syndrome bus
	ClassReplay                // cache-replayed body instructions (zero bus bytes)
	NumClasses
)

var classNames = [NumClasses]string{
	"prep", "meas", "pauli", "clifford", "t", "braid", "sync", "cache", "syndrome", "replay",
}

// String returns the class's wire name as used in quest-bw/1 summaries.
func (c Class) String() string {
	if c >= NumClasses {
		return "invalid"
	}
	return classNames[c]
}

// ClassOf maps a logical opcode to its bandwidth class — the attribution the
// master's dispatch site applies to every instruction it puts on a bus.
func ClassOf(op isa.LogicalOpcode) Class {
	switch op {
	case isa.LPrep0, isa.LPrepPlus:
		return ClassPrep
	case isa.LMeasZ, isa.LMeasX:
		return ClassMeas
	case isa.LX, isa.LZ:
		return ClassPauli
	case isa.LH, isa.LS:
		return ClassClifford
	case isa.LT:
		return ClassT
	case isa.LCNOT, isa.LMaskGrow, isa.LMaskShrink, isa.LMaskMove:
		return ClassBraid
	case isa.LSyncToken:
		return ClassSync
	case isa.LCacheLoad, isa.LCacheRun:
		return ClassCache
	}
	// Opcodes outside the known set still occupy bus bytes; braid is the
	// catch-all mask/control class.
	return ClassBraid
}

// winAcc is one window's per-bus accumulation.
type winAcc struct {
	instr [NumBuses]uint64
	bytes [NumBuses]uint64
}

// total returns the window's bus bytes (replay contributes zero by
// construction, so this is exactly the traffic that crossed a wire).
func (w *winAcc) total() uint64 {
	var t uint64
	for _, b := range w.bytes {
		t += b
	}
	return t
}

// Recorder accumulates windowed per-bus traffic and per-class totals. The
// zero-value is not usable; build one with New (or NewShard from a parent).
//
// Concurrency: Observe/Merge/Summary/WriteJSONL are mutex-guarded, so a
// recorder is safe to share between goroutines. The Monte-Carlo engine
// avoids the contention entirely: each worker records into its own shard,
// merged after the pool drains.
type Recorder struct {
	mu         sync.Mutex
	window     int
	wins       []winAcc
	classInstr [NumClasses]uint64
	classBytes [NumClasses]uint64
	cycles     int // highest observed cycle + 1
}

// New builds a recorder bucketing cycles into windowCycles-wide windows
// (DefaultWindow when windowCycles <= 0).
func New(windowCycles int) *Recorder {
	if windowCycles <= 0 {
		windowCycles = DefaultWindow
	}
	return &Recorder{window: windowCycles}
}

// WindowCycles returns the recorder's window width in machine cycles
// (0 on a nil recorder).
func (r *Recorder) WindowCycles() int {
	if r == nil {
		return 0
	}
	return r.window
}

// Observe folds one bus event into the recorder: instrs instructions and
// byteCount bytes seen on bus at the given machine cycle, attributed to
// class. Negative cycles and out-of-range buses/classes are ignored rather
// than panicking — instrumentation must never take down the machine it
// watches. No-op on a nil recorder.
func (r *Recorder) Observe(cycle int, bus Bus, class Class, instrs, byteCount uint64) {
	if r == nil {
		return
	}
	if cycle < 0 || bus >= NumBuses || class >= NumClasses {
		return
	}
	r.mu.Lock()
	idx := cycle / r.window
	for len(r.wins) <= idx {
		r.wins = append(r.wins, winAcc{})
	}
	w := &r.wins[idx]
	w.instr[bus] += instrs
	w.bytes[bus] += byteCount
	r.classInstr[class] += instrs
	r.classBytes[class] += byteCount
	if cycle+1 > r.cycles {
		r.cycles = cycle + 1
	}
	r.mu.Unlock()
}

// NewShard returns a fresh recorder with the same window width, for one
// worker's private accumulation; merge it back with Merge. Returns nil on a
// nil recorder so the off path propagates without branches.
func (r *Recorder) NewShard() *Recorder {
	if r == nil {
		return nil
	}
	return New(r.window)
}

// Merge folds a shard's windows and class totals into r. Merging is
// addition (and a max of the cycle count), so the result is independent of
// merge order and of how trials were split among shards. No-op when either
// side is nil.
func (r *Recorder) Merge(shard *Recorder) {
	if r == nil || shard == nil {
		return
	}
	if shard.window != r.window {
		panic("bwprofile: merging recorders with different window widths")
	}
	r.mu.Lock()
	for len(r.wins) < len(shard.wins) {
		r.wins = append(r.wins, winAcc{})
	}
	for i := range shard.wins {
		for b := Bus(0); b < NumBuses; b++ {
			r.wins[i].instr[b] += shard.wins[i].instr[b]
			r.wins[i].bytes[b] += shard.wins[i].bytes[b]
		}
	}
	for c := Class(0); c < NumClasses; c++ {
		r.classInstr[c] += shard.classInstr[c]
		r.classBytes[c] += shard.classBytes[c]
	}
	if shard.cycles > r.cycles {
		r.cycles = shard.cycles
	}
	r.mu.Unlock()
}

// WindowBytes returns each window's total bus bytes in window order — the
// waveform the chart renderer draws. Nil on a nil or empty recorder.
func (r *Recorder) WindowBytes() []uint64 {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	if len(r.wins) == 0 {
		return nil
	}
	out := make([]uint64, len(r.wins))
	for i := range r.wins {
		out[i] = r.wins[i].total()
	}
	return out
}

// ClassTotal is one instruction class's run-cumulative traffic.
type ClassTotal struct {
	Instrs uint64 `json:"instrs"`
	Bytes  uint64 `json:"bytes"`
}

// Summary is the reduced view of a profile: the peak window, the sustained
// (mean) window load, tail percentiles, burstiness = peak/mean, and the
// per-class totals. All fields derive deterministically from the windows.
type Summary struct {
	WindowCycles int `json:"window_cycles"`
	Windows      int `json:"windows"`
	Cycles       int `json:"cycles"`
	// TotalInstrs counts instructions observed on any bus, including the
	// zero-byte cache replays; TotalBytes is the traffic that actually
	// crossed a wire.
	TotalInstrs uint64 `json:"total_instrs"`
	TotalBytes  uint64 `json:"total_bytes"`
	// PeakWindow is the index of the heaviest window (first on ties);
	// PeakBytes its bus-byte load.
	PeakWindow int    `json:"peak_window"`
	PeakBytes  uint64 `json:"peak_bytes"`
	// SustainedBytes is the mean window load; Burstiness is peak/mean
	// (0 when nothing was observed).
	SustainedBytes float64 `json:"sustained_bytes"`
	P50Bytes       uint64  `json:"p50_bytes"`
	P99Bytes       uint64  `json:"p99_bytes"`
	Burstiness     float64 `json:"burstiness"`
	// Classes holds the non-zero instruction classes by wire name.
	Classes map[string]ClassTotal `json:"classes,omitempty"`
}

// Summary reduces the recorder's windows. Zero value on a nil recorder.
func (r *Recorder) Summary() Summary {
	if r == nil {
		return Summary{}
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	byteTotals := make([]uint64, len(r.wins))
	var instrs uint64
	for i := range r.wins {
		byteTotals[i] = r.wins[i].total()
		for _, n := range r.wins[i].instr {
			instrs += n
		}
	}
	s := summarize(r.window, r.cycles, instrs, byteTotals)
	s.Classes = make(map[string]ClassTotal)
	for c := Class(0); c < NumClasses; c++ {
		if r.classInstr[c] == 0 && r.classBytes[c] == 0 {
			continue
		}
		s.Classes[c.String()] = ClassTotal{Instrs: r.classInstr[c], Bytes: r.classBytes[c]}
	}
	if len(s.Classes) == 0 {
		s.Classes = nil
	}
	return s
}

// summarize computes the window statistics shared by Summary and Validate —
// one code path, so a validator recomputing a summary from the window
// records reproduces the writer's floats exactly.
func summarize(window, cycles int, instrs uint64, byteTotals []uint64) Summary {
	s := Summary{
		WindowCycles: window,
		Windows:      len(byteTotals),
		Cycles:       cycles,
		TotalInstrs:  instrs,
	}
	for i, b := range byteTotals {
		s.TotalBytes += b
		if b > s.PeakBytes {
			s.PeakBytes, s.PeakWindow = b, i
		}
	}
	if len(byteTotals) == 0 {
		return s
	}
	s.SustainedBytes = float64(s.TotalBytes) / float64(len(byteTotals))
	s.P50Bytes = percentile(byteTotals, 50)
	s.P99Bytes = percentile(byteTotals, 99)
	if s.SustainedBytes > 0 {
		s.Burstiness = float64(s.PeakBytes) / s.SustainedBytes
	}
	return s
}

// percentile is the nearest-rank percentile of vals (q in (0, 100]); it
// copies and sorts, leaving vals untouched.
func percentile(vals []uint64, q int) uint64 {
	if len(vals) == 0 {
		return 0
	}
	sorted := append([]uint64(nil), vals...)
	// Insertion sort: window counts are small and this avoids pulling the
	// sort package's interface machinery into the hot-summary path.
	for i := 1; i < len(sorted); i++ {
		for j := i; j > 0 && sorted[j-1] > sorted[j]; j-- {
			sorted[j-1], sorted[j] = sorted[j], sorted[j-1]
		}
	}
	rank := (q*len(sorted) + 99) / 100 // ceil(q/100 * n)
	if rank < 1 {
		rank = 1
	}
	if rank > len(sorted) {
		rank = len(sorted)
	}
	return sorted[rank-1]
}
