// Package mce implements the Micro-coded Control Engine of §4: the per-tile
// hardware unit that replays QECC microcode autonomously, executes logical
// instructions delivered by the master controller through its instruction
// pipeline, arbitrates between the two via the mask table, performs local
// error decoding with a lookup table, and (§5.3) replays cached logical
// instruction loops — the distillation bodies — from its software-managed
// instruction cache.
//
// The model is cycle-stepped at QECC-cycle granularity: StepCycle replays
// one complete error-correction cycle (Depth lock-step sub-cycles), overlays
// any due logical work, fires the execution unit, collects syndromes and
// decodes locally. No instruction ever reaches the quantum substrate from
// anywhere but the microcode and logical-µop pipelines, and the QECC cadence
// never stalls on logical traffic — the two invariants the paper's
// determinism argument rests on.
package mce

import (
	"errors"
	"fmt"
	"math/bits"
	"math/rand"
	"time"

	"quest/internal/awg"
	"quest/internal/bwprofile"
	"quest/internal/clifford"
	"quest/internal/compiler"
	"quest/internal/decoder"
	"quest/internal/heatmap"
	"quest/internal/isa"
	"quest/internal/metrics"
	"quest/internal/microcode"
	"quest/internal/noise"
	"quest/internal/surface"
	"quest/internal/tracing"
)

// instr bundles the MCE's instruments, resolved once per engine so StepCycle
// never touches the registry lock.
type instr struct {
	tallied
	cacheHits  *metrics.Counter
	cacheLoads *metrics.Counter
	stalledT   *metrics.Counter
	cycleNs    *metrics.Histogram
	bufferPeak *metrics.Gauge
}

// tallied is the part of instr a Tally adds to: six counters.
type tallied struct {
	cycles           *metrics.Counter
	microOps         *metrics.Counter
	logicalRetired   *metrics.Counter
	logicalEnqueued  *metrics.Counter
	defectsLocal     *metrics.Counter
	defectsEscalated *metrics.Counter
}

func newTallied(r *metrics.Registry) tallied {
	return tallied{
		cycles:           r.Counter("mce.cycles"),
		microOps:         r.Counter("mce.microops"),
		logicalRetired:   r.Counter("mce.logical.retired"),
		logicalEnqueued:  r.Counter("mce.logical.enqueued"),
		defectsLocal:     r.Counter("mce.defects.local"),
		defectsEscalated: r.Counter("mce.defects.escalated"),
	}
}

func newInstr(r *metrics.Registry) *instr {
	return &instr{
		tallied:    newTallied(r),
		cacheHits:  r.Counter("mce.cache.hits"),
		cacheLoads: r.Counter("mce.cache.loads"),
		stalledT:   r.Counter("mce.stalled.t"),
		cycleNs:    r.Histogram("mce.cycle.ns", nil),
		bufferPeak: r.Gauge("mce.buffer.peak"),
	}
}

// Config assembles an MCE.
type Config struct {
	Design   microcode.Design
	Schedule surface.Schedule
	Layout   compiler.Layout
	// Noise is the substrate noise model; nil means noiseless.
	Noise *noise.Model
	// Seed drives both the substrate's measurement randomness and the noise
	// injector, making whole-machine runs reproducible.
	Seed int64
	// CacheSlots is the number of logical-instruction cache slots (0
	// disables the cache).
	CacheSlots int
	// Timing, when non-nil, enables wall-clock accounting with the given
	// per-operation latencies (Table 1).
	Timing *awg.Timing
	// BufferCapacity bounds the instruction buffer (0 = unbounded). A full
	// buffer rejects Enqueue; the master's flow control must respect
	// FreeBufferSlots. QECC replay is never affected — that is the point.
	BufferCapacity int
	// Metrics selects the registry the engine's instruments record into
	// (nil = metrics.Default). Monte-Carlo workers pass per-worker shards so
	// parallel trials never contend on shared counters. When both are nil —
	// a binary run without -metrics — the instruments are off: nothing
	// records, and StepCycle reads no clock.
	Metrics *metrics.Registry
	// Tracer, when non-nil, records cycle-correlated events (per-cycle
	// busy/stall/idle spans, cache fills and replays, local decode activity)
	// for Perfetto export. Nil falls back to tracing.Default, which is itself
	// nil — tracing fully off, zero-alloc — unless a binary enabled it.
	Tracer *tracing.Tracer
	// TileID labels this engine's trace track (the master's tile index);
	// purely observational.
	TileID int
	// Heat, when non-nil, records each defect the syndrome history births at
	// its lattice site. Tiles resolve a collector per lattice shape, so
	// same-shape tiles accumulate into one grid. Nil (the default) keeps
	// defect extraction allocation-free.
	Heat *heatmap.Set
	// BW, when non-nil, records cache-replayed instructions (the traffic the
	// MCE-local cache keeps off the global bus — replayed instrs, zero bus
	// bytes) into the cycle-windowed bandwidth profile. Nil (the default)
	// keeps the replay path allocation-free.
	BW *bwprofile.Recorder
}

// CycleReport summarizes one StepCycle.
type CycleReport struct {
	Cycle          int
	MicroOpsIssued int
	LogicalRetired int
	Measurements   int
	DefectsLocal   int // defects resolved by the LUT decoder
	// DefectsEscalated is the engine's scratch, valid until its next
	// StepCycle: the master decodes it within the machine cycle.
	DefectsEscalated []decoder.Defect
	LogicalResults   []LogicalResult
}

// LogicalResult is a completed logical measurement.
type LogicalResult struct {
	Patch int
	Bit   int
}

// patchSets are one patch's qubit sets, read-only once New builds them.
type patchSets struct {
	qubits             []int // every site of the patch
	ancillas           []int // its syndrome qubits
	logicalX, logicalZ []int // its logical operator supports
}

// cacheSlot is a loaded cache body and its split by replay-queue lane.
type cacheSlot struct {
	body  []isa.LogicalInstr
	lanes []bodyLane
}

// braid tracks an in-flight logical CNOT: its mask steps, shared with
// MCE.braidPaths, the index of the next one, and the patches it occupies.
type braid struct {
	steps     []surface.BraidStep
	next      int
	ctrl, tgt int
}

// MCE is one engine instance.
type MCE struct {
	cfg   Config
	store *microcode.Store
	mask  *surface.Mask
	// baseMask is the rest state: the gap sites between patches are
	// permanently masked so each patch is an isolated planar code (gap
	// stabilizers would anticommute with the per-patch logical operators).
	// Braids temporarily deviate from it and restore it.
	baseMask *surface.Mask

	tableau *clifford.Tableau
	inj     *noise.Injector
	unit    *awg.ExecutionUnit
	// overlaid is the first sub-cycle of a cycle that carries a logical
	// overlay: the store's replay words are shared, so the overlay is
	// applied to this copy of word 0 instead.
	overlaid isa.VLIW
	// compiled holds the store's expansion compiled for the unit, one word
	// per sub-cycle, and compiledFrom the expansion it was compiled from.
	// ReplayCycle returns that same slice while the mask is unchanged, and
	// holding it means a new expansion always has a new address.
	compiled     []*awg.Word
	compiledFrom []isa.VLIW
	// memo replays the compiled expansion's plain cycles from their signs.
	memo memo

	patches []patchSets
	// dataMask marks the lattice's data qubits, 64 a word: their
	// measurements belong to the data round, the others' to the syndrome.
	dataMask []uint64
	// braidPaths[c*NumPatches+t] is the mask walk of a braided CNOT from
	// patch c to patch t, built once: the layout is fixed.
	braidPaths [][]surface.BraidStep

	hist  *decoder.SyndromeHistory
	local *decoder.LocalDecoder
	frame *decoder.PauliFrame
	// resolved and residual are the local decode's output scratch.
	resolved []decoder.Correction
	residual []decoder.Defect

	// Instruction pipeline: the buffer holds what the master sent, replayQ
	// what the cache replays; both are keyed by the patches an instruction
	// names.
	buffer    queue
	cache     map[int]cacheSlot
	replayQ   queue
	braids    []braid
	busyPatch map[int]bool
	// usedPatch marks the patches an instruction claimed or blocked in the
	// cycle being issued. Target and Arg are bytes, so it covers every
	// patch number a queued instruction can name, in the tile or not.
	usedPatch [256]bool

	magicStates int

	in  *instr
	tr  *tracing.Tracer
	bw  *bwprofile.Recorder
	tid int

	cycle          int
	microOps       uint64
	logicalRetired uint64
	cacheHits      uint64
	cacheLoads     uint64
	stalledT       uint64

	// measured marks the qubits the in-flight cycle measured and outcomes
	// holds their bits, 64 qubits a word: the syndrome round is measured
	// outside dataMask, the data round inside it. synd is the syndrome
	// round's mask, the history's input.
	measured, outcomes, synd []uint64
	// patches with an outstanding transverse measurement this cycle; the
	// value records the basis (true = X).
	measuring map[int]bool
	// regions masked for a single-cycle transverse op, restored after the
	// cycle's stream has been built.
	pendingUnmask []region
}

// New builds an MCE per the config. The microcode store is programmed once
// here; from then on QECC replays without external instruction supply.
func New(cfg Config) *MCE {
	if cfg.CacheSlots < 0 {
		panic(fmt.Sprintf("mce: negative cache slots %d", cfg.CacheSlots))
	}
	reg := cfg.Metrics
	if reg == nil {
		reg = metrics.Default
	}
	tr := cfg.Tracer
	if tr == nil {
		tr = tracing.Default
	}
	lat := cfg.Layout.Lat
	words := (lat.NumQubits() + 63) / 64
	m := &MCE{
		cfg:      cfg,
		store:    microcode.NewStore(cfg.Design, cfg.Schedule, lat),
		baseMask: RestMask(cfg.Layout),

		tableau:  clifford.New(lat.NumQubits(), rand.New(rand.NewSource(cfg.Seed))),
		overlaid: isa.NewVLIW(lat.NumQubits()),
		compiled: make([]*awg.Word, cfg.Schedule.Depth),
		patches:  newPatchSets(cfg.Layout),
		dataMask: make([]uint64, words),

		hist:  decoder.NewHistory(lat),
		local: decoder.NewLocalDecoder(lat),
		frame: decoder.NewPauliFrame(),

		buffer:    newQueue(),
		cache:     make(map[int]cacheSlot),
		replayQ:   newQueue(),
		busyPatch: make(map[int]bool),

		in:  newInstr(reg),
		tr:  tr,
		bw:  cfg.BW,
		tid: cfg.TileID,

		measured:  make([]uint64, words),
		outcomes:  make([]uint64, words),
		synd:      make([]uint64, words),
		measuring: make(map[int]bool),
	}
	for s := range m.compiled {
		m.compiled[s] = awg.NewWord(lat.NumQubits())
	}
	m.memo = newMemo(m.tableau)
	for q := 0; q < lat.NumQubits(); q++ {
		if lat.RoleOf(q) == surface.RoleData {
			m.dataMask[q>>6] |= 1 << (q & 63)
		}
	}
	np := cfg.Layout.NumPatches()
	m.braidPaths = make([][]surface.BraidStep, np*np)
	for c := 0; c < np; c++ {
		for t := 0; t < np; t++ {
			if c != t {
				m.braidPaths[c*np+t] = compiler.BraidForCNOT(cfg.Layout, c, t)
			}
		}
	}
	// A braid keeps both its patches busy, so at most np/2 are in flight.
	m.braids = make([]braid, 0, np/2)
	if cfg.Noise != nil {
		m.inj = noise.NewInjector(*cfg.Noise, cfg.Seed+1)
	}
	if cfg.Heat != nil {
		m.hist.SetHeat(cfg.Heat.Collector(heatmap.GridName(lat.Rows, lat.Cols), lat.Rows, lat.Cols))
	}
	m.mask = m.baseMask.Clone()
	m.unit = awg.New(m.tableau, m.inj)
	m.unit.MeasSink = m.sinkMeasurement
	if cfg.Timing != nil {
		m.unit.SetTiming(*cfg.Timing)
	}
	return m
}

func newPatchSets(lay compiler.Layout) []patchSets {
	sets := make([]patchSets, lay.NumPatches())
	for p := range sets {
		ps := &sets[p]
		ps.qubits = lay.PatchQubits(p)
		for _, q := range ps.qubits {
			if lay.Lat.RoleOf(q) != surface.RoleData {
				ps.ancillas = append(ps.ancillas, q)
			}
		}
		ps.logicalX = lay.PatchLogicalX(p)
		ps.logicalZ = lay.PatchLogicalZ(p)
	}
	return sets
}

// RestMask returns a tile's rest-state mask: every site outside the
// layout's patches is disabled. The inter-patch gap columns are not part of
// any code and must not run syndrome extraction.
func RestMask(lay compiler.Layout) *surface.Mask {
	lat := lay.Lat
	mask := surface.NewMask(lat)
	inPatch := make([]bool, lat.NumQubits())
	for p := 0; p < lay.NumPatches(); p++ {
		for _, q := range lay.PatchQubits(p) {
			inPatch[q] = true
		}
	}
	for q, in := range inPatch {
		if !in {
			mask.SetDisabled(q, true)
		}
	}
	return mask
}

// Tally sums the counter contributions of many cycle reports so they can be
// recorded in one call. An engine that replays an MCE's fixed cycle stream
// without stepping an MCE (core's batched memory sweep) adds up its trials
// here, and the mce.* counters then read as if every trial had stepped its
// own engine.
type Tally struct {
	Cycles, MicroOps                uint64
	LogicalEnqueued, LogicalRetired uint64
	DefectsLocal, DefectsEscalated  uint64
}

// Record adds the tally to reg's mce.* counters (nil = metrics.Default).
// It registers only the six counters it adds: a registry merge copies every
// gauge, so resolving the engine's whole instrument set would publish a
// buffer-peak gauge no tallied trial ever raised.
func (t Tally) Record(reg *metrics.Registry) {
	if reg == nil {
		reg = metrics.Default
	}
	in := newTallied(reg)
	in.cycles.Add(t.Cycles)
	in.microOps.Add(t.MicroOps)
	in.logicalEnqueued.Add(t.LogicalEnqueued)
	in.logicalRetired.Add(t.LogicalRetired)
	in.defectsLocal.Add(t.DefectsLocal)
	in.defectsEscalated.Add(t.DefectsEscalated)
}

// Reset returns the engine to the state New built, rebinding the per-trial
// observation hooks: a fresh seed for the substrate and the noise injector,
// a (possibly different) metrics shard, tracer and heat set. The expensive
// trial-independent structures — the programmed microcode store, the local
// decoder's lookup tables, the tableau's row storage and the rest-state mask
// — are kept; everything mutable is rewound. Callers that run many short
// trials on one machine shape pool MCEs (via Machine pooling) so
// construction cost is paid once per machine instead of once per trial; the
// pooled-vs-fresh equivalence is pinned
// by TestMachineResetMatchesFresh.
func (m *MCE) Reset(seed int64, reg *metrics.Registry, tr *tracing.Tracer, heat *heatmap.Set, bw *bwprofile.Recorder) {
	if reg == nil {
		reg = metrics.Default
	}
	if tr == nil {
		tr = tracing.Default
	}
	m.cfg.Seed = seed
	m.cfg.Metrics = reg
	m.cfg.Tracer = tr
	m.cfg.Heat = heat
	m.cfg.BW = bw
	lat := m.cfg.Layout.Lat

	m.tableau.SetRNG(rand.New(rand.NewSource(seed)))
	m.tableau.Reset()
	m.memo.clear()
	m.mask = m.baseMask.Clone()
	m.compiledFrom = nil // the next cycle recompiles
	m.inj = nil
	if m.cfg.Noise != nil {
		m.inj = noise.NewInjector(*m.cfg.Noise, seed+1)
	}
	m.store.ResetStreamed()

	m.hist.Reset()
	if heat != nil {
		m.hist.SetHeat(heat.Collector(heatmap.GridName(lat.Rows, lat.Cols), lat.Rows, lat.Cols))
	} else {
		m.hist.SetHeat(nil)
	}
	m.frame.Reset()

	m.buffer.reset()
	clear(m.cache)
	m.replayQ.reset()
	m.braids = m.braids[:0]
	clear(m.busyPatch)
	m.magicStates = 0

	m.in = newInstr(reg)
	m.tr = tr
	m.bw = bw

	m.cycle = 0
	m.microOps, m.logicalRetired = 0, 0
	m.cacheHits, m.cacheLoads, m.stalledT = 0, 0, 0

	m.clearPending()
	clear(m.measuring)
	m.pendingUnmask = m.pendingUnmask[:0]

	m.unit = awg.New(m.tableau, m.inj)
	m.unit.MeasSink = m.sinkMeasurement
	if m.cfg.Timing != nil {
		m.unit.SetTiming(*m.cfg.Timing)
	}
}

// ElapsedNs returns the wall-clock time of all executed sub-cycles (zero
// unless the config carried a Timing).
func (m *MCE) ElapsedNs() float64 { return m.unit.ElapsedNs() }

// Layout returns the MCE's tile layout.
func (m *MCE) Layout() compiler.Layout { return m.cfg.Layout }

// Frame exposes the Pauli frame for verification.
func (m *MCE) Frame() *decoder.PauliFrame { return m.frame }

// Store exposes the microcode store (for bandwidth audits).
func (m *MCE) Store() *microcode.Store { return m.store }

// SupplyMagicStates adds distilled magic states to the local pool (fed by
// the T-factory tiles).
func (m *MCE) SupplyMagicStates(n int) {
	if n < 0 {
		panic("mce: negative magic state supply")
	}
	m.magicStates += n
}

// MagicStates returns the pool level.
func (m *MCE) MagicStates() int { return m.magicStates }

// Enqueue accepts one logical instruction from the master controller. Cache
// management opcodes are interpreted here; everything else waits in the
// instruction buffer. Where Check refuses in, Enqueue returns its error and
// queues nothing.
func (m *MCE) Enqueue(in isa.LogicalInstr) error {
	if err := m.Check(in); err != nil {
		return err
	}
	switch in.Op {
	case isa.LCacheRun:
		slot := m.cache[int(in.Target)]
		body := slot.body
		reps := int(in.Arg)
		if reps == 0 {
			reps = 1
		}
		m.replayQ.pushRun(body, slot.lanes, reps)
		m.cacheHits += uint64(reps)
		m.in.cacheHits.Add(uint64(reps))
		if m.bw != nil {
			// Replayed instructions are the bandwidth the cache saved: they
			// enter the pipeline here without crossing the global bus, so
			// they are metered with zero bytes.
			m.bw.Observe(m.cycle, bwprofile.BusReplay, bwprofile.ClassReplay, uint64(reps*len(body)), 0)
		}
		if m.tr != nil {
			m.tr.InstantArg("mce", m.tid, "cache.replay", int64(m.cycle), "reps", int64(reps))
		}
		return nil
	case isa.LSyncToken:
		return nil // sequencing only; no quantum effect
	}
	if m.cfg.BufferCapacity > 0 && m.buffer.n >= m.cfg.BufferCapacity {
		return fmt.Errorf("mce: instruction buffer full (%d)", m.cfg.BufferCapacity)
	}
	m.buffer.push(in)
	m.in.logicalEnqueued.Inc()
	if depth := float64(m.buffer.n); depth > m.in.bufferPeak.Value() {
		m.in.bufferPeak.Set(depth)
	}
	return nil
}

// Check reports why Enqueue would refuse in, or nil if it would accept it
// (the buffer's capacity aside, which the master's flow control polls
// through FreeBufferSlots). It changes nothing, so a caller can check an
// instruction before dispatching it. LCacheLoad never arrives this way, a
// cache run needs a loaded slot whose every instruction the tile can issue,
// and any other instruction must itself be one the tile can issue
// (checkQueued).
func (m *MCE) Check(in isa.LogicalInstr) error {
	switch in.Op {
	case isa.LCacheRun:
		slot, ok := m.cache[int(in.Target)]
		if !ok {
			return fmt.Errorf("mce: cache run on empty slot %d", in.Target)
		}
		for _, b := range slot.body {
			if err := m.checkQueued(b); err != nil {
				return err
			}
		}
		return nil
	case isa.LCacheLoad:
		return fmt.Errorf("mce: LCacheLoad must arrive via LoadCacheSlot with its body")
	case isa.LSyncToken:
		return nil
	}
	return m.checkQueued(in)
}

// checkQueued reports why in may not wait in the instruction buffer or the
// replay queue, or nil if it may: a transverse instruction or a CNOT must
// name a patch of the tile, a CNOT's partner must be another patch of the
// tile, and the opcodes Enqueue handles on arrival (LCacheRun, LCacheLoad,
// LSyncToken) are never queued. Anything that passes is safe to issue.
func (m *MCE) checkQueued(in isa.LogicalInstr) error {
	switch in.Op {
	case isa.LCacheRun, isa.LCacheLoad, isa.LSyncToken:
		return errNotQueued
	}
	if in.Op.IsTransverse() || in.Op == isa.LCNOT {
		np := m.cfg.Layout.NumPatches()
		if int(in.Target) >= np {
			return fmt.Errorf("mce: instruction %s targets patch outside tile", in)
		}
		if in.Op == isa.LCNOT && int(in.Arg) >= np {
			return errPartnerOutside
		}
		if in.Op == isa.LCNOT && in.Arg == in.Target {
			return errSelfCNOT
		}
	}
	return nil
}

// The fixed-text rejections of checkQueued.
var (
	errNotQueued      = errors.New("mce: a cache body may not hold LCRUN, LCLOAD or LSYNC")
	errPartnerOutside = errors.New("mce: CNOT partner outside tile")
	errSelfCNOT       = errors.New("mce: a braided CNOT needs two distinct patches of the tile")
)

// FreeBufferSlots returns how many more instructions Enqueue will accept
// (a large sentinel when unbounded); the master's flow control polls it.
func (m *MCE) FreeBufferSlots() int {
	if m.cfg.BufferCapacity <= 0 {
		return 1 << 30
	}
	free := m.cfg.BufferCapacity - m.buffer.n
	if free < 0 {
		return 0
	}
	return free
}

// LoadCacheSlot installs a loop body into a cache slot (the arrival of the
// body's bytes is metered by the master controller). The body is held to
// the tile when a cache run replays it (Check), not here: a loader may stage
// a body the tile never runs, as host.Compile stages the 16-patch
// distillation round in every tile.
func (m *MCE) LoadCacheSlot(slot int, body []isa.LogicalInstr) error {
	if m.cfg.CacheSlots == 0 {
		return fmt.Errorf("mce: cache disabled")
	}
	if slot < 0 || slot >= m.cfg.CacheSlots {
		return fmt.Errorf("mce: cache slot %d outside [0,%d)", slot, m.cfg.CacheSlots)
	}
	if len(body) == 0 {
		return fmt.Errorf("mce: empty cache body")
	}
	body = append([]isa.LogicalInstr(nil), body...)
	m.cache[slot] = cacheSlot{body: body, lanes: bodyLanes(body)}
	m.cacheLoads++
	m.in.cacheLoads.Inc()
	if m.tr != nil {
		m.tr.InstantArg("mce", m.tid, "cache.fill", int64(m.cycle), "instrs", int64(len(body)))
	}
	return nil
}

// PendingLogical returns the backlog: buffered + replaying instructions and
// in-flight braids.
func (m *MCE) PendingLogical() int {
	return m.buffer.n + m.replayQ.n + len(m.braids)
}

// Stats returns cumulative counters.
func (m *MCE) Stats() (microOps, logicalRetired, cacheHits, cacheLoads, stalledT uint64) {
	return m.microOps, m.logicalRetired, m.cacheHits, m.cacheLoads, m.stalledT
}

// sinkMeasurement records one delivered measurement in the cycle's rounds.
func (m *MCE) sinkMeasurement(q, bit int) {
	w, b := q>>6, uint(q)&63
	m.measured[w] |= 1 << b
	m.outcomes[w] = m.outcomes[w]&^(1<<b) | uint64(bit&1)<<b
}

// clearPending marks every qubit unmeasured for the next cycle.
func (m *MCE) clearPending() {
	clear(m.measured)
	clear(m.outcomes)
}

// issueWidth bounds how many logical instructions start per cycle,
// modelling the decoder throughput of the instruction pipeline.
const issueWidth = 4

// StepCycle advances the machine by one QECC cycle and returns the report.
func (m *MCE) StepCycle() CycleReport {
	timed := m.in.cycleNs
	var start time.Time
	if timed != nil {
		start = time.Now() //quest:allow(seedsrc) wall-clock latency metric only; the value never reaches simulation state
	}
	stallBefore := m.stalledT
	rep := CycleReport{Cycle: m.cycle}
	m.beginCycle(&rep)
	m.runCycle(&rep, m.issueLogical(&rep), stallBefore)
	if timed != nil {
		timed.Observe(float64(time.Since(start)))
	}
	return rep
}

// beginCycle opens a cycle: it stamps the noise location, clears the
// per-cycle measurement rounds and advances in-flight braids (step 1).
func (m *MCE) beginCycle(rep *CycleReport) {
	if m.inj != nil {
		// Nothing reads the fault log; clearing it per cycle keeps it to
		// one cycle's faults instead of the engine's whole life.
		m.inj.SetLocation(m.cycle, 0)
		m.inj.ClearLog()
	}
	m.clearPending()

	// 1. Advance in-flight braids by one mask step each.
	m.stepBraids(rep)
}

// runCycle completes a cycle whose logical instructions were issued (step
// 2) into overlay: it replays the microcode, completes measurements, decodes
// and accounts the cycle.
func (m *MCE) runCycle(rep *CycleReport, overlay []isa.MicroOp, stallBefore uint64) {
	// 3. Replay the QECC microcode under the current mask; the first
	// sub-cycle carries the logical overlay in the slots the mask freed.
	// A new expansion is compiled once and its words fired until the mask
	// changes again. A cycle without overlay goes through the memo, except
	// the first of a new expansion: a braid's expansions last one cycle, and
	// the first cycle after New or Reset draws random outcomes.
	words := m.store.ReplayCycle(m.mask)
	fresh := len(words) != len(m.compiledFrom) || &words[0] != &m.compiledFrom[0]
	if fresh || len(overlay) > 0 {
		m.memo.sync(m.tableau) // fired directly below, from the planes
	}
	if fresh {
		for s, w := range words {
			m.compiled[s].Compile(w)
		}
		m.compiledFrom = words
		m.memo.clear()
	}
	if len(overlay) == 0 && !fresh {
		m.firePlain()
	} else {
		for s, cw := range m.compiled {
			if s == 0 && len(overlay) > 0 {
				first := m.overlaid
				copy(first.Ops, words[0].Ops)
				copy(first.Pairs, words[0].Pairs)
				for _, op := range overlay {
					first.Set(op.Qubit, op.Op)
				}
				m.unit.ExecuteWord(first)
				continue
			}
			m.unit.FireWord(cw)
		}
		m.memo.cur = -1 // the planes no longer equal a known interned state
	}
	rep.MicroOpsIssued = len(words) * m.unit.N()
	m.microOps += uint64(rep.MicroOpsIssued)
	for j, mw := range m.measured {
		rep.Measurements += bits.OnesCount64(mw)
		m.synd[j] = mw &^ m.dataMask[j]
	}

	// 4. Complete transverse measurements: majority over the patch's
	// logical-Z (or X) support with frame parity applied.
	m.completeMeasurements(rep)

	// 5. Difference syndromes into defects and decode locally; residuals
	// escalate to the master controller.
	defects := m.hist.AbsorbRound(m.synd, m.outcomes)
	m.resolved, m.residual = m.local.Decode(defects, m.resolved[:0], m.residual[:0])
	for _, c := range m.resolved {
		m.frame.Apply(c)
	}
	rep.DefectsLocal = len(m.resolved)
	rep.DefectsEscalated = m.residual

	if m.tr != nil {
		// One span per cycle, named by what the cycle achieved: "busy" when
		// logical work progressed (issue, braid, retire), "stall" when the
		// only blocked progress was a T waiting on a magic state, "idle" when
		// nothing but the background QECC replay ran. Summarize folds these
		// into the per-tile busy/stall/idle breakdown.
		name := "idle"
		switch {
		case rep.LogicalRetired > 0 || len(overlay) > 0 || len(m.braids) > 0:
			name = "busy"
		case m.stalledT > stallBefore:
			name = "stall"
		}
		m.tr.SpanArg("mce", m.tid, name, int64(rep.Cycle), 1, "uops", int64(rep.MicroOpsIssued))
		// The local LUT decoder runs every cycle; give its track a span only
		// when it had defects to chew on (keeps idle traces readable), plus a
		// permanent idle marker so the decoder track always exists.
		if len(defects) > 0 {
			m.tr.SpanArg("decoder", m.tid, "local", int64(rep.Cycle), 1, "defects", int64(len(defects)))
		} else {
			m.tr.Span("decoder", m.tid, "idle", int64(rep.Cycle), 1)
		}
	}

	m.cycle++
	m.in.cycles.Inc()
	m.in.microOps.Add(uint64(rep.MicroOpsIssued))
	m.in.logicalRetired.Add(uint64(rep.LogicalRetired))
	m.in.defectsLocal.Add(uint64(rep.DefectsLocal))
	m.in.defectsEscalated.Add(uint64(len(m.residual)))
}

func (m *MCE) stepBraids(rep *CycleReport) {
	active := m.braids[:0]
	for _, b := range m.braids {
		s := b.steps[b.next]
		if !m.cfg.Layout.Lat.InBounds(s.R, s.C) {
			panic(fmt.Sprintf("mce: braid step at (%d,%d) outside tile", s.R, s.C))
		}
		idx := m.cfg.Layout.Lat.Index(s.R, s.C)
		if s.Grow {
			m.mask.SetDisabled(idx, true)
		} else {
			// Shrink restores the site's rest state (gap sites stay masked).
			m.mask.SetDisabled(idx, m.baseMask.Disabled(idx))
		}
		b.next++
		if b.next == len(b.steps) {
			m.busyPatch[b.ctrl] = false
			m.busyPatch[b.tgt] = false
			m.logicalRetired++
			rep.LogicalRetired++
			continue
		}
		active = append(active, b)
	}
	m.braids = active
}

// issueLogical starts this cycle's logical instructions and returns the
// physical overlay for its first sub-cycle. It makes the tryIssue calls that
// one scan in arrival order would make, replay queue first (cached loops
// have priority so factory pipelines never starve): one for each
// instruction whose patches no earlier one claimed or blocked this cycle,
// until issueWidth have started. One that fails still blocks its target, so
// nothing later for that patch jumps it. Only lane heads can qualify (see
// queue), so each step takes the eligible head that arrived first, and a
// cycle costs a few passes over the lanes however deep the backlog.
func (m *MCE) issueLogical(rep *CycleReport) []isa.MicroOp {
	var overlay []isa.MicroOp
	issued := 0
	clear(m.usedPatch[:])
	for _, q := range [...]*queue{&m.replayQ, &m.buffer} {
		for issued < issueWidth {
			i := q.next(&m.usedPatch)
			if i < 0 {
				break
			}
			l := q.active[i]
			in, _ := l.entries[l.head].head()
			ok, ops := m.tryIssue(in, rep)
			m.usedPatch[l.p1] = true // on failure too: nothing later may jump it
			if !ok {
				continue
			}
			if l.p2 >= 0 {
				m.usedPatch[l.p2] = true
			}
			q.pop(i)
			overlay = append(overlay, ops...)
			issued++
		}
	}
	return overlay
}

// tryIssue attempts to start one logical instruction this cycle.
func (m *MCE) tryIssue(in isa.LogicalInstr, rep *CycleReport) (bool, []isa.MicroOp) {
	patch := int(in.Target)
	if m.busyPatch[patch] {
		return false, nil
	}
	switch {
	case in.Op == isa.LCNOT:
		tgt := int(in.Arg)
		if m.busyPatch[tgt] {
			return false, nil
		}
		np := m.cfg.Layout.NumPatches()
		if patch == tgt || patch >= np || tgt >= np {
			panic("mce: a braided CNOT needs two distinct patches of the tile")
		}
		m.busyPatch[patch] = true
		m.busyPatch[tgt] = true
		m.braids = append(m.braids, braid{steps: m.braidPaths[patch*np+tgt], ctrl: patch, tgt: tgt})
		return true, nil
	case in.Op == isa.LX || in.Op == isa.LZ:
		// Logical Paulis are Pauli-frame updates along the logical operator
		// chain — zero quantum cost, as in Appendix A.2's correction log.
		support := m.patches[patch].logicalX
		flipX := true
		if in.Op == isa.LZ {
			support = m.patches[patch].logicalZ
			flipX = false
		}
		for _, q := range support {
			m.frame.Apply(decoder.Correction{Qubit: q, FlipX: flipX})
		}
		m.logicalRetired++
		rep.LogicalRetired++
		return true, nil
	case in.Op == isa.LT:
		if m.magicStates == 0 {
			m.stalledT++
			m.in.stalledT.Inc()
			return false, nil
		}
		m.magicStates--
		fallthrough
	case in.Op.IsTransverse():
		ops, err := compiler.ExpandTransverse(m.cfg.Layout, in)
		if err != nil {
			panic(fmt.Sprintf("mce: %v", err))
		}
		// Mask the patch for this cycle so QECC yields the sub-cycle slots.
		r0, c0, r1, c1 := m.cfg.Layout.PatchRegion(patch)
		m.mask.SetRegion(r0, c0, r1, c1, true)
		// Unmasking happens next cycle via deferred list: we unmask
		// immediately after replay by recording the patch.
		m.deferUnmask(r0, c0, r1, c1)
		switch in.Op {
		case isa.LMeasZ, isa.LMeasX:
			m.measuring[patch] = in.Op == isa.LMeasX
			m.forgetPatch(patch)
		case isa.LPrep0, isa.LPrepPlus:
			// A fresh patch owes nothing to past syndromes or corrections.
			m.forgetPatch(patch)
			m.frame.Clear(m.patches[patch].qubits)
		}
		m.logicalRetired++
		rep.LogicalRetired++
		return true, ops
	default:
		// Mask-manipulation opcodes arriving individually.
		switch in.Op {
		case isa.LMaskGrow, isa.LMaskShrink, isa.LMaskMove:
			m.logicalRetired++
			rep.LogicalRetired++
			return true, nil
		}
		panic(fmt.Sprintf("mce: unhandled logical instruction %s", in))
	}
}

// deferred unmask bookkeeping: patches masked for a single-cycle transverse
// op are restored right after the cycle's words are built. ReplayCycle's
// words reflect the mask as it stood at the call, and restoring the mask
// changes its Version, so the next cycle's replay expands afresh: restoring
// immediately after building this cycle's stream is equivalent to restoring
// next cycle.
type region struct{ r0, c0, r1, c1 int }

func (m *MCE) deferUnmask(r0, c0, r1, c1 int) {
	m.pendingUnmask = append(m.pendingUnmask, region{r0, c0, r1, c1})
}

// forgetPatch drops the syndrome reference of a patch's ancillas: after a
// (re)preparation or destructive measurement, old syndrome records would
// read as a wall of spurious defects.
func (m *MCE) forgetPatch(patch int) {
	m.hist.Forget(m.patches[patch].ancillas)
}

// completeMeasurements reports the transverse measurements whose data bits
// have all arrived. Patches are visited in index order, never map order, so
// measurements finishing in the same cycle appear in ascending patch index
// in CycleReport.LogicalResults (and the master's RunReport.Results).
func (m *MCE) completeMeasurements(rep *CycleReport) {
	for patch := 0; len(m.measuring) > 0 && patch < m.cfg.Layout.NumPatches(); patch++ {
		basisX, ok := m.measuring[patch]
		if !ok {
			continue
		}
		// Z-basis outcome = parity over the logical-Z support, corrected by
		// pending X flips; X-basis uses the logical-X support and Z flips.
		support := m.patches[patch].logicalZ
		if basisX {
			support = m.patches[patch].logicalX
		}
		parity := 0
		complete := true
		for _, q := range support {
			w, b := q>>6, uint(q)&63
			if m.measured[w]>>b&1 == 0 {
				complete = false
				break
			}
			parity ^= int(m.outcomes[w] >> b & 1)
		}
		if !complete {
			continue
		}
		parity ^= m.frame.ParityOn(support, !basisX)
		rep.LogicalResults = append(rep.LogicalResults, LogicalResult{Patch: patch, Bit: parity})
		delete(m.measuring, patch)
	}
	// Restore single-cycle masks.
	for _, r := range m.pendingUnmask {
		m.mask.SetRegion(r.r0, r.c0, r.r1, r.c1, false)
	}
	m.pendingUnmask = m.pendingUnmask[:0]
}
