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
	"fmt"
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
	cacheHits       *metrics.Counter
	cacheLoads      *metrics.Counter
	stalledT        *metrics.Counter
	cycleNs         *metrics.Histogram
	bufferOccupancy *metrics.Gauge
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
		tallied:         newTallied(r),
		cacheHits:       r.Counter("mce.cache.hits"),
		cacheLoads:      r.Counter("mce.cache.loads"),
		stalledT:        r.Counter("mce.stalled.t"),
		cycleNs:         r.Histogram("mce.cycle.ns", nil),
		bufferOccupancy: r.Gauge("mce.buffer.occupancy"),
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
	// parallel trials never contend on shared counters.
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
	Cycle            int
	MicroOpsIssued   int
	LogicalRetired   int
	Measurements     int
	DefectsLocal     int // defects resolved by the LUT decoder
	DefectsEscalated []decoder.Defect
	LogicalResults   []LogicalResult
}

// LogicalResult is a completed logical measurement.
type LogicalResult struct {
	Patch int
	Bit   int
}

// braid tracks an in-flight logical CNOT: remaining mask steps and the
// patches it occupies.
type braid struct {
	steps     []surface.BraidStep
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

	hist  *decoder.SyndromeHistory
	local *decoder.LocalDecoder
	frame *decoder.PauliFrame

	// Instruction pipeline.
	buffer    []isa.LogicalInstr
	cache     map[int][]isa.LogicalInstr
	replayQ   []isa.LogicalInstr
	braids    []*braid
	busyPatch map[int]bool
	// usedPatch marks the patches an instruction claimed or blocked in the
	// cycle being issued. Target and Arg are bytes, so it covers every
	// patch number a queued instruction can name, in the tile or not.
	usedPatch [256]bool
	// farQueued counts queued instructions that name a patch outside the
	// tile (mask opcodes and cache bodies are not range-checked). While it
	// is zero, a cycle whose every patch is used can stop its issue scan.
	farQueued int

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

	// pendingSynd and pendingData are the in-flight cycle's measurement
	// bits, one entry per lattice qubit (-1 = not measured this cycle):
	// ancillas in the syndrome round, data qubits in the other. measured
	// counts the qubits measured so far this cycle.
	pendingSynd, pendingData []int8
	measured                 int
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
	m := &MCE{
		cfg:      cfg,
		store:    microcode.NewStore(cfg.Design, cfg.Schedule, lat),
		baseMask: RestMask(cfg.Layout),

		tableau: clifford.New(lat.NumQubits(), rand.New(rand.NewSource(cfg.Seed))),

		hist:  decoder.NewHistory(lat),
		local: decoder.NewLocalDecoder(lat),
		frame: decoder.NewPauliFrame(),

		cache:     make(map[int][]isa.LogicalInstr),
		busyPatch: make(map[int]bool),

		in:  newInstr(reg),
		tr:  tr,
		bw:  cfg.BW,
		tid: cfg.TileID,

		pendingSynd: make([]int8, lat.NumQubits()),
		pendingData: make([]int8, lat.NumQubits()),
		measuring:   make(map[int]bool),
	}
	m.clearPending()
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
// buffer-occupancy gauge no tallied trial ever set.
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
	m.mask = m.baseMask.Clone()
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

	m.buffer = m.buffer[:0]
	clear(m.cache)
	m.replayQ = m.replayQ[:0]
	m.farQueued = 0
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

// Tableau exposes the substrate for verification in tests.
func (m *MCE) Tableau() *clifford.Tableau { return m.tableau }

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
// instruction buffer.
func (m *MCE) Enqueue(in isa.LogicalInstr) error {
	switch in.Op {
	case isa.LCacheRun:
		body, ok := m.cache[int(in.Target)]
		if !ok {
			return fmt.Errorf("mce: cache run on empty slot %d", in.Target)
		}
		reps := int(in.Arg)
		if reps == 0 {
			reps = 1
		}
		for r := 0; r < reps; r++ {
			m.replayQ = append(m.replayQ, body...)
		}
		for _, b := range body {
			if m.far(b) {
				m.farQueued += reps
			}
		}
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
	case isa.LCacheLoad:
		return fmt.Errorf("mce: LCacheLoad must arrive via LoadCacheSlot with its body")
	case isa.LSyncToken:
		return nil // sequencing only; no quantum effect
	}
	if in.Op.IsTransverse() || in.Op == isa.LCNOT {
		if int(in.Target) >= m.cfg.Layout.NumPatches() {
			return fmt.Errorf("mce: instruction %s targets patch outside tile", in)
		}
		if in.Op == isa.LCNOT && int(in.Arg) >= m.cfg.Layout.NumPatches() {
			return fmt.Errorf("mce: CNOT partner outside tile")
		}
	}
	if m.cfg.BufferCapacity > 0 && len(m.buffer) >= m.cfg.BufferCapacity {
		return fmt.Errorf("mce: instruction buffer full (%d)", m.cfg.BufferCapacity)
	}
	m.buffer = append(m.buffer, in)
	if m.far(in) {
		m.farQueued++
	}
	m.in.logicalEnqueued.Inc()
	m.in.bufferOccupancy.Set(float64(len(m.buffer)))
	return nil
}

// FreeBufferSlots returns how many more instructions Enqueue will accept
// (a large sentinel when unbounded); the master's flow control polls it.
func (m *MCE) FreeBufferSlots() int {
	if m.cfg.BufferCapacity <= 0 {
		return 1 << 30
	}
	free := m.cfg.BufferCapacity - len(m.buffer)
	if free < 0 {
		return 0
	}
	return free
}

// LoadCacheSlot installs a loop body into a cache slot (the arrival of the
// body's bytes is metered by the master controller).
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
	m.cache[slot] = append([]isa.LogicalInstr(nil), body...)
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
	return len(m.buffer) + len(m.replayQ) + len(m.braids)
}

// Stats returns cumulative counters.
func (m *MCE) Stats() (microOps, logicalRetired, cacheHits, cacheLoads, stalledT uint64) {
	return m.microOps, m.logicalRetired, m.cacheHits, m.cacheLoads, m.stalledT
}

func (m *MCE) sinkMeasurement(q, bit int) {
	round := m.pendingSynd
	if m.cfg.Layout.Lat.RoleOf(q) == surface.RoleData {
		round = m.pendingData
	}
	if round[q] < 0 {
		m.measured++
	}
	round[q] = int8(bit)
}

// clearPending marks every qubit unmeasured for the next cycle.
func (m *MCE) clearPending() {
	for q := range m.pendingSynd {
		m.pendingSynd[q] = -1
		m.pendingData[q] = -1
	}
	m.measured = 0
}

// issueWidth bounds how many logical instructions start per cycle,
// modelling the decoder throughput of the instruction pipeline.
const issueWidth = 4

// StepCycle advances the machine by one QECC cycle and returns the report.
func (m *MCE) StepCycle() CycleReport {
	start := time.Now() //quest:allow(seedsrc) wall-clock latency metric only; the value never reaches simulation state
	stallBefore := m.stalledT
	rep := CycleReport{Cycle: m.cycle}
	m.beginCycle(&rep)
	m.runCycle(&rep, m.issueLogical(&rep), stallBefore)
	m.in.cycleNs.Observe(float64(time.Since(start)))
	return rep
}

// beginCycle opens a cycle: it stamps the noise location, clears the
// per-cycle measurement rounds and advances in-flight braids (step 1).
func (m *MCE) beginCycle(rep *CycleReport) {
	if m.inj != nil {
		m.inj.SetLocation(m.cycle, 0)
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
	words := m.store.ReplayCycle(m.mask)
	if len(overlay) > 0 {
		w0 := words[0]
		for _, op := range overlay {
			w0.Set(op.Qubit, op.Op)
		}
	}
	for _, w := range words {
		m.unit.ExecuteWord(w)
		rep.MicroOpsIssued += w.Len()
	}
	m.microOps += uint64(rep.MicroOpsIssued)
	rep.Measurements = m.measured

	// 4. Complete transverse measurements: majority over the patch's
	// logical-Z (or X) support with frame parity applied.
	m.completeMeasurements(rep)

	// 5. Difference syndromes into defects and decode locally; residuals
	// escalate to the master controller.
	defects := m.hist.AbsorbRound(m.pendingSynd)
	resolved, residual := m.local.Decode(defects)
	for _, c := range resolved {
		m.frame.Apply(c)
	}
	rep.DefectsLocal = len(resolved)
	rep.DefectsEscalated = residual

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
	m.in.defectsEscalated.Add(uint64(len(residual)))
	m.in.bufferOccupancy.Set(float64(len(m.buffer)))
}

func (m *MCE) stepBraids(rep *CycleReport) {
	var active []*braid
	for _, b := range m.braids {
		s := b.steps[0]
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
		b.steps = b.steps[1:]
		if len(b.steps) == 0 {
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

// issueLogical pops ready instructions (replay queue first — cached loops
// have priority so factory pipelines never starve) and returns the physical
// overlay for this cycle's first sub-cycle. Its cost is the scanned prefix of
// the queues, not their depth: the scan stops once issueWidth instructions
// started, or once every patch is used and no queued instruction names a
// patch outside the tile, since nothing further can issue or move.
func (m *MCE) issueLogical(rep *CycleReport) []isa.MicroOp {
	var overlay []isa.MicroOp
	issued, used, np := 0, 0, m.cfg.Layout.NumPatches()
	clear(m.usedPatch[:])
	use := func(p int) {
		if !m.usedPatch[p] {
			m.usedPatch[p] = true
			if p < np {
				used++
			}
		}
	}
	take := func(queue *[]isa.LogicalInstr) {
		q := *queue
		kept, i := 0, 0
		for ; i < len(q) && issued < issueWidth && (used < np || m.farQueued > 0); i++ {
			in := q[i]
			// One instruction per patch per cycle; later instructions for a
			// used patch also wait, preserving program order per patch.
			p1, p2 := int(in.Target), -1
			if in.Op == isa.LCNOT {
				p2 = int(in.Arg)
			}
			if m.usedPatch[p1] || (p2 >= 0 && m.usedPatch[p2]) {
				q[kept] = in
				kept++
				continue
			}
			ok, ops := m.tryIssue(in, rep)
			use(p1) // on failure too: nothing later may jump it
			if !ok {
				q[kept] = in
				kept++
				continue
			}
			if p2 >= 0 {
				use(p2)
			}
			if m.far(in) {
				m.farQueued--
			}
			overlay = append(overlay, ops...)
			issued++
		}
		// The scanned prefix q[:i] kept its waiting entries in q[:kept]; move
		// them up against the unscanned tail, in order, and drop the rest.
		copy(q[i-kept:i], q[:kept])
		*queue = q[i-kept:]
	}
	take(&m.replayQ)
	take(&m.buffer)
	return overlay
}

// far reports whether in names a patch outside the tile.
func (m *MCE) far(in isa.LogicalInstr) bool {
	np := m.cfg.Layout.NumPatches()
	return int(in.Target) >= np || (in.Op == isa.LCNOT && int(in.Arg) >= np)
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
		steps := compiler.BraidForCNOT(m.cfg.Layout, patch, tgt)
		if len(steps) == 0 {
			m.logicalRetired++
			rep.LogicalRetired++
			return true, nil
		}
		m.busyPatch[patch] = true
		m.busyPatch[tgt] = true
		m.braids = append(m.braids, &braid{steps: steps, ctrl: patch, tgt: tgt})
		return true, nil
	case in.Op == isa.LX || in.Op == isa.LZ:
		// Logical Paulis are Pauli-frame updates along the logical operator
		// chain — zero quantum cost, as in Appendix A.2's correction log.
		support := m.cfg.Layout.PatchLogicalX(patch)
		flipX := true
		if in.Op == isa.LZ {
			support = m.cfg.Layout.PatchLogicalZ(patch)
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
			m.frame.Clear(m.cfg.Layout.PatchQubits(patch))
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
// op are restored right after the cycle's words are built. Because
// ReplayCycle snapshots the mask when called, restoring immediately after
// building this cycle's stream is equivalent to restoring next cycle.
type region struct{ r0, c0, r1, c1 int }

func (m *MCE) deferUnmask(r0, c0, r1, c1 int) {
	m.pendingUnmask = append(m.pendingUnmask, region{r0, c0, r1, c1})
}

// forgetPatch drops the syndrome reference of a patch's ancillas: after a
// (re)preparation or destructive measurement, old syndrome records would
// read as a wall of spurious defects.
func (m *MCE) forgetPatch(patch int) {
	var ancillas []int
	for _, q := range m.cfg.Layout.PatchQubits(patch) {
		if m.cfg.Layout.Lat.RoleOf(q) != surface.RoleData {
			ancillas = append(ancillas, q)
		}
	}
	m.hist.Forget(ancillas)
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
		support := m.cfg.Layout.PatchLogicalZ(patch)
		if basisX {
			support = m.cfg.Layout.PatchLogicalX(patch)
		}
		parity := 0
		complete := true
		for _, q := range support {
			bit := m.pendingData[q]
			if bit < 0 {
				complete = false
				break
			}
			parity ^= int(bit)
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
