// Package master implements the master controller of §4.2: the CMOS-domain
// (77K) orchestrator that dispatches logical instructions to MCEs over a
// packet-switched network, runs the global error decoder on defect patterns
// the MCEs' local lookup tables cannot resolve, issues synchronization
// tokens, stages logical-instruction cache loads, and feeds distilled magic
// states from the T-factory tiles to the compute tiles.
//
// All global-bus traffic is metered here, split by class (logical
// instructions, sync tokens, cache loads, syndrome returns), which is what
// the Figure 14/15 experiments read out.
package master

import (
	"fmt"
	"time"

	"quest/internal/bandwidth"
	"quest/internal/bwprofile"
	"quest/internal/decoder"
	"quest/internal/distill"
	"quest/internal/heatmap"
	"quest/internal/isa"
	"quest/internal/mce"
	"quest/internal/metrics"
	"quest/internal/noc"
	"quest/internal/tracing"
)

// packet is one logical instruction in flight to an MCE.
type packet struct {
	tile  int
	instr isa.LogicalInstr
}

// Config sets the network and factory parameters.
type Config struct {
	// PacketsPerCycle bounds deliveries per tile per QECC cycle (the
	// packet-switched network's per-link throughput).
	PacketsPerCycle int
	// FactoryLatency is the QECC-round latency of one distillation round;
	// zero disables the built-in factory feed.
	FactoryLatency int
	// Factories is the number of T-factory pipelines feeding the tiles.
	Factories int
	// DecodeWindow batches escalated defects over this many rounds before
	// global matching (Appendix A.2's space-time window). Values ≤ 1 decode
	// every round.
	DecodeWindow int
	// UseNoC routes packets through a 2-D mesh network-on-chip model (one
	// hop per network cycle, dimension-ordered) instead of the ideal
	// per-tile queues. Latency becomes load-dependent — harmless for
	// logical traffic, which is the §3.4 point.
	UseNoC bool
	// Metrics selects the registry the controller's instruments, bus
	// meters and global/window decoders record into (nil = metrics.Default).
	Metrics *metrics.Registry
	// Tracer, when non-nil, records cycle-correlated dispatch/sync/cache
	// instants, global-decode spans and NoC delivery events for Perfetto
	// export; it is also handed to the per-tile window decoders and the mesh.
	// Nil falls back to tracing.Default (nil = tracing off).
	Tracer *tracing.Tracer
	// Heat, when non-nil, records every global matching's spatial footprint
	// (matched-chain endpoints and lengths) into a per-lattice-shape
	// collector, complementing the defect births the MCE histories record.
	// Nil (the default) keeps the decode path allocation-free.
	Heat *heatmap.Set
	// BW, when non-nil, buckets every bus observation into cycle windows
	// with per-µop-class attribution for the quest-bw/1 bandwidth profile.
	// Nil (the default) keeps the dispatch paths allocation-free.
	BW *bwprofile.Recorder
}

// masterInstr bundles the controller's instruments.
type masterInstr struct {
	dispatched    *metrics.Counter
	syncsSent     *metrics.Counter
	cacheBodies   *metrics.Counter
	cycles        *metrics.Counter
	escalated     *metrics.Counter
	globalDecodes *metrics.Counter
	decodeNs      *metrics.Histogram
}

func newMasterInstr(r *metrics.Registry) *masterInstr {
	return &masterInstr{
		dispatched:    r.Counter("master.dispatched"),
		syncsSent:     r.Counter("master.syncs"),
		cacheBodies:   r.Counter("master.cache.bodies"),
		cycles:        r.Counter("master.cycles"),
		escalated:     r.Counter("master.escalated"),
		globalDecodes: r.Counter("master.global.decodes"),
		decodeNs:      r.Histogram("master.decode.ns", nil),
	}
}

// Master is the controller instance.
type Master struct {
	cfg     Config
	tiles   []*mce.MCE
	global  []*decoder.GlobalDecoder
	windows []*decoder.WindowDecoder

	queues [][]packet
	mesh   *noc.Mesh
	// overflow holds NoC-delivered instructions an MCE's full buffer
	// rejected; they retry ahead of fresh ejections next cycle.
	overflow [][]isa.LogicalInstr

	factories []*distill.Factory

	// Traffic meters by class.
	Logical  bandwidth.Counter
	Sync     bandwidth.Counter
	Cache    bandwidth.Counter
	Syndrome bandwidth.Counter

	in *masterInstr
	tr *tracing.Tracer
	bw *bwprofile.Recorder

	cycle          int
	escalatedTotal uint64
	globalCorr     uint64
}

// New builds a master over the given MCE tiles.
func New(cfg Config, tiles []*mce.MCE) *Master {
	if len(tiles) == 0 {
		panic("master: no tiles")
	}
	if cfg.PacketsPerCycle <= 0 {
		cfg.PacketsPerCycle = 16
	}
	reg := cfg.Metrics
	if reg == nil {
		reg = metrics.Default
	}
	tr := cfg.Tracer
	if tr == nil {
		tr = tracing.Default
	}
	m := &Master{
		cfg:    cfg,
		tiles:  tiles,
		queues: make([][]packet, len(tiles)),
		in:     newMasterInstr(reg),
		tr:     tr,
		bw:     cfg.BW,
	}
	// Mirror the per-class bus meters into the registry so -metrics reports
	// bus traffic alongside latencies without a second accounting path.
	bridgeBus(reg, &m.Logical, &m.Sync, &m.Cache, &m.Syndrome)
	di := decoder.NewInstr(reg)
	for _, t := range tiles {
		g := decoder.NewGlobalDecoder(t.Layout().Lat)
		g.SetInstr(di)
		if cfg.Heat != nil {
			lat := t.Layout().Lat
			g.SetHeat(cfg.Heat.Collector(heatmap.GridName(lat.Rows, lat.Cols), lat.Rows, lat.Cols))
		}
		m.global = append(m.global, g)
		if cfg.DecodeWindow > 1 {
			w := decoder.NewWindowDecoder(g, cfg.DecodeWindow)
			w.SetInstr(di)
			w.SetTracer(tr, len(m.windows))
			m.windows = append(m.windows, w)
		} else {
			m.windows = append(m.windows, nil)
		}
	}
	for i := 0; i < cfg.Factories; i++ {
		m.factories = append(m.factories, &distill.Factory{LatencyRounds: cfg.FactoryLatency})
	}
	if cfg.UseNoC {
		// Square-ish mesh covering the tile count.
		w := 1
		for w*w < len(tiles) {
			w++
		}
		h := (len(tiles) + w - 1) / w
		m.mesh = noc.NewMesh(w, h)
		m.mesh.SetTracer(tr)
	}
	return m
}

// bridgeBus mirrors the four per-class bus meters into reg's master.bus.*
// counters.
func bridgeBus(reg *metrics.Registry, logical, sync, cache, syndrome *bandwidth.Counter) {
	logical.Bridge(reg.Counter("master.bus.logical.instr"), reg.Counter("master.bus.logical.bytes"))
	sync.Bridge(reg.Counter("master.bus.sync.instr"), reg.Counter("master.bus.sync.bytes"))
	cache.Bridge(reg.Counter("master.bus.cache.instr"), reg.Counter("master.bus.cache.bytes"))
	syndrome.Bridge(reg.Counter("master.bus.syndrome.records"), reg.Counter("master.bus.syndrome.bytes"))
}

// Tally sums the counter contributions of many master cycles and
// dispatches so they can be recorded in one call — the controller's side of
// mce.Tally, for engines that replay a fixed machine schedule without
// stepping a Master.
type Tally struct {
	Cycles, Dispatched, Escalated, GlobalDecodes uint64
}

// Record adds the tally to reg's master.* counters (nil = metrics.Default),
// bus meters included, metered as Dispatch and StepCycle meter them: a
// dispatch is one logical instruction of isa.LogicalInstrBytes, an
// escalated defect one one-byte syndrome record.
func (t Tally) Record(reg *metrics.Registry) {
	if reg == nil {
		reg = metrics.Default
	}
	in := newMasterInstr(reg)
	in.cycles.Add(t.Cycles)
	in.dispatched.Add(t.Dispatched)
	in.escalated.Add(t.Escalated)
	in.globalDecodes.Add(t.GlobalDecodes)
	var logical, sync, cache, syndrome bandwidth.Counter
	bridgeBus(reg, &logical, &sync, &cache, &syndrome)
	logical.Add(t.Dispatched, t.Dispatched*isa.LogicalInstrBytes)
	syndrome.Add(t.Escalated, t.Escalated)
}

// Tiles returns the managed MCEs.
func (m *Master) Tiles() []*mce.MCE { return m.tiles }

// Reset rewinds the controller to the state New built, rebinding the
// per-trial observation hooks (metrics shard — the decoders' instruments
// included — tracer, heat set, bandwidth recorder). The tiles are reset
// separately (they carry their own seeds); the decoders' lookup tables are
// trial-independent and kept. The NoC mesh carries in-flight
// packet state that no drain guarantees empty, so pooled resets are only
// supported for the ideal-queue network model.
func (m *Master) Reset(reg *metrics.Registry, tr *tracing.Tracer, heat *heatmap.Set, bw *bwprofile.Recorder) {
	if m.mesh != nil {
		panic("master: Reset with a NoC mesh is not supported; build a fresh machine")
	}
	if reg == nil {
		reg = metrics.Default
	}
	if tr == nil {
		tr = tracing.Default
	}
	for i := range m.queues {
		m.queues[i] = m.queues[i][:0]
	}
	m.overflow = nil
	for _, f := range m.factories {
		f.Reset()
	}
	m.Logical.Reset()
	m.Sync.Reset()
	m.Cache.Reset()
	m.Syndrome.Reset()
	bridgeBus(reg, &m.Logical, &m.Sync, &m.Cache, &m.Syndrome)
	di := decoder.NewInstr(reg)
	for i, g := range m.global {
		g.SetInstr(di)
		var c *heatmap.Collector
		if heat != nil {
			lat := m.tiles[i].Layout().Lat
			c = heat.Collector(heatmap.GridName(lat.Rows, lat.Cols), lat.Rows, lat.Cols)
		}
		g.SetHeat(c)
	}
	for i, w := range m.windows {
		if w != nil {
			w.Reset()
			w.SetInstr(di)
			w.SetTracer(tr, i)
		}
	}
	m.in = newMasterInstr(reg)
	m.tr = tr
	m.bw = bw
	m.cycle = 0
	m.escalatedTotal = 0
	m.globalCorr = 0
}

// Dispatch queues one logical instruction for a tile. Bus bytes are metered
// immediately (the packet crosses the global bus when sent).
func (m *Master) Dispatch(tile int, in isa.LogicalInstr) error {
	if tile < 0 || tile >= len(m.tiles) {
		return fmt.Errorf("master: tile %d outside [0,%d)", tile, len(m.tiles))
	}
	if m.mesh != nil {
		if err := m.mesh.Inject(noc.Packet{Dst: tile, Payload: in.Encode()}); err != nil {
			return err
		}
	} else {
		m.queues[tile] = append(m.queues[tile], packet{tile: tile, instr: in})
	}
	m.Logical.Add(1, isa.LogicalInstrBytes)
	if m.bw != nil {
		m.bw.Observe(m.cycle, bwprofile.BusLogical, bwprofile.ClassOf(in.Op), 1, isa.LogicalInstrBytes)
	}
	m.in.dispatched.Inc()
	if m.tr != nil {
		m.tr.InstantArg("master", 0, "dispatch", int64(m.cycle), "tile", int64(tile))
	}
	return nil
}

// SendSync broadcasts a synchronization token to a tile (sequencing for
// cache refills and cross-MCE operations).
func (m *Master) SendSync(tile int, id uint16) error {
	in := isa.LogicalInstr{Op: isa.LSyncToken, Target: uint8(id >> 8), Arg: uint8(id & 0x3f)}
	if tile < 0 || tile >= len(m.tiles) {
		return fmt.Errorf("master: tile %d outside [0,%d)", tile, len(m.tiles))
	}
	if m.mesh != nil {
		if err := m.mesh.Inject(noc.Packet{Dst: tile, Payload: in.Encode()}); err != nil {
			return err
		}
	} else {
		m.queues[tile] = append(m.queues[tile], packet{tile: tile, instr: in})
	}
	m.Sync.Add(1, isa.LogicalInstrBytes)
	if m.bw != nil {
		m.bw.Observe(m.cycle, bwprofile.BusSync, bwprofile.ClassSync, 1, isa.LogicalInstrBytes)
	}
	m.in.syncsSent.Inc()
	if m.tr != nil {
		m.tr.InstantArg("master", 0, "sync", int64(m.cycle), "tile", int64(tile))
	}
	return nil
}

// LoadCache ships a loop body to a tile's instruction cache, metering its
// bytes once — afterwards LCacheRun tokens replay it for free.
func (m *Master) LoadCache(tile, slot int, body []isa.LogicalInstr) error {
	if tile < 0 || tile >= len(m.tiles) {
		return fmt.Errorf("master: tile %d outside [0,%d)", tile, len(m.tiles))
	}
	if err := m.tiles[tile].LoadCacheSlot(slot, body); err != nil {
		return err
	}
	m.Cache.Add(uint64(len(body)), uint64(len(body)*isa.LogicalInstrBytes))
	if m.bw != nil {
		m.bw.Observe(m.cycle, bwprofile.BusCache, bwprofile.ClassCache,
			uint64(len(body)), uint64(len(body)*isa.LogicalInstrBytes))
	}
	m.in.cacheBodies.Inc()
	if m.tr != nil {
		m.tr.InstantArg("master", 0, "cache.load", int64(m.cycle), "bytes", int64(len(body)*isa.LogicalInstrBytes))
	}
	return nil
}

// RunCached dispatches a batched cache-replay token.
func (m *Master) RunCached(tile, slot, times int) error {
	if times < 1 || times > 63 {
		return fmt.Errorf("master: cache replay count %d outside [1,63]", times)
	}
	return m.Dispatch(tile, isa.LogicalInstr{Op: isa.LCacheRun, Target: uint8(slot), Arg: uint8(times)})
}

// MoveLogical coordinates a logical-qubit move between two MCE tiles — the
// "logical qubit movement ... across MCEs" that the paper's synchronization
// tokens exist for (§7, footnote 9: the paper defines but does not evaluate
// cross-MCE logical operations; we implement the token protocol and its
// instruction traffic). The sequence: a paired sync token fences both tiles,
// the destination patch is prepared, both tiles step their masks
// (LMaskMove), and the source patch is measured out. Traffic: 2 sync tokens
// + 4 logical instructions = 12 bytes per move, independent of code
// distance.
func (m *Master) MoveLogical(srcTile, srcPatch, dstTile, dstPatch int, token uint16) error {
	if srcTile == dstTile {
		return fmt.Errorf("master: MoveLogical within tile %d (use a braid instead)", srcTile)
	}
	if err := m.SendSync(srcTile, token); err != nil {
		return err
	}
	if err := m.SendSync(dstTile, token); err != nil {
		return err
	}
	steps := []struct {
		tile int
		in   isa.LogicalInstr
	}{
		{dstTile, isa.LogicalInstr{Op: isa.LPrep0, Target: uint8(dstPatch)}},
		{srcTile, isa.LogicalInstr{Op: isa.LMaskMove, Target: uint8(srcPatch)}},
		{dstTile, isa.LogicalInstr{Op: isa.LMaskMove, Target: uint8(dstPatch)}},
		{srcTile, isa.LogicalInstr{Op: isa.LMeasX, Target: uint8(srcPatch)}},
	}
	for _, s := range steps {
		if err := m.Dispatch(s.tile, s.in); err != nil {
			return err
		}
	}
	return nil
}

// CycleReport aggregates one machine cycle.
type CycleReport struct {
	Cycle          int
	MicroOps       int
	LogicalRetired int
	Escalated      int
	GlobalMatches  int
	MagicProduced  int
	Results        []mce.LogicalResult
}

// StepCycle advances the whole machine one QECC cycle: deliver queued
// packets within the network budget, tick the factories, step every MCE, and
// globally decode escalated defects.
func (m *Master) StepCycle() CycleReport {
	rep := CycleReport{Cycle: m.cycle}

	// Network delivery.
	if m.mesh != nil {
		if m.overflow == nil {
			m.overflow = make([][]isa.LogicalInstr, len(m.tiles))
		}
		deliver := func(tile int, in isa.LogicalInstr) {
			if m.tiles[tile].FreeBufferSlots() == 0 {
				m.overflow[tile] = append(m.overflow[tile], in)
				return
			}
			if err := m.tiles[tile].Enqueue(in); err != nil {
				// A race between FreeBufferSlots and non-buffered ops is
				// impossible (control-plane ops never fill the buffer), so
				// any error here is a programming bug.
				panic(fmt.Sprintf("master: delivery failed: %v", err))
			}
		}
		for tile := range m.tiles {
			pending := m.overflow[tile]
			m.overflow[tile] = nil
			for _, in := range pending {
				deliver(tile, in)
			}
		}
		for tile, pkts := range m.mesh.Step() {
			for _, p := range pkts {
				in, err := isa.DecodeLogical(p.Payload)
				if err != nil {
					panic(fmt.Sprintf("master: corrupt packet: %v", err))
				}
				deliver(tile, in)
			}
		}
	} else {
		for tile, q := range m.queues {
			n := m.cfg.PacketsPerCycle
			// Flow control: never overrun the MCE's instruction buffer.
			if free := m.tiles[tile].FreeBufferSlots(); n > free {
				n = free
			}
			if n > len(q) {
				n = len(q)
			}
			for _, p := range q[:n] {
				if err := m.tiles[tile].Enqueue(p.instr); err != nil {
					panic(fmt.Sprintf("master: delivery failed: %v", err))
				}
			}
			if n > 0 && m.tr != nil {
				m.tr.SpanArg("noc", tile, "deliver", int64(m.cycle), 1, "pkts", int64(n))
			}
			m.queues[tile] = q[n:]
		}
	}

	// Factory feed: produced states go to the hungriest tile (smallest
	// local pool), so a tile stalled on T gates is replenished first.
	for _, f := range m.factories {
		if out := f.Tick(); out > 0 {
			hungriest := 0
			for i, t := range m.tiles {
				if t.MagicStates() < m.tiles[hungriest].MagicStates() {
					hungriest = i
				}
			}
			m.tiles[hungriest].SupplyMagicStates(out)
			rep.MagicProduced += out
			if m.tr != nil {
				m.tr.InstantArg("master", 0, "magic", int64(m.cycle), "n", int64(out))
			}
		}
	}

	// Step tiles and decode escalations.
	for i, t := range m.tiles {
		r := t.StepCycle()
		rep.MicroOps += r.MicroOpsIssued
		rep.LogicalRetired += r.LogicalRetired
		rep.Results = append(rep.Results, r.LogicalResults...)
		if len(r.DefectsEscalated) > 0 {
			rep.Escalated += len(r.DefectsEscalated)
			m.escalatedTotal += uint64(len(r.DefectsEscalated))
			m.in.escalated.Add(uint64(len(r.DefectsEscalated)))
			// Syndrome data returns over the global bus: one byte per
			// escalated defect record (position+round packed).
			m.Syndrome.Add(uint64(len(r.DefectsEscalated)), uint64(len(r.DefectsEscalated)))
			if m.bw != nil {
				m.bw.Observe(m.cycle, bwprofile.BusSyndrome, bwprofile.ClassSyndrome,
					uint64(len(r.DefectsEscalated)), uint64(len(r.DefectsEscalated)))
			}
			if m.tr != nil {
				m.tr.InstantArg("decoder", i, "escalate", int64(m.cycle), "defects", int64(len(r.DefectsEscalated)))
			}
		}
		if w := m.windows[i]; w != nil {
			if applied := w.Absorb(r.DefectsEscalated, t.Frame()); applied > 0 {
				rep.GlobalMatches += applied
				m.globalCorr++
				m.in.globalDecodes.Inc()
			}
			continue
		}
		if len(r.DefectsEscalated) > 0 {
			decodeStart := time.Now() //quest:allow(seedsrc) wall-clock latency metric only; the value never reaches simulation state
			xs, zs := decoder.SplitByType(r.DefectsEscalated)
			for _, group := range [2][]decoder.Defect{xs, zs} {
				if len(group) == 0 {
					continue
				}
				match := m.global[i].Match(group)
				rep.GlobalMatches += len(match.Pairs) + len(match.ToBoundary)
				for _, c := range m.global[i].Corrections(group, match) {
					t.Frame().Apply(c)
				}
				m.globalCorr++
				m.in.globalDecodes.Inc()
			}
			m.in.decodeNs.Observe(float64(time.Since(decodeStart)))
			if m.tr != nil {
				m.tr.SpanArg("decoder", i, "global", int64(m.cycle), 1, "defects", int64(len(r.DefectsEscalated)))
			}
		}
	}
	m.cycle++
	m.in.cycles.Inc()
	return rep
}

// FlushDecodeWindows force-decodes any buffered window defects (call before
// reading out final logical results when DecodeWindow > 1).
func (m *Master) FlushDecodeWindows() {
	for i, w := range m.windows {
		if w != nil {
			if w.Flush(m.tiles[i].Frame()) > 0 {
				m.globalCorr++
			}
		}
	}
}

// RunUntilDrained steps cycles until every tile's logical backlog is empty,
// up to maxCycles. It returns the reports and whether the drain completed.
// Open decode windows are flushed on successful drain.
func (m *Master) RunUntilDrained(maxCycles int) ([]CycleReport, bool) {
	var reps []CycleReport
	for c := 0; c < maxCycles; c++ {
		reps = append(reps, m.StepCycle())
		done := m.mesh == nil || m.mesh.Pending() == 0
		if done {
			for tile, q := range m.queues {
				if len(q) > 0 || m.tiles[tile].PendingLogical() > 0 {
					done = false
					break
				}
				if m.overflow != nil && len(m.overflow[tile]) > 0 {
					done = false
					break
				}
			}
		}
		if done {
			m.FlushDecodeWindows()
			return reps, true
		}
	}
	return reps, false
}

// InstructionBusBytes returns the downstream instruction traffic (logical +
// sync + cache loads) — the quantity QuEST is designed to minimize.
func (m *Master) InstructionBusBytes() uint64 {
	return m.Logical.Bytes() + m.Sync.Bytes() + m.Cache.Bytes()
}

// Stats returns (total escalated defects, global decode invocations).
func (m *Master) Stats() (escalated, globalDecodes uint64) {
	return m.escalatedTotal, m.globalCorr
}
