// Package decoder implements the paper's two-level error decoding scheme
// (§4.2, Appendix A.2). Syndrome measurements from each QECC cycle are
// differenced in time to produce *defects* (syndrome changes). A local,
// lookup-table decoder inside each MCE resolves the common case — an
// isolated single-qubit error, which produces one or two adjacent defects in
// a single round — and only unresolved defect patterns escalate to the
// global decoder in the master controller, which runs minimum-weight
// matching over the space-time defect graph.
//
// Because X and Z errors are unitary, corrections are not applied as
// physical gates: they accumulate in a Pauli frame (a classical log) that is
// consulted when qubits are finally measured, exactly as the paper describes.
package decoder

import (
	"fmt"
	"math"
	"math/bits"
	"sort"
	"time"

	"quest/internal/heatmap"
	"quest/internal/surface"
)

// Defect is a syndrome change at a lattice ancilla in a specific round.
type Defect struct {
	Round int
	Qubit int // flat ancilla index
	R, C  int // lattice coordinates (denormalized for distance math)
	IsX   bool
}

// SyndromeHistory differences consecutive syndrome rounds into defects. The
// zero value is not usable; construct with NewHistory.
//
// The reference frame is a flat slice indexed by qubit (-1 = no reference)
// rather than a map, and a round arrives the same way (AbsorbRound): rounds
// come every cycle, and dense slices turn the per-round map churn into
// index stores. Both absorb forms scan qubits in index order, so the
// returned defect slice has a deterministic order.
type SyndromeHistory struct {
	lat   surface.Lattice
	prev  []int8 // -1 = unknown, else last observed bit
	round int
	heat  *heatmap.Collector // nil unless SetHeat bound one
}

// NewHistory returns an empty history for the lattice.
func NewHistory(lat surface.Lattice) *SyndromeHistory {
	h := &SyndromeHistory{lat: lat, prev: make([]int8, lat.NumQubits())}
	for i := range h.prev {
		h.prev[i] = -1
	}
	return h
}

// Round returns the number of rounds absorbed so far.
func (h *SyndromeHistory) Round() int { return h.round }

// AbsorbRound ingests one round of syndrome bits, one entry per lattice
// qubit: bits[q] is ancilla q's bit, or -1 when the round did not measure
// q. It returns the defects: ancillas whose bit changed since the previous
// round. The first round establishes the reference frame and yields no
// defects for ancillas whose initial random value is first observed
// (X-syndromes start random; treating round 0 as reference is the standard
// convention).
func (h *SyndromeHistory) AbsorbRound(bits []int8) []Defect {
	var defects []Defect
	for q := range h.prev {
		if bit := bits[q]; bit >= 0 {
			defects = h.absorbBit(defects, q, bit)
		}
	}
	h.round++
	return defects
}

// Absorb is AbsorbRound for a round given as a map (ancilla flat index →
// bit). Keys outside the lattice are ignored.
func (h *SyndromeHistory) Absorb(synd map[int]int) []Defect {
	var defects []Defect
	for q := range h.prev {
		if bit, ok := synd[q]; ok {
			defects = h.absorbBit(defects, q, int8(bit))
		}
	}
	h.round++
	return defects
}

// absorbBit is the differencing step of one measured ancilla: a defect,
// appended to defects, when its bit differs from a known reference in a
// round past the first; the bit then becomes the reference.
func (h *SyndromeHistory) absorbBit(defects []Defect, q int, bit int8) []Defect {
	if prev := h.prev[q]; prev >= 0 && prev != bit && h.round > 0 {
		r, c := h.lat.Coord(q)
		defects = append(defects, Defect{
			Round: h.round,
			Qubit: q,
			R:     r,
			C:     c,
			IsX:   h.lat.RoleOf(q) == surface.RoleAncillaX,
		})
		if h.heat != nil {
			h.heat.Defect(r, c)
		}
	}
	h.prev[q] = bit
	return defects
}

// Reset clears the history.
func (h *SyndromeHistory) Reset() {
	for i := range h.prev {
		h.prev[i] = -1
	}
	h.round = 0
}

// Forget drops the reference values of the given ancillas, so their next
// observation re-establishes the frame instead of producing defects. Used
// when a patch is (re)initialized or measured out: the old syndrome record
// no longer describes the state.
func (h *SyndromeHistory) Forget(qubits []int) {
	for _, q := range qubits {
		h.prev[q] = -1
	}
}

// Correction is a Pauli correction on a data qubit recorded in the frame.
type Correction struct {
	Qubit int
	// FlipX true corrects an X (bit-flip) error; otherwise a Z error.
	FlipX bool
}

// bitset is a lazily grown bit vector keyed by qubit index.
type bitset []uint64

func (b *bitset) toggle(i int) {
	w := i >> 6
	for w >= len(*b) {
		*b = append(*b, 0)
	}
	(*b)[w] ^= 1 << (uint(i) & 63)
}

func (b bitset) get(i int) bool {
	w := i >> 6
	return w < len(b) && b[w]&(1<<(uint(i)&63)) != 0
}

func (b bitset) unset(i int) {
	w := i >> 6
	if w < len(b) {
		b[w] &^= 1 << (uint(i) & 63)
	}
}

// PauliFrame is the classical correction log. Corrections toggle: applying
// the same correction twice cancels it.
//
// The frame is consulted and updated every decode round, so pending flips
// live in bitsets rather than maps: Apply is one XOR instead of a map
// insert/delete pair, and ParityOn is a bit probe per support qubit. The
// BenchmarkFrameToggle benchmark quantifies the difference.
type PauliFrame struct {
	x bitset
	z bitset
}

// NewPauliFrame returns an empty frame.
func NewPauliFrame() *PauliFrame {
	return &PauliFrame{}
}

// Apply toggles a correction in the frame.
func (f *PauliFrame) Apply(c Correction) {
	if c.FlipX {
		f.x.toggle(c.Qubit)
	} else {
		f.z.toggle(c.Qubit)
	}
}

// Reset drops every pending flip, returning the frame to its freshly
// constructed state while keeping the bitset storage — the batched trial
// engine pools frames across trials instead of reallocating per trial.
func (f *PauliFrame) Reset() {
	for i := range f.x {
		f.x[i] = 0
	}
	for i := range f.z {
		f.z[i] = 0
	}
}

// Clear drops all pending flips on the given qubits (used when a patch is
// re-prepared: the fresh state owes nothing to past corrections).
func (f *PauliFrame) Clear(qubits []int) {
	for _, q := range qubits {
		f.x.unset(q)
		f.z.unset(q)
	}
}

// XFlips returns the set of qubits with pending X corrections.
func (f *PauliFrame) XFlips() map[int]bool { return f.x.asMap() }

// ZFlips returns the set of qubits with pending Z corrections.
func (f *PauliFrame) ZFlips() map[int]bool { return f.z.asMap() }

// asMap materializes the set bits as the map the reporting API exposes.
func (b bitset) asMap() map[int]bool {
	m := make(map[int]bool)
	for w, word := range b {
		for word != 0 {
			m[w*64+bits.TrailingZeros64(word)] = true
			word &= word - 1
		}
	}
	return m
}

// ParityOn returns the parity (0/1) of pending flips of the given kind over
// the support set — used to adjust logical measurement outcomes.
func (f *PauliFrame) ParityOn(support []int, flipX bool) int {
	b := f.z
	if flipX {
		b = f.x
	}
	p := 0
	for _, q := range support {
		if b.get(q) {
			p ^= 1
		}
	}
	return p
}

// LocalDecoder is the MCE-resident lookup-table decoder. It handles the
// frequent case the paper assigns to it: isolated single-qubit errors, which
// appear as one defect (boundary-adjacent error) or a pair of defects of the
// same type in the same round whose ancillas share exactly one data qubit.
// Anything else is left for the global decoder.
type LocalDecoder struct {
	lat surface.Lattice
	// lut maps a sorted ancilla pair (a<<32|b) to the shared data qubit.
	lut map[uint64]int
	// boundaryLUT maps a single boundary-row ancilla to the data qubit
	// between it and the boundary.
	boundaryLUT map[int]int
}

// NewLocalDecoder builds the lookup tables for a lattice. Table construction
// is the "programming" of the MCE's decode pipeline.
func NewLocalDecoder(lat surface.Lattice) *LocalDecoder {
	d := &LocalDecoder{lat: lat, lut: make(map[uint64]int), boundaryLUT: make(map[int]int)}
	ancillas := append(lat.Qubits(surface.RoleAncillaX), lat.Qubits(surface.RoleAncillaZ)...)
	// Pairs sharing one data qubit.
	owner := make(map[int][]int) // data qubit -> adjacent same-type ancillas
	for _, a := range ancillas {
		for _, dq := range lat.StabilizerSupport(a) {
			owner[dq] = append(owner[dq], a)
		}
	}
	// Visit data qubits in index order, not map order: the boundaryLUT
	// entries below are first-writer-wins, so randomized iteration let two
	// runs of the same binary claim a boundary ancilla for different data
	// qubits and decode the same syndrome to different (if homologically
	// equivalent) corrections. TestLocalDecoderConstructionDeterministic
	// pins this.
	dqs := make([]int, 0, len(owner))
	for dq := range owner {
		dqs = append(dqs, dq)
	}
	sort.Ints(dqs)
	for _, dq := range dqs {
		as := owner[dq]
		for i := 0; i < len(as); i++ {
			for j := i + 1; j < len(as); j++ {
				if lat.RoleOf(as[i]) != lat.RoleOf(as[j]) {
					continue
				}
				k := pairKey(as[i], as[j])
				d.lut[k] = dq
			}
		}
		// A data qubit adjacent to exactly one ancilla of a type is a
		// boundary qubit for that type: a single defect there is decodable.
		byType := map[surface.Role][]int{}
		for _, a := range as {
			byType[lat.RoleOf(a)] = append(byType[lat.RoleOf(a)], a)
		}
		for _, role := range []surface.Role{surface.RoleAncillaX, surface.RoleAncillaZ} {
			if group := byType[role]; len(group) == 1 {
				a := group[0]
				if _, dup := d.boundaryLUT[a]; !dup {
					d.boundaryLUT[a] = dq
				}
			}
		}
	}
	return d
}

func pairKey(a, b int) uint64 {
	if a > b {
		a, b = b, a
	}
	return uint64(a)<<32 | uint64(b)
}

// Decode attempts to resolve the round's defects locally. It returns the
// corrections it resolved and the residual defects it could not handle
// (escalated to the global decoder). Defects of different types (X vs Z) are
// decoded independently.
func (d *LocalDecoder) Decode(defects []Defect) (resolved []Correction, residual []Defect) {
	xs, zs := SplitByType(defects)
	for _, group := range [2][]Defect{xs, zs} {
		if len(group) == 0 {
			continue
		}
		isX := group[0].IsX
		switch len(group) {
		case 1:
			a := group[0].Qubit
			if dq, ok := d.boundaryLUT[a]; ok {
				resolved = append(resolved, Correction{Qubit: dq, FlipX: !isX})
				continue
			}
			residual = append(residual, group...)
		case 2:
			if dq, ok := d.lut[pairKey(group[0].Qubit, group[1].Qubit)]; ok {
				resolved = append(resolved, Correction{Qubit: dq, FlipX: !isX})
				continue
			}
			residual = append(residual, group...)
		default:
			residual = append(residual, group...)
		}
	}
	return resolved, residual
}

// LUTSize returns the number of entries across both lookup tables, the
// quantity that sizes the MCE decode-pipeline memory.
func (d *LocalDecoder) LUTSize() int { return len(d.lut) + len(d.boundaryLUT) }

// SplitByType partitions defects into X-type and Z-type groups, preserving
// input order within each group (the map grouping it replaced iterated in
// random order, which made tie-broken matchings nondeterministic).
func SplitByType(defects []Defect) (xs, zs []Defect) {
	for _, d := range defects {
		if d.IsX {
			xs = append(xs, d)
		} else {
			zs = append(zs, d)
		}
	}
	return xs, zs
}

// spaceTimeDistance is the matching weight between two defects: Manhattan
// lattice distance (halved, since ancillas of one type sit two sites apart)
// plus the round gap.
func spaceTimeDistance(a, b Defect) int {
	dr := abs(a.R - b.R)
	dc := abs(a.C - b.C)
	dt := abs(a.Round - b.Round)
	return (dr+dc)/2 + dt
}

// boundaryDistance is a defect's matching weight to its nearest code
// boundary. X-syndrome chains terminate on west/east boundaries, Z-syndrome
// chains on north/south (matching the planar code's logical operator
// orientation).
func boundaryDistance(lat surface.Lattice, d Defect) int {
	if d.IsX {
		west := (d.C + 1) / 2
		east := (lat.Cols - d.C) / 2
		return minInt(west, east)
	}
	north := (d.R + 1) / 2
	south := (lat.Rows - d.R) / 2
	return minInt(north, south)
}

func abs(x int) int {
	if x < 0 {
		return -x
	}
	return x
}

func minInt(a, b int) int {
	if a < b {
		return a
	}
	return b
}

// Matching pairs defects with each other or with the boundary.
type Matching struct {
	// Pairs lists matched defect index pairs (into the input slice).
	Pairs [][2]int
	// ToBoundary lists defect indices matched to the boundary.
	ToBoundary []int
	// Weight is the total matching weight.
	Weight int
}

// GlobalDecoder is the master-controller decoder: minimum-weight matching on
// the space-time defect graph. Exact (dynamic programming over subsets) for
// up to MaxExact defects per type, greedy-with-boundary beyond that.
//
// A GlobalDecoder reuses its DP and marker scratch buffers across Match
// calls (the per-call allocations dominated the exact matcher's profile), so
// a single instance must not run Match concurrently from multiple
// goroutines. Every use site — one decoder per master tile, one per
// Monte-Carlo trial — already owns its instance exclusively.
type GlobalDecoder struct {
	lat surface.Lattice
	// MaxExact bounds the exact matcher; beyond it the greedy matcher runs.
	MaxExact int

	instr *Instr
	heat  *heatmap.Collector // nil unless SetHeat bound one

	// Scratch buffers reused across calls (see type comment).
	dpBuf, choiceBuf []int32
	usedBuf          []bool
}

// NewGlobalDecoder returns a decoder for the lattice with unit weights.
func NewGlobalDecoder(lat surface.Lattice) *GlobalDecoder {
	return &GlobalDecoder{lat: lat, MaxExact: 14, instr: defaultInstr}
}

// SetInstr rebinds the decoder's instruments (e.g. to a per-worker metrics
// shard). A nil value restores the default registry.
func (g *GlobalDecoder) SetInstr(in *Instr) {
	if in == nil {
		in = defaultInstr
	}
	g.instr = in
}

// pairCost is the matchers' cost of pairing two defects: each lattice axis
// gap halved on its own (ancillas of one type sit two sites apart), plus
// the round gap. It rounds differently from spaceTimeDistance's
// (ΔR+ΔC)/2, and matchings depend on the difference.
func pairCost(a, b Defect) int {
	return abs(a.R-b.R)/2 + abs(a.C-b.C)/2 + abs(a.Round-b.Round)
}

// Match computes a minimum-weight matching of same-type defects, allowing
// boundary matches. All input defects must share a type.
func (g *GlobalDecoder) Match(defects []Defect) Matching {
	for i := 1; i < len(defects); i++ {
		if defects[i].IsX != defects[0].IsX {
			panic("decoder: Match requires same-type defects")
		}
	}
	start := time.Now() //quest:allow(seedsrc) wall-clock latency metric only; the value never reaches simulation state
	var m Matching
	if len(defects) <= g.MaxExact {
		m = g.exactMatch(defects)
		g.instr.matchExact.Inc()
	} else {
		m = g.greedyMatch(defects)
		g.instr.matchGreedy.Inc()
	}
	g.instr.matchCalls.Inc()
	g.instr.matchDefects.Add(uint64(len(defects)))
	g.instr.matchNs.Observe(float64(time.Since(start)))
	if g.heat != nil {
		recordMatching(g.heat, g.lat, defects, m)
	}
	return m
}

// exactMatch solves MWPM-with-boundary exactly by DP over defect subsets:
// O(2^n · n) time, fine for n ≤ ~16. The DP tables live in per-decoder
// scratch buffers: at n=10 the two per-call allocations were 8KB of the
// matcher's footprint, and windowed decoding calls Match every d rounds.
func (g *GlobalDecoder) exactMatch(defects []Defect) Matching {
	n := len(defects)
	if n == 0 {
		return Matching{}
	}
	const inf = math.MaxInt32
	full := 1 << n
	if cap(g.dpBuf) < full {
		g.dpBuf = make([]int32, full)
		g.choiceBuf = make([]int32, full)
	}
	dp := g.dpBuf[:full]
	choice := g.choiceBuf[:full] // encodes the decision taken at each state
	dp[0] = 0
	for s := 1; s < full; s++ {
		dp[s] = inf
	}
	for s := 1; s < full; s++ {
		// Lowest set bit must be resolved now: either to boundary or paired.
		i := 0
		for s&(1<<i) == 0 {
			i++
		}
		rest := s &^ (1 << i)
		// Boundary.
		if w := int32(boundaryDistance(g.lat, defects[i])) + dp[rest]; w < dp[s] {
			dp[s] = w
			choice[s] = -1
		}
		// Pair with each other set defect.
		for j := i + 1; j < n; j++ {
			if s&(1<<j) == 0 {
				continue
			}
			r2 := rest &^ (1 << j)
			if w := int32(pairCost(defects[i], defects[j])) + dp[r2]; w < dp[s] {
				dp[s] = w
				choice[s] = int32(j)
			}
		}
	}
	// Reconstruct.
	var m Matching
	s := full - 1
	for s != 0 {
		i := 0
		for s&(1<<i) == 0 {
			i++
		}
		if choice[s] < 0 {
			m.ToBoundary = append(m.ToBoundary, i)
			s &^= 1 << i
		} else {
			j := int(choice[s])
			m.Pairs = append(m.Pairs, [2]int{i, j})
			s &^= 1<<i | 1<<j
		}
	}
	m.Weight = int(dp[full-1])
	return m
}

// greedyMatch repeatedly takes the globally cheapest available edge
// (defect-defect or defect-boundary). Not optimal but O(n² log n) and
// adequate above the exact matcher's range.
func (g *GlobalDecoder) greedyMatch(defects []Defect) Matching {
	n := len(defects)
	if cap(g.usedBuf) < n {
		g.usedBuf = make([]bool, n)
	}
	used := g.usedBuf[:n]
	for i := range used {
		used[i] = false
	}
	var m Matching
	for {
		bestW := math.MaxInt32
		bestI, bestJ := -1, -1 // j == -1 means boundary
		for i := 0; i < n; i++ {
			if used[i] {
				continue
			}
			if w := boundaryDistance(g.lat, defects[i]); w < bestW {
				bestW, bestI, bestJ = w, i, -1
			}
			for j := i + 1; j < n; j++ {
				if used[j] {
					continue
				}
				if w := pairCost(defects[i], defects[j]); w < bestW {
					bestW, bestI, bestJ = w, i, j
				}
			}
		}
		if bestI < 0 {
			break
		}
		used[bestI] = true
		if bestJ >= 0 {
			used[bestJ] = true
			m.Pairs = append(m.Pairs, [2]int{bestI, bestJ})
		} else {
			m.ToBoundary = append(m.ToBoundary, bestI)
		}
		m.Weight += bestW
	}
	return m
}

// Corrections converts a matching into Pauli-frame corrections by walking
// the correction chain between matched defects (or defect and boundary) and
// toggling the data qubits along it.
func (g *GlobalDecoder) Corrections(defects []Defect, m Matching) []Correction {
	var out []Correction
	emitChain := func(d Defect, r1, c1 int) {
		// Walk rows then columns in steps of 2 (ancilla spacing), toggling
		// the data qubit between consecutive ancilla positions.
		r, c := d.R, d.C
		for r != r1 {
			step := sign(r1 - r)
			mid := g.lat.Index(r+step, c)
			out = append(out, Correction{Qubit: mid, FlipX: !d.IsX})
			r += 2 * step
		}
		for c != c1 {
			step := sign(c1 - c)
			mid := g.lat.Index(r, c+step)
			out = append(out, Correction{Qubit: mid, FlipX: !d.IsX})
			c += 2 * step
		}
	}
	for _, p := range m.Pairs {
		a, b := defects[p[0]], defects[p[1]]
		emitChain(a, b.R, b.C)
	}
	for _, i := range m.ToBoundary {
		d := defects[i]
		if d.IsX {
			// Terminate on the nearer of west/east boundaries.
			if (d.C+1)/2 <= (g.lat.Cols-d.C)/2 {
				emitChain(d, d.R, -1)
			} else {
				emitChain(d, d.R, g.lat.Cols)
			}
		} else {
			if (d.R+1)/2 <= (g.lat.Rows-d.R)/2 {
				emitChain(d, -1, d.C)
			} else {
				emitChain(d, g.lat.Rows, d.C)
			}
		}
	}
	return out
}

func sign(x int) int {
	switch {
	case x > 0:
		return 1
	case x < 0:
		return -1
	}
	return 0
}

// ChainIsValid reports whether the emitted correction chain endpoints are
// inside the lattice (diagnostic helper for tests).
func ChainIsValid(lat surface.Lattice, corr []Correction) error {
	for _, c := range corr {
		if c.Qubit < 0 || c.Qubit >= lat.NumQubits() {
			return fmt.Errorf("decoder: correction on out-of-range qubit %d", c.Qubit)
		}
		if lat.RoleOf(c.Qubit) != surface.RoleData {
			return fmt.Errorf("decoder: correction on non-data qubit %d", c.Qubit)
		}
	}
	return nil
}
