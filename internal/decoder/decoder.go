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
// The reference frame is a pair of bitsets over the lattice's qubits, 64 a
// word, rather than a map, and a round arrives the same way (AbsorbRound):
// rounds come every cycle, and a round's differencing is a few word
// operations per 64 qubits, whatever it measured. Both absorb forms visit
// qubits in index order, so the returned defect slice has a deterministic
// order. They return the history's own defect scratch, valid until the next
// absorb.
type SyndromeHistory struct {
	lat surface.Lattice
	// known marks the qubits with a reference bit, and prev holds those
	// bits.
	known, prev []uint64
	round       int
	heat        *heatmap.Collector // nil unless SetHeat bound one
	defects     []Defect           // the last absorbed round's defects
}

// NewHistory returns an empty history for the lattice.
func NewHistory(lat surface.Lattice) *SyndromeHistory {
	w := (lat.NumQubits() + 63) / 64
	return &SyndromeHistory{lat: lat, known: make([]uint64, w), prev: make([]uint64, w)}
}

// Round returns the number of rounds absorbed so far.
func (h *SyndromeHistory) Round() int { return h.round }

// AbsorbRound ingests one round of syndrome bits as bitsets over the
// lattice's qubits, 64 a word (bit q of the whole is qubit q): measured
// marks the qubits the round measured, and outcomes holds their bits (bits
// of unmeasured qubits are ignored). Both are at least a word per 64
// lattice qubits. It returns the defects: qubits whose bit changed since
// their previous measured round. The first round establishes the reference
// frame and yields no defects for ancillas whose initial random value is
// first observed (X-syndromes start random; treating round 0 as reference
// is the standard convention). The returned slice is the history's
// scratch: the next absorb overwrites it.
func (h *SyndromeHistory) AbsorbRound(measured, outcomes []uint64) []Defect {
	h.defects = h.defects[:0]
	outcomes = outcomes[:len(h.known)]
	for j, m := range measured[:len(h.known)] {
		if m == 0 {
			continue
		}
		if h.round > 0 {
			for d := m & h.known[j] & (h.prev[j] ^ outcomes[j]); d != 0; d &= d - 1 {
				h.defect(j<<6 | bits.TrailingZeros64(d))
			}
		}
		h.prev[j] = h.prev[j]&^m | outcomes[j]&m
		h.known[j] |= m
	}
	h.round++
	return h.defects
}

// Absorb is AbsorbRound for a round given as a map (ancilla flat index →
// bit). Keys outside the lattice are ignored.
func (h *SyndromeHistory) Absorb(synd map[int]int) []Defect {
	h.defects = h.defects[:0]
	for q := 0; q < h.lat.NumQubits(); q++ {
		bit, ok := synd[q]
		if !ok {
			continue
		}
		w, m := q>>6, uint64(1)<<(uint(q)&63)
		if h.known[w]&m != 0 && (h.prev[w]&m != 0) != (bit != 0) && h.round > 0 {
			h.defect(q)
		}
		h.prev[w] &^= m
		if bit != 0 {
			h.prev[w] |= m
		}
		h.known[w] |= m
	}
	h.round++
	return h.defects
}

// defect appends a defect at qubit q in this round, recording its heat.
func (h *SyndromeHistory) defect(q int) {
	r, c := h.lat.Coord(q)
	h.defects = append(h.defects, Defect{
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

// Reset clears the history.
func (h *SyndromeHistory) Reset() {
	clear(h.known)
	h.round = 0
}

// Forget drops the reference values of the given ancillas, so their next
// observation re-establishes the frame instead of producing defects. Used
// when a patch is (re)initialized or measured out: the old syndrome record
// no longer describes the state.
func (h *SyndromeHistory) Forget(qubits []int) {
	for _, q := range qubits {
		h.known[q>>6] &^= 1 << (uint(q) & 63)
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
//
// Like the MCE's hardware table (§4.2), the tables are dense and sized once
// per lattice: arrays indexed by ancilla, so a lookup is an index and a
// short scan, never a hash. A decoder is read-only once built, so engines
// may share one across goroutines.
type LocalDecoder struct {
	// lut[a] lists the pairs (a, b), a < b, of same-type ancillas that share
	// a data qubit, with that qubit; unused ways have partner -1.
	lut [][lutWays]lutPair
	// boundaryLUT[a] is the data qubit between boundary ancilla a and the
	// boundary, or -1 when a single defect at a is not decodable.
	boundaryLUT []int32
	// size counts the entries of both tables.
	size int
}

// lutWays bounds the pairs one ancilla heads in the pair table: on the
// planar lattice, the same-type ancillas one data qubit further along its
// row and down its column.
const lutWays = 2

// lutPair is one way of a pair-table row.
type lutPair struct{ partner, data int32 }

// NewLocalDecoder builds the lookup tables for a lattice. Table construction
// is the "programming" of the MCE's decode pipeline.
func NewLocalDecoder(lat surface.Lattice) *LocalDecoder {
	n := lat.NumQubits()
	d := &LocalDecoder{lut: make([][lutWays]lutPair, n), boundaryLUT: make([]int32, n)}
	for a := range d.lut {
		for k := range d.lut[a] {
			d.lut[a][k] = lutPair{partner: -1, data: -1}
		}
		d.boundaryLUT[a] = -1
	}
	// owner[dq] lists the ancillas adjacent to data qubit dq, X-type first.
	owner := make([][]int, n)
	for _, role := range [2]surface.Role{surface.RoleAncillaX, surface.RoleAncillaZ} {
		for _, a := range lat.Qubits(role) {
			for _, dq := range lat.StabilizerSupport(a) {
				owner[dq] = append(owner[dq], a)
			}
		}
	}
	// Visit data qubits in index order: a boundary entry is claimed by the
	// first data qubit that qualifies, and a pair entry by the last, so the
	// tables are a function of the lattice alone.
	// TestLocalDecoderConstructionDeterministic pins this.
	for dq, as := range owner {
		for i := 0; i < len(as); i++ {
			for j := i + 1; j < len(as); j++ {
				if lat.RoleOf(as[i]) == lat.RoleOf(as[j]) {
					d.setPair(as[i], as[j], dq)
				}
			}
		}
		// A data qubit adjacent to exactly one ancilla of a type is a
		// boundary qubit for that type: a single defect there is decodable.
		for _, role := range [2]surface.Role{surface.RoleAncillaX, surface.RoleAncillaZ} {
			lone, count := -1, 0
			for _, a := range as {
				if lat.RoleOf(a) == role {
					lone = a
					count++
				}
			}
			if count == 1 && d.boundaryLUT[lone] < 0 {
				d.boundaryLUT[lone] = int32(dq)
				d.size++
			}
		}
	}
	return d
}

// setPair records that ancillas a and b share data qubit dq, replacing the
// qubit an earlier call recorded for the pair.
func (d *LocalDecoder) setPair(a, b, dq int) {
	if a > b {
		a, b = b, a
	}
	row := &d.lut[a]
	for k := range row {
		switch row[k].partner {
		case int32(b):
			row[k].data = int32(dq)
			return
		case -1:
			row[k] = lutPair{partner: int32(b), data: int32(dq)}
			d.size++
			return
		}
	}
	panic(fmt.Sprintf("decoder: ancilla %d heads more than %d LUT pairs", a, lutWays))
}

// pair returns the data qubit ancillas a and b share, or -1.
func (d *LocalDecoder) pair(a, b int) int32 {
	if a > b {
		a, b = b, a
	}
	for _, e := range &d.lut[a] {
		if e.partner == int32(b) {
			return e.data
		}
	}
	return -1
}

// Decode attempts to resolve the round's defects locally. It appends the
// corrections it resolved to resolved and the residual defects it could not
// handle (escalated to the global decoder) to residual, and returns both:
// callers pass their own scratch, truncated, so a warm decode allocates
// nothing. Defects of different types (X vs Z) are decoded independently,
// X first; each type's residual keeps its input order.
func (d *LocalDecoder) Decode(defects []Defect, resolved []Correction, residual []Defect) ([]Correction, []Defect) {
	for _, isX := range [2]bool{true, false} {
		n, first, second := 0, -1, -1
		for i := range defects {
			if defects[i].IsX == isX {
				if n == 0 {
					first = i
				} else if n == 1 {
					second = i
				}
				n++
			}
		}
		dq := int32(-1)
		switch n {
		case 0:
			continue
		case 1:
			dq = d.boundaryLUT[defects[first].Qubit]
		case 2:
			dq = d.pair(defects[first].Qubit, defects[second].Qubit)
		}
		if dq >= 0 {
			resolved = append(resolved, Correction{Qubit: int(dq), FlipX: !isX})
			continue
		}
		for i := range defects {
			if defects[i].IsX == isX {
				residual = append(residual, defects[i])
			}
		}
	}
	return resolved, residual
}

// LUTSize returns the number of entries across both lookup tables, the
// quantity that sizes the MCE decode-pipeline memory.
func (d *LocalDecoder) LUTSize() int { return d.size }

// SplitByType partitions defects into X-type and Z-type groups, preserving
// input order within each group (the map grouping it replaced iterated in
// random order, which made tie-broken matchings nondeterministic). Both
// groups are written to buf, X first: buf's storage is reused when it holds
// every defect and replaced otherwise, and xs[:0] keeps it for the next
// call. buf must not overlap defects.
func SplitByType(buf, defects []Defect) (xs, zs []Defect) {
	if cap(buf) < len(defects) {
		buf = make([]Defect, len(defects))
	}
	buf = buf[:len(defects)]
	nx := 0
	for _, d := range defects {
		if d.IsX {
			buf[nx] = d
			nx++
		}
	}
	k := nx
	for _, d := range defects {
		if !d.IsX {
			buf[k] = d
			k++
		}
	}
	return buf[:nx], buf[nx:]
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

// Matching pairs defects with each other or with the boundary. The one
// Match returns lives in its decoder's scratch, valid until the next Match.
type Matching struct {
	// Pairs lists matched defect index pairs (into the input slice).
	Pairs [][2]int
	// ToBoundary lists defect indices matched to the boundary.
	ToBoundary []int
	// Weight is the total matching weight.
	Weight int
}

// MaxExact is the most defects per type the exact matcher takes; beyond it
// the greedy matcher runs. It sizes the exact matcher's cost tables.
const MaxExact = 14

// GlobalDecoder is the master-controller decoder: minimum-weight matching on
// the space-time defect graph. Exact (a memoized subset recursion that
// visits F(n+2) of the 2ⁿ subsets, 987 at n = 14) for up to MaxExact
// defects per type, greedy-with-boundary beyond that.
//
// A GlobalDecoder reuses its cost tables, memo, marker, matching and
// correction scratch across calls (the per-call allocations dominated the
// exact matcher's profile), so a single instance must not run Match or
// Corrections concurrently from multiple goroutines, and a caller reads
// each result before the next call. Every use site — one decoder per master
// tile, one per Monte-Carlo trial — already owns its instance exclusively.
type GlobalDecoder struct {
	lat surface.Lattice

	instr *Instr
	heat  *heatmap.Collector // nil unless SetHeat bound one

	// The exact matcher's cost tables, filled once per call: bound[i] is
	// defect i's boundary cost and pair[i][j], i < j, its pair cost with j.
	bound [MaxExact]int32
	pair  [MaxExact][MaxExact]int32
	// memo[s] holds subset s's solution when memo[s].gen == gen. Each call
	// takes a fresh gen, and the memo is cleared when gen wraps, so no
	// entry outlives its call.
	memo []matchState
	gen  uint16

	usedBuf []bool // greedyMatch's markers

	// pairs and toBoundary back the Matching a Match call returns, corr
	// the corrections a Corrections call returns.
	pairs      [][2]int
	toBoundary []int
	corr       []Correction
}

// matchState is one subset's exact-matcher solution: its minimum weight and
// the partner of its lowest defect (-1 for the boundary). The narrow gen
// and choice pack an entry into 8 bytes; the memo grows to 2^MaxExact.
type matchState struct {
	w      int32
	gen    uint16
	choice int8
}

// NewGlobalDecoder returns a decoder for the lattice with unit weights and
// no instruments.
func NewGlobalDecoder(lat surface.Lattice) *GlobalDecoder {
	return &GlobalDecoder{lat: lat, instr: &noInstr}
}

// SetInstr rebinds the decoder's instruments (e.g. to a per-worker metrics
// shard). A nil value unbinds them: Match then records nothing and reads no
// clock, as on a new decoder.
func (g *GlobalDecoder) SetInstr(in *Instr) {
	if in == nil {
		in = &noInstr
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
// boundary matches. All input defects must share a type. The matching's
// slices are the decoder's scratch: the next Match overwrites them.
func (g *GlobalDecoder) Match(defects []Defect) Matching {
	for i := 1; i < len(defects); i++ {
		if defects[i].IsX != defects[0].IsX {
			panic("decoder: Match requires same-type defects")
		}
	}
	timed := g.instr.matchNs
	var start time.Time
	if timed != nil {
		start = time.Now()
	}
	var m Matching
	if len(defects) <= MaxExact {
		m = g.exactMatch(defects)
		g.instr.matchExact.Inc()
	} else {
		m = g.greedyMatch(defects)
		g.instr.matchGreedy.Inc()
	}
	g.instr.matchCalls.Inc()
	g.instr.matchDefects.Add(uint64(len(defects)))
	if timed != nil {
		timed.Observe(float64(time.Since(start)))
	}
	if g.heat != nil {
		recordMatching(g.heat, g.lat, defects, m)
	}
	return m
}

// exactMatch solves MWPM-with-boundary exactly for n ≤ MaxExact defects by
// a memoized recursion over defect subsets. A subset's lowest defect is
// resolved first — to the boundary, then paired with each other member in
// ascending order, keeping the first strict minimum — so from the full set
// the recursion reaches only F(n+2) subsets (987 at n = 14), not all 2ⁿ.
// The costs are tabulated once per call; the memo is per-decoder scratch,
// since windowed decoding calls Match every d rounds.
func (g *GlobalDecoder) exactMatch(defects []Defect) Matching {
	n := len(defects)
	if n == 0 {
		return Matching{}
	}
	for i := range defects {
		g.bound[i] = int32(boundaryDistance(g.lat, defects[i]))
		for j := i + 1; j < n; j++ {
			g.pair[i][j] = int32(pairCost(defects[i], defects[j]))
		}
	}
	full := uint32(1)<<n - 1
	if len(g.memo) <= int(full) {
		g.memo = make([]matchState, full+1)
	}
	if g.gen++; g.gen == 0 { // wrapped: stale entries could claim the new gen
		clear(g.memo)
		g.gen = 1
	}
	m := Matching{Pairs: g.pairs[:0], ToBoundary: g.toBoundary[:0]}
	m.Weight = int(g.solve(full))
	for s := full; s != 0; {
		i := bits.TrailingZeros32(s)
		if j := g.memo[s].choice; j < 0 {
			m.ToBoundary = append(m.ToBoundary, i)
			s &^= 1 << i
		} else {
			m.Pairs = append(m.Pairs, [2]int{i, int(j)})
			s &^= 1<<i | 1<<j
		}
	}
	g.pairs, g.toBoundary = m.Pairs, m.ToBoundary
	return m
}

// solve returns the minimum matching weight of subset s and records its
// choice in the memo.
func (g *GlobalDecoder) solve(s uint32) int32 {
	if s == 0 {
		return 0
	}
	if e := &g.memo[s]; e.gen == g.gen {
		return e.w
	}
	i := bits.TrailingZeros32(s)
	rest := s &^ (1 << i)
	w, choice := g.bound[i]+g.solve(rest), int8(-1)
	for r := rest; r != 0; r &= r - 1 {
		j := bits.TrailingZeros32(r)
		if pw := g.pair[i][j] + g.solve(rest&^(1<<j)); pw < w {
			w, choice = pw, int8(j)
		}
	}
	g.memo[s] = matchState{gen: g.gen, w: w, choice: choice}
	return w
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
	m := Matching{Pairs: g.pairs[:0], ToBoundary: g.toBoundary[:0]}
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
	g.pairs, g.toBoundary = m.Pairs, m.ToBoundary
	return m
}

// Corrections converts a matching into Pauli-frame corrections by walking
// the correction chain between matched defects (or defect and boundary) and
// toggling the data qubits along it. The returned slice is the decoder's
// scratch: the next Corrections overwrites it.
func (g *GlobalDecoder) Corrections(defects []Defect, m Matching) []Correction {
	g.corr = g.corr[:0]
	for _, p := range m.Pairs {
		a, b := defects[p[0]], defects[p[1]]
		g.chain(a, b.R, b.C)
	}
	for _, i := range m.ToBoundary {
		d := defects[i]
		if d.IsX {
			// Terminate on the nearer of west/east boundaries.
			if (d.C+1)/2 <= (g.lat.Cols-d.C)/2 {
				g.chain(d, d.R, -1)
			} else {
				g.chain(d, d.R, g.lat.Cols)
			}
		} else {
			if (d.R+1)/2 <= (g.lat.Rows-d.R)/2 {
				g.chain(d, -1, d.C)
			} else {
				g.chain(d, g.lat.Rows, d.C)
			}
		}
	}
	return g.corr
}

// chain appends the correction chain from defect d to (r1, c1): it walks
// rows then columns in steps of 2 (ancilla spacing), toggling the data
// qubit between consecutive ancilla positions.
func (g *GlobalDecoder) chain(d Defect, r1, c1 int) {
	r, c := d.R, d.C
	for r != r1 {
		step := sign(r1 - r)
		g.corr = append(g.corr, Correction{Qubit: g.lat.Index(r+step, c), FlipX: !d.IsX})
		r += 2 * step
	}
	for c != c1 {
		step := sign(c1 - c)
		g.corr = append(g.corr, Correction{Qubit: g.lat.Index(r, c+step), FlipX: !d.IsX})
		c += 2 * step
	}
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
