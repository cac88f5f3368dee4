package decoder

import (
	"sort"
	"time"

	"quest/internal/heatmap"
	"quest/internal/surface"
)

// UnionFindDecoder is an alternative global decoder in the style of
// Delfosse–Nickerson: clusters grow outward from each defect half an edge at
// a time; clusters with even defect parity (or touching a boundary) freeze;
// merging clusters union their parity. Once every cluster is neutral, each
// cluster's defects are matched internally. Union-find trades a little
// accuracy for near-linear decode time, which matters for the
// master-controller budget the paper allots to global decoding. No machine
// path runs it: it is the subject of BenchmarkAblationUnionFindVsMWPM and
// BenchmarkDecoderScaling, which measure that trade.
type UnionFindDecoder struct {
	lat  surface.Lattice
	heat *heatmap.Collector // nil unless SetHeat bound one
}

// NewUnionFindDecoder returns a decoder for the lattice.
func NewUnionFindDecoder(lat surface.Lattice) *UnionFindDecoder {
	return &UnionFindDecoder{lat: lat}
}

// ufNode is one defect's cluster bookkeeping.
type ufNode struct {
	parent   int
	rank     int
	parity   int  // defects mod 2 in the cluster (root only)
	boundary bool // cluster touches a boundary (root only)
	radius   int  // growth radius (root only)
}

type unionFind struct {
	nodes []ufNode
}

func newUnionFind(n int) *unionFind {
	u := &unionFind{nodes: make([]ufNode, n)}
	for i := range u.nodes {
		u.nodes[i] = ufNode{parent: i, parity: 1}
	}
	return u
}

func (u *unionFind) find(i int) int {
	for u.nodes[i].parent != i {
		u.nodes[i].parent = u.nodes[u.nodes[i].parent].parent
		i = u.nodes[i].parent
	}
	return i
}

func (u *unionFind) union(a, b int) int {
	ra, rb := u.find(a), u.find(b)
	if ra == rb {
		return ra
	}
	if u.nodes[ra].rank < u.nodes[rb].rank {
		ra, rb = rb, ra
	}
	u.nodes[rb].parent = ra
	if u.nodes[ra].rank == u.nodes[rb].rank {
		u.nodes[ra].rank++
	}
	u.nodes[ra].parity = (u.nodes[ra].parity + u.nodes[rb].parity) % 2
	u.nodes[ra].boundary = u.nodes[ra].boundary || u.nodes[rb].boundary
	if u.nodes[rb].radius > u.nodes[ra].radius {
		u.nodes[ra].radius = u.nodes[rb].radius
	}
	return ra
}

// Match clusters same-type defects by synchronized growth and returns a
// Matching in the same format the exact/greedy matchers produce, so the
// correction-chain generation is shared.
func (d *UnionFindDecoder) Match(defects []Defect) Matching {
	n := len(defects)
	if n == 0 {
		return Matching{}
	}
	for i := 1; i < n; i++ {
		if defects[i].IsX != defects[0].IsX {
			panic("decoder: union-find Match requires same-type defects")
		}
	}
	// The same instruments the exact matcher keeps, so the ablation
	// benchmarks time both decoders alike.
	start := time.Now() //quest:allow(seedsrc) wall-clock latency metric only; the value never reaches simulation state
	defer func() {
		defaultInstr.matchCalls.Inc()
		defaultInstr.matchDefects.Add(uint64(n))
		defaultInstr.matchNs.Observe(float64(time.Since(start)))
	}()
	uf := newUnionFind(n)
	active := func(root int) bool {
		return uf.nodes[root].parity == 1 && !uf.nodes[root].boundary
	}
	// Grow until no active (odd, boundary-free) clusters remain. Growth is
	// radius-synchronized: the smallest active cluster grows first.
	for {
		roots := map[int]bool{}
		for i := 0; i < n; i++ {
			r := uf.find(i)
			if active(r) {
				roots[r] = true
			}
		}
		if len(roots) == 0 {
			break
		}
		// Pick the active root with the smallest radius (deterministically).
		var order []int
		for r := range roots {
			order = append(order, r)
		}
		sort.Slice(order, func(a, b int) bool {
			ra, rb := uf.nodes[order[a]].radius, uf.nodes[order[b]].radius
			if ra != rb {
				return ra < rb
			}
			return order[a] < order[b]
		})
		r := order[0]
		uf.nodes[r].radius++
		rad := uf.nodes[r].radius
		// Does the grown cluster reach a boundary?
		for i := 0; i < n; i++ {
			if uf.find(i) != r {
				continue
			}
			if boundaryDistance(d.lat, defects[i]) <= rad {
				uf.nodes[r].boundary = true
			}
		}
		// Does it touch another cluster? Merge when the summed radii cover
		// the inter-defect distance.
		for i := 0; i < n; i++ {
			if uf.find(i) != r {
				continue
			}
			for j := 0; j < n; j++ {
				rj := uf.find(j)
				if rj == r {
					continue
				}
				if spaceTimeDistance(defects[i], defects[j]) <= rad+uf.nodes[rj].radius {
					uf.union(i, j)
				}
			}
		}
	}
	// Peel each cluster: match its defects pairwise (nearest-first), odd
	// leftovers to the boundary.
	var m Matching
	byRoot := map[int][]int{}
	for i := 0; i < n; i++ {
		r := uf.find(i)
		byRoot[r] = append(byRoot[r], i)
	}
	var rootOrder []int
	for r := range byRoot {
		rootOrder = append(rootOrder, r)
	}
	sort.Ints(rootOrder)
	for _, r := range rootOrder {
		members := byRoot[r]
		used := make([]bool, len(members))
		for {
			bi, bj, bw := -1, -1, int(^uint(0)>>1)
			for a := 0; a < len(members); a++ {
				if used[a] {
					continue
				}
				for b := a + 1; b < len(members); b++ {
					if used[b] {
						continue
					}
					if w := spaceTimeDistance(defects[members[a]], defects[members[b]]); w < bw {
						bi, bj, bw = a, b, w
					}
				}
			}
			if bi < 0 {
				break
			}
			// An odd boundary cluster may prefer sending its last defect to
			// the boundary; pair the rest.
			used[bi], used[bj] = true, true
			m.Pairs = append(m.Pairs, [2]int{members[bi], members[bj]})
			m.Weight += bw
		}
		for a, u := range used {
			if !u {
				m.ToBoundary = append(m.ToBoundary, members[a])
				m.Weight += boundaryDistance(d.lat, defects[members[a]])
			}
		}
	}
	if d.heat != nil {
		recordMatching(d.heat, d.lat, defects, m)
	}
	return m
}

// Corrections delegates to the shared chain generator.
func (d *UnionFindDecoder) Corrections(defects []Defect, m Matching) []Correction {
	g := GlobalDecoder{lat: d.lat}
	return g.Corrections(defects, m)
}
