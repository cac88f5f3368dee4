// Package place implements the host's qubit-placement pass: assigning a
// program's logical qubits to MCE tiles so that braided CNOTs stay within a
// tile wherever possible. Braids are tile-local operations (a mask walk
// between two patches of one MCE); the machine refuses a CNOT whose operands
// land on different tiles, so the placer minimizes cut CNOTs with a greedy
// heaviest-edge clustering over the program's interaction graph.
package place

import (
	"fmt"
	"sort"

	"quest/internal/compiler"
	"quest/internal/isa"
)

// Interaction is a weighted edge of the qubit interaction graph.
type Interaction struct {
	A, B   int
	Weight int
}

// InteractionGraph counts CNOTs per qubit pair.
func InteractionGraph(p *compiler.Program) []Interaction {
	w := map[[2]int]int{}
	for _, in := range p.Instrs {
		if in.Op != isa.LCNOT {
			continue
		}
		a, b := int(in.Target), int(in.Arg)
		if a > b {
			a, b = b, a
		}
		w[[2]int{a, b}]++
	}
	out := make([]Interaction, 0, len(w))
	for k, v := range w {
		out = append(out, Interaction{A: k[0], B: k[1], Weight: v})
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i].Weight != out[j].Weight {
			return out[i].Weight > out[j].Weight
		}
		if out[i].A != out[j].A {
			return out[i].A < out[j].A
		}
		return out[i].B < out[j].B
	})
	return out
}

// Assignment maps logical qubit → (tile, patch).
type Assignment struct {
	Tiles          int
	PatchesPerTile int
	// TileOf[q] and PatchOf[q] locate logical qubit q.
	TileOf  []int
	PatchOf []int
	// CutCNOTs counts interactions split across tiles.
	CutCNOTs int
}

// Place assigns a program's qubits to a tiles×patchesPerTile machine:
// heaviest interaction edges are merged into the same tile first (greedy
// agglomeration with capacity limits), then leftover qubits fill remaining
// slots.
func Place(p *compiler.Program, tiles, patchesPerTile int) (*Assignment, error) {
	if err := p.Validate(); err != nil {
		return nil, fmt.Errorf("place: %w", err)
	}
	if tiles < 1 || patchesPerTile < 1 {
		return nil, fmt.Errorf("place: invalid machine shape %d×%d", tiles, patchesPerTile)
	}
	n := p.NumLogical
	if n > tiles*patchesPerTile {
		return nil, fmt.Errorf("place: %d logical qubits exceed %d patches", n, tiles*patchesPerTile)
	}
	edges := InteractionGraph(p)

	// Union-find clustering with capacity caps.
	parent := make([]int, n)
	size := make([]int, n)
	for i := range parent {
		parent[i] = i
		size[i] = 1
	}
	var find func(int) int
	find = func(x int) int {
		for parent[x] != x {
			parent[x] = parent[parent[x]]
			x = parent[x]
		}
		return x
	}
	for _, e := range edges {
		ra, rb := find(e.A), find(e.B)
		if ra == rb {
			continue
		}
		if size[ra]+size[rb] > patchesPerTile {
			continue // merging would overflow a tile
		}
		parent[rb] = ra
		size[ra] += size[rb]
	}

	// Pack clusters into tiles, largest first (first-fit decreasing).
	clusters := map[int][]int{}
	for q := 0; q < n; q++ {
		r := find(q)
		clusters[r] = append(clusters[r], q)
	}
	var order []int
	for r := range clusters {
		order = append(order, r)
	}
	sort.Slice(order, func(i, j int) bool {
		if len(clusters[order[i]]) != len(clusters[order[j]]) {
			return len(clusters[order[i]]) > len(clusters[order[j]])
		}
		return order[i] < order[j]
	})
	free := make([]int, tiles)
	for i := range free {
		free[i] = patchesPerTile
	}
	asg := &Assignment{
		Tiles:          tiles,
		PatchesPerTile: patchesPerTile,
		TileOf:         make([]int, n),
		PatchOf:        make([]int, n),
	}
	for _, r := range order {
		placed := false
		for t := 0; t < tiles; t++ {
			if free[t] >= len(clusters[r]) {
				for _, q := range clusters[r] {
					asg.TileOf[q] = t
					asg.PatchOf[q] = patchesPerTile - free[t]
					free[t]--
				}
				placed = true
				break
			}
		}
		if !placed {
			// Fragmentation fallback: split the cluster across any free
			// slots (its internal CNOTs become cut).
			for _, q := range clusters[r] {
				for t := 0; t < tiles; t++ {
					if free[t] > 0 {
						asg.TileOf[q] = t
						asg.PatchOf[q] = patchesPerTile - free[t]
						free[t]--
						break
					}
				}
			}
		}
	}
	for _, e := range edges {
		if asg.TileOf[e.A] != asg.TileOf[e.B] {
			asg.CutCNOTs += e.Weight
		}
	}
	return asg, nil
}

// GlobalQubit returns the machine-wide logical index the core machine's
// striped tileFor mapping expects for (tile, patch).
func (a *Assignment) GlobalQubit(q int) int {
	return a.TileOf[q]*a.PatchesPerTile + a.PatchOf[q]
}

// Remap rewrites the program's qubit operands per the assignment so that the
// machine's striped tile mapping lands each qubit on its placed tile/patch.
// Cross-tile CNOTs (CutCNOTs > 0) remain in the program; the machine
// refuses to run them.
func (a *Assignment) Remap(p *compiler.Program) (*compiler.Program, error) {
	if len(a.TileOf) < p.NumLogical {
		return nil, fmt.Errorf("place: assignment covers %d qubits, program uses %d", len(a.TileOf), p.NumLogical)
	}
	out := compiler.NewProgram(a.Tiles * a.PatchesPerTile)
	for _, in := range p.Instrs {
		m := in
		if in.Op != isa.LCacheRun { // a cache run names a slot, not a qubit
			m.Target = uint8(a.GlobalQubit(int(in.Target)))
		}
		if in.Op == isa.LCNOT {
			m.Arg = uint8(a.GlobalQubit(int(in.Arg)))
		}
		out.Instrs = append(out.Instrs, m)
	}
	if err := out.Validate(); err != nil {
		return nil, fmt.Errorf("place: remap produced invalid program: %w", err)
	}
	return out, nil
}
