// Package noc models the packet-switched network of §4.2 that carries
// logical instructions from the master controller to the MCE array (and
// syndrome records back). The master sits at the root of a 2-D mesh of MCE
// tiles; packets are routed dimension-ordered (X then Y), each hop costs one
// network cycle, and each link carries one packet per cycle per direction.
// Delivery is therefore *non-deterministic in latency* — exactly the
// property QuEST buys by decoupling QECC (which never rides this network)
// from logical traffic (which tolerates queuing).
//
// The model is cycle-stepped and deterministic given an arrival order, so
// machine simulations remain reproducible.
package noc

import (
	"fmt"
	"sort"

	"quest/internal/tracing"
)

// Packet is one routed message.
type Packet struct {
	Dst     int // tile index
	Payload [2]byte
	// injected is the cycle the packet entered the network.
	injected int
}

// Mesh is the network: a W×H grid of tile routers plus the master's root
// injection point at tile 0's router.
type Mesh struct {
	W, H int
	// links[from][dir] holds the packet in flight on that link this cycle.
	// dir: 0=+x 1=-x 2=+y 3=-y 4=eject (into the tile).
	inFlight map[linkKey][]Packet
	// queues at each router awaiting their next hop, FIFO.
	routerQ [][]Packet
	// delivered packets per tile.
	delivered [][]Packet

	cycle      int
	injectedN  uint64
	deliveredN uint64
	latencySum uint64
	maxLatency int
	// LinkCapacity is packets per link per cycle (1 models a serial link).
	LinkCapacity int

	tr *tracing.Tracer
}

type linkKey struct {
	router int
	dir    int
}

// NewMesh builds a W×H mesh (tiles indexed row-major).
func NewMesh(w, h int) *Mesh {
	if w < 1 || h < 1 {
		panic(fmt.Sprintf("noc: invalid mesh %dx%d", w, h))
	}
	m := &Mesh{
		W: w, H: h,
		inFlight:     make(map[linkKey][]Packet),
		routerQ:      make([][]Packet, w*h),
		delivered:    make([][]Packet, w*h),
		LinkCapacity: 1,
	}
	return m
}

// SetTracer binds a tracer; each ejected packet then emits a noc-track span
// covering injection→delivery at its destination router. Nil disables it.
func (m *Mesh) SetTracer(tr *tracing.Tracer) { m.tr = tr }

// Tiles returns the tile count.
func (m *Mesh) Tiles() int { return m.W * m.H }

// Inject enqueues a packet at the root router (tile 0, where the master's
// uplink lands).
func (m *Mesh) Inject(p Packet) error {
	if p.Dst < 0 || p.Dst >= m.Tiles() {
		return fmt.Errorf("noc: destination %d outside %d-tile mesh", p.Dst, m.Tiles())
	}
	p.injected = m.cycle
	m.routerQ[0] = append(m.routerQ[0], p)
	m.injectedN++
	return nil
}

// nextHop computes the dimension-ordered route: X first, then Y, then eject.
func (m *Mesh) nextHop(router, dst int) (next int, dir int) {
	rx, ry := router%m.W, router/m.W
	dx, dy := dst%m.W, dst/m.W
	switch {
	case dx > rx:
		return router + 1, 0
	case dx < rx:
		return router - 1, 1
	case dy > ry:
		return router + m.W, 2
	case dy < ry:
		return router - m.W, 3
	default:
		return router, 4
	}
}

// Step advances the network one cycle and returns packets delivered this
// cycle, indexed by tile.
//
// The in-flight links are visited in sorted (router, dir) order, never map
// order. Packets enter at router 0 and route X then Y, so each router has
// one upstream link and the visit order cannot move a packet: deliveries,
// their cycles and the latency stats are the same in any order. The order
// does decide which of one cycle's ejection spans reach the tracer first,
// and a full trace ring keeps only the newest events, so map order would
// change which spans a trace exports; TestStepDeterministicUnderCrossTraffic
// pins it.
func (m *Mesh) Step() [][]Packet {
	out := make([][]Packet, m.Tiles())
	// 1. Land in-flight packets at their next router (or eject).
	next := make(map[linkKey][]Packet)
	keys := make([]linkKey, 0, len(m.inFlight))
	for k := range m.inFlight {
		keys = append(keys, k)
	}
	sort.Slice(keys, func(i, j int) bool {
		if keys[i].router != keys[j].router {
			return keys[i].router < keys[j].router
		}
		return keys[i].dir < keys[j].dir
	})
	for _, k := range keys {
		for _, p := range m.inFlight[k] {
			if k.dir == 4 {
				lat := m.cycle - p.injected
				m.deliveredN++
				m.latencySum += uint64(lat)
				if lat > m.maxLatency {
					m.maxLatency = lat
				}
				m.delivered[k.router] = append(m.delivered[k.router], p)
				out[k.router] = append(out[k.router], p)
				if m.tr != nil {
					dur := int64(lat)
					if dur < 1 {
						dur = 1
					}
					m.tr.SpanArg("noc", k.router, "pkt", int64(p.injected), dur, "lat", int64(lat))
				}
				continue
			}
			dest := neighborOf(k.router, k.dir, m.W)
			m.routerQ[dest] = append(m.routerQ[dest], p)
		}
	}
	m.inFlight = next
	// 2. Arbitrate: each router forwards up to LinkCapacity packets per
	// outgoing link, FIFO order.
	for r := range m.routerQ {
		q := m.routerQ[r]
		if len(q) == 0 {
			continue
		}
		used := map[int]int{}
		var stay []Packet
		for _, p := range q {
			_, dir := m.nextHop(r, p.Dst)
			if used[dir] >= m.LinkCapacity {
				stay = append(stay, p)
				continue
			}
			used[dir]++
			key := linkKey{router: r, dir: dir}
			m.inFlight[key] = append(m.inFlight[key], p)
		}
		m.routerQ[r] = stay
	}
	m.cycle++
	return out
}

func neighborOf(router, dir, w int) int {
	switch dir {
	case 0:
		return router + 1
	case 1:
		return router - 1
	case 2:
		return router + w
	default:
		return router - w
	}
}

// Drain steps until the network empties (or maxCycles), returning deliveries
// in order, indexed by tile.
func (m *Mesh) Drain(maxCycles int) ([][]Packet, bool) {
	all := make([][]Packet, m.Tiles())
	for c := 0; c < maxCycles; c++ {
		for tile, pkts := range m.Step() {
			all[tile] = append(all[tile], pkts...)
		}
		if m.Pending() == 0 {
			return all, true
		}
	}
	return all, false
}

// Pending returns packets still in queues or on links.
func (m *Mesh) Pending() int {
	n := 0
	for _, q := range m.routerQ {
		n += len(q)
	}
	for _, pkts := range m.inFlight {
		n += len(pkts)
	}
	return n
}

// Stats returns cumulative (injected, delivered, mean latency, max latency).
func (m *Mesh) Stats() (injected, delivered uint64, meanLatency float64, maxLatency int) {
	mean := 0.0
	if m.deliveredN > 0 {
		mean = float64(m.latencySum) / float64(m.deliveredN)
	}
	return m.injectedN, m.deliveredN, mean, m.maxLatency
}

// HopDistance returns the dimension-ordered hop count from the root to a
// tile (plus one ejection hop) — the zero-load latency.
func (m *Mesh) HopDistance(dst int) int {
	x, y := dst%m.W, dst/m.W
	return x + y + 1
}
