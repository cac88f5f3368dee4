package noc

import (
	"bytes"
	"testing"
	"testing/quick"

	"quest/internal/tracing"
)

func TestZeroLoadLatencyEqualsHopDistance(t *testing.T) {
	m := NewMesh(4, 4)
	for dst := 0; dst < m.Tiles(); dst++ {
		mesh := NewMesh(4, 4)
		if err := mesh.Inject(Packet{Dst: dst}); err != nil {
			t.Fatal(err)
		}
		all, ok := mesh.Drain(100)
		if !ok {
			t.Fatalf("dst %d: did not drain", dst)
		}
		if len(all[dst]) != 1 {
			t.Fatalf("dst %d: delivered %d packets", dst, len(all[dst]))
		}
		_, _, mean, max := mesh.Stats()
		want := float64(mesh.HopDistance(dst))
		if mean != want || max != int(want) {
			t.Errorf("dst %d: latency %.0f/%d, want %v", dst, mean, max, want)
		}
	}
	_ = m
}

func TestContentionQueuesPackets(t *testing.T) {
	// 10 packets to the same far corner share links: latency must spread.
	m := NewMesh(4, 4)
	corner := m.Tiles() - 1
	for i := 0; i < 10; i++ {
		if err := m.Inject(Packet{Dst: corner, Payload: [2]byte{byte(i)}}); err != nil {
			t.Fatal(err)
		}
	}
	all, ok := m.Drain(200)
	if !ok {
		t.Fatal("did not drain")
	}
	if len(all[corner]) != 10 {
		t.Fatalf("delivered %d", len(all[corner]))
	}
	_, _, mean, max := m.Stats()
	zeroLoad := float64(m.HopDistance(corner))
	if mean <= zeroLoad {
		t.Errorf("mean latency %.1f not above zero-load %v under contention", mean, zeroLoad)
	}
	if max < int(zeroLoad)+9 {
		t.Errorf("max latency %d too small for 10-deep serialization", max)
	}
	// FIFO: payload order preserved to a single destination.
	for i, p := range all[corner] {
		if int(p.Payload[0]) != i {
			t.Errorf("delivery %d carried payload %d — order broken", i, p.Payload[0])
		}
	}
}

func TestDisjointPathsDontContend(t *testing.T) {
	// Packets to different first-hop directions proceed in parallel.
	m := NewMesh(3, 3)
	if err := m.Inject(Packet{Dst: 1}); err != nil { // +x
		t.Fatal(err)
	}
	if err := m.Inject(Packet{Dst: 3}); err != nil { // +y
		t.Fatal(err)
	}
	_, ok := m.Drain(10)
	if !ok {
		t.Fatal("did not drain")
	}
	_, _, _, max := m.Stats()
	if max != 2 {
		t.Errorf("max latency %d, want 2 (no contention on disjoint links)", max)
	}
}

func TestInjectValidation(t *testing.T) {
	m := NewMesh(2, 2)
	if err := m.Inject(Packet{Dst: 9}); err == nil {
		t.Error("out-of-mesh destination accepted")
	}
	if err := m.Inject(Packet{Dst: -1}); err == nil {
		t.Error("negative destination accepted")
	}
	defer func() {
		if recover() == nil {
			t.Error("invalid mesh accepted")
		}
	}()
	NewMesh(0, 3)
}

// TestPropertyConservation: every injected packet is delivered exactly once
// to its destination, for random traffic patterns.
func TestPropertyConservation(t *testing.T) {
	f := func(dsts []uint8, wRaw, hRaw uint8) bool {
		w := 1 + int(wRaw)%5
		h := 1 + int(hRaw)%5
		m := NewMesh(w, h)
		want := map[int]int{}
		if len(dsts) > 50 {
			dsts = dsts[:50]
		}
		for i, d := range dsts {
			dst := int(d) % m.Tiles()
			if err := m.Inject(Packet{Dst: dst, Payload: [2]byte{byte(i), byte(i >> 8)}}); err != nil {
				return false
			}
			want[dst]++
		}
		all, ok := m.Drain(10_000)
		if !ok {
			return false
		}
		for dst, n := range want {
			if len(all[dst]) != n {
				return false
			}
		}
		injected, delivered, _, _ := m.Stats()
		return injected == delivered && m.Pending() == 0
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 150}); err != nil {
		t.Error(err)
	}
}

// TestLatencyIsNonDeterministicButBounded: the property the paper's
// determinism argument hinges on — logical delivery latency varies with
// load, which is precisely why QECC cannot ride this network.
func TestLatencyIsNonDeterministicButBounded(t *testing.T) {
	light := NewMesh(4, 4)
	light.Inject(Packet{Dst: 15})
	light.Drain(100)
	_, _, lightMean, _ := light.Stats()

	heavy := NewMesh(4, 4)
	for i := 0; i < 40; i++ {
		heavy.Inject(Packet{Dst: 15})
	}
	heavy.Drain(1000)
	_, _, heavyMean, heavyMax := heavy.Stats()

	if heavyMean <= lightMean {
		t.Errorf("load did not increase latency: %.1f vs %.1f", heavyMean, lightMean)
	}
	// But bounded: serialization of 40 packets over one ejection link.
	if heavyMax > light.HopDistance(15)+40 {
		t.Errorf("max latency %d exceeds serialization bound", heavyMax)
	}
}

func TestDegenerateMeshShapes(t *testing.T) {
	// 1×N and N×1 meshes route purely in one dimension.
	for _, dims := range [][2]int{{1, 5}, {5, 1}, {1, 1}} {
		m := NewMesh(dims[0], dims[1])
		for d := 0; d < m.Tiles(); d++ {
			if err := m.Inject(Packet{Dst: d}); err != nil {
				t.Fatal(err)
			}
		}
		all, ok := m.Drain(100)
		if !ok {
			t.Fatalf("%v: did not drain", dims)
		}
		total := 0
		for _, pkts := range all {
			total += len(pkts)
		}
		if total != m.Tiles() {
			t.Errorf("%v: delivered %d of %d", dims, total, m.Tiles())
		}
	}
}

func TestLinkCapacityWidensThroughput(t *testing.T) {
	run := func(capacity int) int {
		m := NewMesh(4, 1)
		m.LinkCapacity = capacity
		for i := 0; i < 16; i++ {
			m.Inject(Packet{Dst: 3})
		}
		_, ok := m.Drain(200)
		if !ok {
			t.Fatal("did not drain")
		}
		_, _, _, max := m.Stats()
		return max
	}
	narrow := run(1)
	wide := run(4)
	if wide >= narrow {
		t.Errorf("4-wide links max latency %d not below serial %d", wide, narrow)
	}
}

// TestStepDeterministicUnderCrossTraffic pins Step's sorted link visit.
// Packets enter at router 0 and route X then Y, so each router has one
// upstream link and the visit order cannot move a packet: deliveries, their
// cycles and the latency stats must hold in any order. What the order does
// decide is the order in which one cycle's ejection spans reach the tracer,
// and a full ring keeps only the newest events, so it decides which spans a
// trace exports. With a ring of every size from one span to all of them,
// repeated runs of the same traffic must export the same bytes; ranging the
// inFlight map instead fails that.
func TestStepDeterministicUnderCrossTraffic(t *testing.T) {
	type delivery struct {
		cycle, tile int
		payload     [2]byte
	}
	run := func(ring int) ([]delivery, float64, int, string) {
		m := NewMesh(4, 4)
		tr := tracing.New(ring)
		m.SetTracer(tr)
		var got []delivery
		cycle := 0
		step := func() {
			for tile, pkts := range m.Step() {
				for _, p := range pkts {
					got = append(got, delivery{cycle, tile, p.Payload})
				}
			}
			cycle++
		}
		// Cross-traffic: bursts toward every corner plus a column sweep, with
		// steps interleaved so many links are simultaneously in flight.
		for wave := 0; wave < 4; wave++ {
			for i, dst := range []int{15, 12, 3, 7, 13, 5, 10, 15, 15} {
				if err := m.Inject(Packet{Dst: dst, Payload: [2]byte{byte(wave), byte(i)}}); err != nil {
					t.Fatal(err)
				}
			}
			step()
			step()
		}
		for m.Pending() > 0 && cycle < 500 {
			step()
		}
		if m.Pending() > 0 {
			t.Fatal("mesh did not drain")
		}
		var trace bytes.Buffer
		if err := tr.WriteJSON(&trace); err != nil {
			t.Fatal(err)
		}
		_, _, mean, max := m.Stats()
		return got, mean, max, trace.String()
	}
	first, mean0, max0, _ := run(0)
	// One span per delivery: ring sizes 1..len(first) cut the span stream
	// at every point.
	for ring := 1; ring <= len(first); ring++ {
		var trace0 string
		for i := 0; i < 10; i++ {
			got, mean, max, trace := run(ring)
			if mean != mean0 || max != max0 {
				t.Fatalf("ring %d, run %d: latency stats %v/%v, want %v/%v", ring, i, mean, max, mean0, max0)
			}
			if len(got) != len(first) {
				t.Fatalf("ring %d, run %d: %d deliveries, want %d", ring, i, len(got), len(first))
			}
			for j := range got {
				if got[j] != first[j] {
					t.Fatalf("ring %d, run %d: delivery %d = %+v, want %+v", ring, i, j, got[j], first[j])
				}
			}
			if i == 0 {
				trace0 = trace
			} else if trace != trace0 {
				t.Fatalf("ring %d, run %d: trace export differs from run 0:\n%s\nrun 0:\n%s", ring, i, trace, trace0)
			}
		}
	}
}
