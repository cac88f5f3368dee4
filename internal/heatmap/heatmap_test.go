package heatmap

import (
	"bytes"
	"math/rand"
	"testing"
)

// TestNilCollectorIsFreeAndSafe pins the off-path contract the decode hot
// loops rely on: every recording method on a nil *Collector is a no-op and
// allocates nothing. This is what keeps mc.RunBatch at its pinned 8
// allocs/call and decoder-exact-match-10 within its alloc budget when
// -heatmap is not given.
func TestNilCollectorIsFreeAndSafe(t *testing.T) {
	var c *Collector
	allocs := testing.AllocsPerRun(1000, func() {
		c.Defect(1, 2)
		c.MatchedPair(0, 0, 3, 4, 7)
		c.MatchedBoundary(2, 2, 1)
		c.Merge(nil)
		if c.NewShard() != nil {
			t.Error("nil collector spawned a live shard")
		}
	})
	if allocs != 0 {
		t.Errorf("nil collector allocates %v per run, want 0", allocs)
	}
	if r, cc := c.Shape(); r != 0 || cc != 0 {
		t.Errorf("nil shape = %dx%d, want 0x0", r, cc)
	}
	if c.TotalDefects() != 0 || c.Pairs() != 0 || c.Boundary() != 0 {
		t.Error("nil collector reports non-zero totals")
	}
	if c.Defects() != nil || c.Matched() != nil || c.ChainLengths() != nil {
		t.Error("nil collector returns non-nil grids")
	}
}

func TestCollectorAccumulates(t *testing.T) {
	c := New(3, 4)
	c.Defect(0, 0)
	c.Defect(0, 0)
	c.Defect(2, 3)
	c.Defect(-1, 0) // out of range: ignored
	c.Defect(0, 4)
	c.MatchedPair(0, 0, 2, 3, 5)
	c.MatchedBoundary(1, 1, 2)
	c.MatchedBoundary(1, 1, MaxChainLen+10) // overflow bucket

	if got := c.TotalDefects(); got != 3 {
		t.Errorf("TotalDefects = %d, want 3", got)
	}
	d := c.Defects()
	if d[0][0] != 2 || d[2][3] != 1 {
		t.Errorf("defect grid = %v", d)
	}
	m := c.Matched()
	if m[0][0] != 1 || m[2][3] != 1 || m[1][1] != 2 {
		t.Errorf("matched grid = %v", m)
	}
	if c.Pairs() != 1 || c.Boundary() != 2 {
		t.Errorf("pairs=%d boundary=%d, want 1, 2", c.Pairs(), c.Boundary())
	}
	h := c.ChainLengths()
	if h[5] != 1 || h[2] != 1 || h[MaxChainLen+1] != 1 {
		t.Errorf("chain-length histogram = %v", h)
	}
}

// TestMergeOrderIndependent pins the determinism contract: shards merged in
// any order produce identical totals, so the exported heatmap is
// worker-count independent.
func TestMergeOrderIndependent(t *testing.T) {
	mkShards := func() []*Collector {
		shards := make([]*Collector, 8)
		for i := range shards {
			rng := rand.New(rand.NewSource(int64(i) + 1))
			s := New(5, 5)
			for k := 0; k < 50; k++ {
				s.Defect(rng.Intn(5), rng.Intn(5))
				if k%3 == 0 {
					s.MatchedPair(rng.Intn(5), rng.Intn(5), rng.Intn(5), rng.Intn(5), rng.Intn(12))
				}
			}
			shards[i] = s
		}
		return shards
	}
	forward, reverse := New(5, 5), New(5, 5)
	a, b := mkShards(), mkShards()
	for i := 0; i < len(a); i++ {
		forward.Merge(a[i])
		reverse.Merge(b[len(b)-1-i])
	}
	var fw, rv bytes.Buffer
	sf, sr := NewSet(), NewSet()
	sf.Collector("x", 5, 5).Merge(forward)
	sr.Collector("x", 5, 5).Merge(reverse)
	if err := sf.WriteJSON(&fw); err != nil {
		t.Fatal(err)
	}
	if err := sr.WriteJSON(&rv); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(fw.Bytes(), rv.Bytes()) {
		t.Error("merge order changed the exported heatmap bytes")
	}
}

func TestMergeShapeMismatchPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("merging mismatched shapes did not panic")
		}
	}()
	New(3, 3).Merge(New(4, 4))
}

func TestSetDeterministicJSON(t *testing.T) {
	s := NewSet()
	// Register out of name order; export must be name-sorted.
	s.Collector("d=5", 9, 9).Defect(4, 4)
	s.Collector("d=3", 5, 5).Defect(2, 2)
	var buf bytes.Buffer
	if err := s.WriteJSON(&buf); err != nil {
		t.Fatal(err)
	}
	f, err := ReadFile(buf.Bytes())
	if err != nil {
		t.Fatal(err)
	}
	if f.Schema != Schema {
		t.Errorf("schema = %q", f.Schema)
	}
	if len(f.Grids) != 2 || f.Grids[0].Name != "d=3" || f.Grids[1].Name != "d=5" {
		t.Errorf("grids not name-sorted: %+v", f.Grids)
	}
	if f.Grids[1].Defects[4][4] != 1 {
		t.Error("round-tripped defect count lost")
	}
	if got := s.Names(); len(got) != 2 || got[0] != "d=3" {
		t.Errorf("Names() = %v", got)
	}
}

func TestSetShapeConflictPanics(t *testing.T) {
	s := NewSet()
	s.Collector("a", 3, 3)
	defer func() {
		if recover() == nil {
			t.Error("reshaping a named collector did not panic")
		}
	}()
	s.Collector("a", 5, 5)
}

func TestNilSet(t *testing.T) {
	var s *Set
	if s.Collector("x", 3, 3) != nil {
		t.Error("nil set returned a live collector")
	}
	if s.Names() != nil || s.Len() != 0 {
		t.Error("nil set reports contents")
	}
}

func TestReadFileRejectsBadSchema(t *testing.T) {
	if _, err := ReadFile([]byte(`{"schema":"quest-heatmap/99","grids":[]}`)); err == nil {
		t.Error("wrong schema accepted")
	}
	if _, err := ReadFile([]byte(`{`)); err == nil {
		t.Error("malformed JSON accepted")
	}
}

func TestShardRoundTrip(t *testing.T) {
	parent := New(4, 4)
	shard := parent.NewShard()
	if r, c := shard.Shape(); r != 4 || c != 4 {
		t.Fatalf("shard shape %dx%d", r, c)
	}
	shard.Defect(1, 1)
	if parent.TotalDefects() != 0 {
		t.Error("shard recording leaked into parent")
	}
	parent.Merge(shard)
	if parent.TotalDefects() != 1 {
		t.Error("shard merge lost counts")
	}
}
