// Package heatmap accumulates the spatial view of the decode pipeline: where
// on the lattice defects appear, which sites participate in matched
// correction chains, and how long those chains are. The decoder
// micro-architecture literature (Das et al.) sizes hardware around exactly
// these distributions — defect locality bounds the local LUT's hit rate, and
// the matched-pair length distribution bounds the matching unit's search
// radius — so the reproduction records them instead of asserting them.
//
// A Collector is deliberately dumb: fixed-size integer grids plus a
// fixed-bucket chain-length histogram, all merged by addition, so merging
// per-worker shards yields the same totals however the trials were split
// among the workers (the worker-count-independence invariant every observer
// in this repository obeys). Collection follows the nil-gated pattern of
// internal/tracing: every recording method on a nil *Collector is a no-op
// and allocation-free, which is the state the decode hot paths run in when
// -heatmap is off (pinned by TestNilCollectorIsFreeAndSafe and the
// committed benchmark baseline's alloc counts).
package heatmap

import (
	"encoding/json"
	"fmt"
	"io"
	"sort"
)

// Schema identifies the JSON export layout; bump on incompatible change.
const Schema = "quest-heatmap/1"

// MaxChainLen is the last resolved bucket of the chain-length histogram;
// longer chains land in the overflow bucket (index MaxChainLen+1). Matching
// weight on a distance-d planar patch is bounded by ~2d, so 32 resolves
// every distance this repository simulates.
const MaxChainLen = 32

// Collector accumulates spatial decode statistics for one lattice shape.
// Methods are not concurrency-safe: each Monte-Carlo worker records into a
// private shard (see mc.Observers.Heat), merged after the pool drains.
type Collector struct {
	rows, cols int
	defects    []int64 // per-site defect occurrences (row-major)
	matched    []int64 // per-site matched-chain-endpoint occurrences
	chainLen   [MaxChainLen + 2]int64
	pairs      int64 // defect-defect matches
	boundary   int64 // defect-boundary matches
}

// New returns an empty collector for a rows×cols lattice.
func New(rows, cols int) *Collector {
	if rows < 1 || cols < 1 {
		panic(fmt.Sprintf("heatmap: invalid shape %dx%d", rows, cols))
	}
	return &Collector{
		rows:    rows,
		cols:    cols,
		defects: make([]int64, rows*cols),
		matched: make([]int64, rows*cols),
	}
}

// NewShard returns an empty collector of the same shape — the per-worker
// shard constructor the Monte-Carlo engine calls. Nil-safe: a nil receiver
// returns nil, so a disabled heatmap propagates as a disabled shard.
func (c *Collector) NewShard() *Collector {
	if c == nil {
		return nil
	}
	return New(c.rows, c.cols)
}

// Shape returns (rows, cols); (0, 0) on a nil collector.
func (c *Collector) Shape() (rows, cols int) {
	if c == nil {
		return 0, 0
	}
	return c.rows, c.cols
}

// Defect records one defect occurrence at lattice site (r, cc). Out-of-range
// sites are ignored (a patch smaller than the tile lattice never indexes
// out, but defensiveness here is cheaper than a panic in a worker).
func (c *Collector) Defect(r, cc int) {
	if c == nil || r < 0 || r >= c.rows || cc < 0 || cc >= c.cols {
		return
	}
	c.defects[r*c.cols+cc]++
}

// MatchedPair records a defect-defect match: both endpoints and the chain
// length (the matcher's space-time distance).
func (c *Collector) MatchedPair(r1, c1, r2, c2, length int) {
	if c == nil {
		return
	}
	c.pairs++
	c.site(r1, c1)
	c.site(r2, c2)
	c.length(length)
}

// MatchedBoundary records a defect matched to the code boundary.
func (c *Collector) MatchedBoundary(r, cc, length int) {
	if c == nil {
		return
	}
	c.boundary++
	c.site(r, cc)
	c.length(length)
}

func (c *Collector) site(r, cc int) {
	if r < 0 || r >= c.rows || cc < 0 || cc >= c.cols {
		return
	}
	c.matched[r*c.cols+cc]++
}

func (c *Collector) length(n int) {
	if n < 0 {
		n = 0
	}
	if n > MaxChainLen {
		n = MaxChainLen + 1
	}
	c.chainLen[n]++
}

// Merge adds src's accumulators into c. Shapes must match; merging a nil or
// empty shard is a no-op. Addition commutes, so any merge order yields the
// same totals.
func (c *Collector) Merge(src *Collector) {
	if c == nil || src == nil {
		return
	}
	if src.rows != c.rows || src.cols != c.cols {
		panic(fmt.Sprintf("heatmap: merging %dx%d into %dx%d", src.rows, src.cols, c.rows, c.cols))
	}
	for i, v := range src.defects {
		c.defects[i] += v
	}
	for i, v := range src.matched {
		c.matched[i] += v
	}
	for i, v := range src.chainLen {
		c.chainLen[i] += v
	}
	c.pairs += src.pairs
	c.boundary += src.boundary
}

// Defects returns the defect-occurrence grid as rows of counts.
func (c *Collector) Defects() [][]int64 {
	if c == nil {
		return nil
	}
	return c.grid(c.defects)
}

// Matched returns the matched-endpoint grid as rows of counts.
func (c *Collector) Matched() [][]int64 {
	if c == nil {
		return nil
	}
	return c.grid(c.matched)
}

func (c *Collector) grid(flat []int64) [][]int64 {
	if c == nil {
		return nil
	}
	out := make([][]int64, c.rows)
	for r := 0; r < c.rows; r++ {
		out[r] = append([]int64(nil), flat[r*c.cols:(r+1)*c.cols]...)
	}
	return out
}

// ChainLengths returns the chain-length histogram: index i counts chains of
// length i for i ≤ MaxChainLen; the final element is the overflow bucket.
func (c *Collector) ChainLengths() []int64 {
	if c == nil {
		return nil
	}
	return append([]int64(nil), c.chainLen[:]...)
}

// Pairs returns the number of defect-defect matches recorded.
func (c *Collector) Pairs() int64 {
	if c == nil {
		return 0
	}
	return c.pairs
}

// Boundary returns the number of defect-boundary matches recorded.
func (c *Collector) Boundary() int64 {
	if c == nil {
		return 0
	}
	return c.boundary
}

// TotalDefects returns the sum over the defect grid.
func (c *Collector) TotalDefects() int64 {
	if c == nil {
		return 0
	}
	var n int64
	for _, v := range c.defects {
		n += v
	}
	return n
}

// Export is the JSON form of one collector.
type Export struct {
	Name     string    `json:"name"`
	Rows     int       `json:"rows"`
	Cols     int       `json:"cols"`
	Defects  [][]int64 `json:"defects"`
	Matched  [][]int64 `json:"matched"`
	ChainLen []int64   `json:"chain_len"`
	Pairs    int64     `json:"pairs"`
	Boundary int64     `json:"boundary"`
}

// export renders the collector under a name.
func (c *Collector) export(name string) Export {
	return Export{
		Name:     name,
		Rows:     c.rows,
		Cols:     c.cols,
		Defects:  c.Defects(),
		Matched:  c.Matched(),
		ChainLen: c.ChainLengths(),
		Pairs:    c.pairs,
		Boundary: c.boundary,
	}
}

// Set is a collection of named collectors, one per lattice shape a sweep
// visits (a threshold sweep at d=3 and d=5 cannot share one grid). Lookup
// is by name; export is name-sorted, so the JSON is deterministic
// regardless of sweep order. Not concurrency-safe — sweeps run cells
// sequentially and merge shards between cells.
type Set struct {
	byName map[string]*Collector
}

// NewSet returns an empty set.
func NewSet() *Set { return &Set{byName: make(map[string]*Collector)} }

// GridName is the conventional collector name for a lattice shape, used by
// the machine layers so same-shape tiles share one grid.
func GridName(rows, cols int) string { return fmt.Sprintf("lat-%dx%d", rows, cols) }

// Collector returns the named collector, creating a rows×cols one on first
// use. Asking for an existing name with a different shape panics. Nil-safe:
// a nil set returns a nil collector (heatmaps off).
func (s *Set) Collector(name string, rows, cols int) *Collector {
	if s == nil {
		return nil
	}
	if c, ok := s.byName[name]; ok {
		if c.rows != rows || c.cols != cols {
			panic(fmt.Sprintf("heatmap: collector %q is %dx%d, requested %dx%d",
				name, c.rows, c.cols, rows, cols))
		}
		return c
	}
	c := New(rows, cols)
	s.byName[name] = c
	return c
}

// Lookup returns the collector registered under name without asserting a
// shape (nil when absent) — for readers that iterate Names.
func (s *Set) Lookup(name string) *Collector {
	if s == nil {
		return nil
	}
	return s.byName[name]
}

// Names returns the registered names in sorted order.
func (s *Set) Names() []string {
	if s == nil {
		return nil
	}
	names := make([]string, 0, len(s.byName))
	for name := range s.byName {
		names = append(names, name)
	}
	sort.Strings(names)
	return names
}

// Len returns the number of registered collectors.
func (s *Set) Len() int {
	if s == nil {
		return 0
	}
	return len(s.byName)
}

// File is the JSON document WriteJSON emits.
type File struct {
	Schema string   `json:"schema"`
	Grids  []Export `json:"grids"`
}

// WriteJSON writes the whole set as one schema-versioned JSON document,
// grids name-sorted for byte-deterministic output.
func (s *Set) WriteJSON(w io.Writer) error {
	f := File{Schema: Schema}
	for _, name := range s.Names() {
		f.Grids = append(f.Grids, s.byName[name].export(name))
	}
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(f)
}

// ReadFile parses a WriteJSON document and checks its schema.
func ReadFile(data []byte) (File, error) {
	var f File
	if err := json.Unmarshal(data, &f); err != nil {
		return File{}, fmt.Errorf("heatmap: %w", err)
	}
	if f.Schema != Schema {
		return File{}, fmt.Errorf("heatmap: schema %q, want %q", f.Schema, Schema)
	}
	return f, nil
}
