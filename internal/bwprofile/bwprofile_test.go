package bwprofile

import (
	"bytes"
	"fmt"
	"reflect"
	"strings"
	"testing"

	"quest/internal/isa"
)

// TestObserveNilAllocs pins the -bw-off contract: a nil recorder's Observe
// is a zero-allocation no-op, so the dispatch and replay hot paths cost
// nothing when profiling is off.
func TestObserveNilAllocs(t *testing.T) {
	var r *Recorder
	allocs := testing.AllocsPerRun(1000, func() {
		r.Observe(42, BusLogical, ClassPauli, 1, 2)
	})
	if allocs != 0 {
		t.Errorf("nil Observe allocates %.1f per call, want 0", allocs)
	}
}

// TestNilGatedMethods pins that every method is safe on a nil recorder.
func TestNilGatedMethods(t *testing.T) {
	var r *Recorder
	r.Observe(0, BusLogical, ClassPauli, 1, 2)
	if got := r.NewShard(); got != nil {
		t.Errorf("nil NewShard = %v, want nil", got)
	}
	r.Merge(New(8))
	New(8).Merge(r)
	if got := r.WindowCycles(); got != 0 {
		t.Errorf("nil WindowCycles = %d, want 0", got)
	}
	if got := r.WindowBytes(); got != nil {
		t.Errorf("nil WindowBytes = %v, want nil", got)
	}
	if got := r.Summary(); !reflect.DeepEqual(got, Summary{}) {
		t.Errorf("nil Summary = %+v, want zero", got)
	}
}

// TestObserveWindowing pins that observations land in the window their
// cycle falls in and that out-of-range inputs are dropped, not panicking.
func TestObserveWindowing(t *testing.T) {
	r := New(10)
	r.Observe(0, BusLogical, ClassPrep, 1, 2)
	r.Observe(9, BusLogical, ClassPauli, 1, 2)      // still window 0
	r.Observe(10, BusSync, ClassSync, 1, 2)         // window 1
	r.Observe(25, BusSyndrome, ClassSyndrome, 3, 3) // window 2
	r.Observe(-1, BusLogical, ClassPauli, 9, 9)     // dropped
	r.Observe(5, NumBuses, ClassPauli, 9, 9)        // dropped
	r.Observe(5, BusLogical, NumClasses, 9, 9)      // dropped

	want := []uint64{4, 2, 3}
	if got := r.WindowBytes(); !reflect.DeepEqual(got, want) {
		t.Errorf("WindowBytes = %v, want %v", got, want)
	}
	s := r.Summary()
	if s.Cycles != 26 {
		t.Errorf("Cycles = %d, want 26", s.Cycles)
	}
	if s.TotalInstrs != 6 || s.TotalBytes != 9 {
		t.Errorf("totals = (%d, %d), want (6, 9)", s.TotalInstrs, s.TotalBytes)
	}
}

// TestMergeOrderIndependent pins the reduction law shard merging relies on:
// merging is addition, so any merge order yields the same recorder state.
func TestMergeOrderIndependent(t *testing.T) {
	mk := func() (*Recorder, *Recorder, *Recorder) {
		parent := New(4)
		a, b := parent.NewShard(), parent.NewShard()
		a.Observe(0, BusLogical, ClassPrep, 1, 2)
		a.Observe(7, BusCache, ClassCache, 5, 10)
		b.Observe(3, BusSync, ClassSync, 1, 2)
		b.Observe(12, BusReplay, ClassReplay, 8, 0)
		return parent, a, b
	}
	p1, a1, b1 := mk()
	p1.Merge(a1)
	p1.Merge(b1)
	p2, a2, b2 := mk()
	p2.Merge(b2)
	p2.Merge(a2)

	var buf1, buf2 bytes.Buffer
	if err := p1.WriteJSONL(&buf1, "t", nil); err != nil {
		t.Fatal(err)
	}
	if err := p2.WriteJSONL(&buf2, "t", nil); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(buf1.Bytes(), buf2.Bytes()) {
		t.Errorf("merge order changed the artifact bytes:\n a,b: %s\n b,a: %s", buf1.Bytes(), buf2.Bytes())
	}
}

// TestMergeWindowMismatchPanics pins that mismatched window widths are a
// programming error, not silent misaligned addition.
func TestMergeWindowMismatchPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("merging different window widths did not panic")
		}
	}()
	New(4).Merge(New(8))
}

// TestClassOfCoversISA walks every logical opcode through ClassOf and pins
// the attribution table.
func TestClassOfCoversISA(t *testing.T) {
	want := map[isa.LogicalOpcode]Class{
		isa.LPrep0: ClassPrep, isa.LPrepPlus: ClassPrep,
		isa.LMeasZ: ClassMeas, isa.LMeasX: ClassMeas,
		isa.LX: ClassPauli, isa.LZ: ClassPauli,
		isa.LH: ClassClifford, isa.LS: ClassClifford,
		isa.LT:    ClassT,
		isa.LCNOT: ClassBraid, isa.LMaskGrow: ClassBraid, isa.LMaskShrink: ClassBraid, isa.LMaskMove: ClassBraid,
		isa.LSyncToken: ClassSync,
		isa.LCacheLoad: ClassCache, isa.LCacheRun: ClassCache,
	}
	for op, cls := range want {
		if got := ClassOf(op); got != cls {
			t.Errorf("ClassOf(%v) = %s, want %s", op, got, cls)
		}
	}
}

// TestSummaryStatistics pins the reduction math on a hand-computable
// profile: peak, sustained mean, nearest-rank percentiles, burstiness.
func TestSummaryStatistics(t *testing.T) {
	r := New(1)
	// Window byte loads: 10, 0, 30, 20 → sorted 0, 10, 20, 30.
	r.Observe(0, BusLogical, ClassPauli, 5, 10)
	r.Observe(2, BusLogical, ClassPauli, 15, 30)
	r.Observe(3, BusCache, ClassCache, 10, 20)
	s := r.Summary()
	if s.PeakWindow != 2 || s.PeakBytes != 30 {
		t.Errorf("peak = (%d, %d), want (2, 30)", s.PeakWindow, s.PeakBytes)
	}
	if s.SustainedBytes != 15 {
		t.Errorf("sustained = %v, want 15", s.SustainedBytes)
	}
	if s.P50Bytes != 10 { // nearest-rank: ceil(0.50*4)=2nd of {0,10,20,30}
		t.Errorf("p50 = %d, want 10", s.P50Bytes)
	}
	if s.P99Bytes != 30 { // ceil(0.99*4)=4th
		t.Errorf("p99 = %d, want 30", s.P99Bytes)
	}
	if s.Burstiness != 2 {
		t.Errorf("burstiness = %v, want 2", s.Burstiness)
	}
	wantClasses := map[string]ClassTotal{
		"pauli": {Instrs: 20, Bytes: 40},
		"cache": {Instrs: 10, Bytes: 20},
	}
	if !reflect.DeepEqual(s.Classes, wantClasses) {
		t.Errorf("classes = %+v, want %+v", s.Classes, wantClasses)
	}
}

// TestPercentileNearestRank pins the percentile definition on known inputs.
func TestPercentileNearestRank(t *testing.T) {
	vals := []uint64{50, 10, 40, 20, 30}
	cases := []struct {
		q    int
		want uint64
	}{{50, 30}, {99, 50}, {100, 50}, {1, 10}}
	for _, tc := range cases {
		if got := percentile(vals, tc.q); got != tc.want {
			t.Errorf("percentile(%v, %d) = %d, want %d", vals, tc.q, got, tc.want)
		}
	}
	if got := percentile(nil, 50); got != 0 {
		t.Errorf("percentile(nil) = %d, want 0", got)
	}
	// The input slice must not be reordered by the sort.
	if !reflect.DeepEqual(vals, []uint64{50, 10, 40, 20, 30}) {
		t.Errorf("percentile mutated its input: %v", vals)
	}
}

// TestWriteParseValidateRoundTrip pins the artifact contract end to end:
// a written profile parses back to the same data and validates cleanly.
func TestWriteParseValidateRoundTrip(t *testing.T) {
	r := New(8)
	r.Observe(0, BusLogical, ClassPrep, 1, 2)
	r.Observe(3, BusCache, ClassCache, 4, 8)
	r.Observe(17, BusSync, ClassSync, 1, 2)
	r.Observe(17, BusReplay, ClassReplay, 12, 0)
	r.Observe(20, BusSyndrome, ClassSyndrome, 2, 2)

	var buf bytes.Buffer
	if err := r.WriteJSONL(&buf, "roundtrip", map[string]string{"design": "ram"}); err != nil {
		t.Fatal(err)
	}
	st, err := ParseStream(buf.Bytes())
	if err != nil {
		t.Fatal(err)
	}
	if st.Header.Schema != Schema || st.Header.Experiment != "roundtrip" || st.Header.WindowCycles != 8 {
		t.Errorf("header = %+v", st.Header)
	}
	if len(st.Windows) != 3 {
		t.Fatalf("parsed %d windows, want 3", len(st.Windows))
	}
	if st.Windows[2].SyncBytes != 2 || st.Windows[2].ReplayInstrs != 12 || st.Windows[2].TotalBytes != 4 {
		t.Errorf("window 2 = %+v", st.Windows[2])
	}
	rep, err := Validate(buf.Bytes())
	if err != nil {
		t.Fatalf("Validate: %v", err)
	}
	if rep.Experiment != "roundtrip" || rep.Design != "ram" {
		t.Errorf("report = %+v", rep)
	}
	if !reflect.DeepEqual(rep.Summary, r.Summary()) {
		t.Errorf("report summary %+v != recorder summary %+v", rep.Summary, r.Summary())
	}
}

// TestValidateRejectsCorruption walks the validator through the corruption
// classes questcheck must catch.
func TestValidateRejectsCorruption(t *testing.T) {
	r := New(8)
	r.Observe(0, BusLogical, ClassPauli, 1, 2)
	r.Observe(9, BusCache, ClassCache, 2, 4)
	var buf bytes.Buffer
	if err := r.WriteJSONL(&buf, "corrupt", nil); err != nil {
		t.Fatal(err)
	}
	good := buf.String()
	lines := strings.Split(strings.TrimSuffix(good, "\n"), "\n")

	cases := []struct {
		name string
		data string
		want string
	}{
		{"empty", "", "empty"},
		{"no header", lines[1] + "\n", "before header"},
		{"truncated (no summary)", lines[0] + "\n" + lines[1] + "\n", "truncated"},
		{"duplicate header", lines[0] + "\n" + good, "duplicate header"},
		{"window gap", lines[0] + "\n" + lines[2] + "\n" + lines[3] + "\n", "contiguous"},
		{"bad schema", strings.Replace(good, Schema, "quest-bw/999", 1), "schema"},
		{"inconsistent total", strings.Replace(good, `"total_bytes":2`, `"total_bytes":3`, 1), "buses sum"},
		{"summary drift", strings.Replace(good, `"peak_bytes":4`, `"peak_bytes":5`, 1), "does not reproduce"},
		{"unknown class", strings.Replace(good, `"pauli"`, `"warp"`, 1), "unknown class"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			_, err := Validate([]byte(tc.data))
			if err == nil {
				t.Fatalf("Validate accepted %s", tc.name)
			}
			if !strings.Contains(err.Error(), tc.want) {
				t.Errorf("error %q does not mention %q", err, tc.want)
			}
		})
	}
	// Two unknown classes: every call names the same one, the first by name.
	twoUnknown := strings.NewReplacer(`"pauli"`, `"warp"`, `"cache"`, `"weft"`).Replace(good)
	for i := 0; i < 200; i++ {
		if _, err := Validate([]byte(twoUnknown)); err == nil || !strings.Contains(err.Error(), `unknown class "warp"`) {
			t.Fatalf("call %d on two unknown classes: error %v, want unknown class \"warp\" on every call", i, err)
		}
	}
	if _, err := Validate([]byte(good)); err != nil {
		t.Fatalf("control: pristine file rejected: %v", err)
	}
}

// TestBusAndClassNames pins the wire vocabulary other layers (questcheck's
// replay count) key on.
func TestBusAndClassNames(t *testing.T) {
	if got := fmt.Sprint(BusLogical, BusSync, BusCache, BusSyndrome, BusReplay); got != "logical sync cache syndrome replay" {
		t.Errorf("bus names = %q", got)
	}
	if NumBuses.String() != "invalid" || NumClasses.String() != "invalid" {
		t.Error("out-of-range names must render as invalid")
	}
	for c := Class(0); c < NumClasses; c++ {
		if !knownClass(c.String()) {
			t.Errorf("class %d name %q not in knownClass", c, c)
		}
	}
}
