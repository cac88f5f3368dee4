package ledger

import (
	"bytes"
	"errors"
	"fmt"
	"strings"
	"testing"
)

// fakeCell writes one synthetic but Validate-clean cell (trials trial
// records plus a summary) through w.
func fakeCell(t *testing.T, w *Writer, name string, trials int) {
	t.Helper()
	for i := 0; i < trials; i++ {
		if err := w.WriteTrial(Trial{
			Cell: name, Trial: i, Seed: SeedString(uint64(i)*97 + 13),
			Fail: i%4 == 0,
		}); err != nil {
			t.Fatal(err)
		}
	}
	fails := (trials + 3) / 4
	rate := 0.0
	if trials > 0 {
		rate = float64(fails) / float64(trials)
	}
	if err := w.WriteCell(Cell{
		Cell: name, Seed: SeedString(0xce11), Budget: trials, Trials: trials,
		Failures: fails, Rate: rate, WilsonLo: 0, WilsonHi: 1,
	}); err != nil {
		t.Fatal(err)
	}
}

// shardSet builds the single-process ledger for cells named cell-0..cell-C-1
// (with per-cell trial counts) plus the n shard ledgers a -shard i/n run of
// the same sweep would write.
func shardSet(t *testing.T, n int, trialsPerCell []int) (full []byte, shards [][]byte) {
	t.Helper()
	cfg := map[string]string{"trials": "x"}
	var fullBuf bytes.Buffer
	fw, err := NewWriter(&fullBuf, "merge-test", cfg, ShardInfo{})
	if err != nil {
		t.Fatal(err)
	}
	for k, tr := range trialsPerCell {
		fakeCell(t, fw, fmt.Sprintf("cell-%d", k), tr)
	}
	if err := fw.Flush(); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < n; i++ {
		var buf bytes.Buffer
		sw, err := NewWriter(&buf, "merge-test", cfg, ShardInfo{Index: i, Count: n})
		if err != nil {
			t.Fatal(err)
		}
		for k, tr := range trialsPerCell {
			if k%n == i {
				fakeCell(t, sw, fmt.Sprintf("cell-%d", k), tr)
			}
		}
		if err := sw.Flush(); err != nil {
			t.Fatal(err)
		}
		shards = append(shards, buf.Bytes())
	}
	return fullBuf.Bytes(), shards
}

func parseAll(t *testing.T, shards [][]byte) []*Ledger {
	t.Helper()
	out := make([]*Ledger, len(shards))
	for i, data := range shards {
		sh, err := Read(data)
		if err != nil {
			t.Fatalf("Read(shard %d): %v", i, err)
		}
		out[i] = sh
	}
	return out
}

// TestMergeByteIdentical pins the tool's whole contract at the library
// level: for 1-, 2- and 3-way shard sets — including ragged cell counts and
// a shard that owns zero cells — Merge reproduces the single-process bytes.
func TestMergeByteIdentical(t *testing.T) {
	cases := []struct {
		name   string
		n      int
		trials []int
	}{
		{"two-way even", 2, []int{3, 2, 5, 1}},
		{"two-way ragged", 2, []int{3, 2, 5}},
		{"three-way ragged", 3, []int{2, 4, 1, 3, 2}},
		{"empty shard", 2, []int{4}}, // shard 1 owns no cells: header only
		{"three-way single cell", 3, []int{6}},
		{"zero-trial cell", 2, []int{0, 3}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			full, shardBytes := shardSet(t, tc.n, tc.trials)
			merged, err := Merge(parseAll(t, shardBytes))
			if err != nil {
				t.Fatalf("Merge: %v", err)
			}
			if !bytes.Equal(merged, full) {
				t.Errorf("merged bytes differ from the single-process ledger:\nmerged:\n%s\nwant:\n%s", merged, full)
			}
			if _, err := Validate(merged); err != nil {
				t.Errorf("merged ledger fails Validate: %v", err)
			}
		})
	}
}

// TestMergeSingleUnshardedIdentity pins that one unsharded ledger merges to
// itself byte for byte, so scripts can run ledgermerge unconditionally.
func TestMergeSingleUnshardedIdentity(t *testing.T) {
	full, _ := shardSet(t, 1, []int{2, 3})
	sh, err := Read(full)
	if err != nil {
		t.Fatalf("Read: %v", err)
	}
	merged, err := Merge([]*Ledger{sh})
	if err != nil {
		t.Fatalf("Merge: %v", err)
	}
	if !bytes.Equal(merged, full) {
		t.Errorf("identity merge changed bytes")
	}
}

// TestMergeFindings pins that semantically wrong shard sets are reported as
// plain errors (findings, exit 1 in ledgermerge), never ErrCorrupt.
func TestMergeFindings(t *testing.T) {
	_, shards2 := shardSet(t, 2, []int{3, 2, 5})
	_, shards3 := shardSet(t, 3, []int{2, 4, 1})
	cases := []struct {
		name string
		in   [][]byte
		want string
	}{
		{"missing shard", shards2[:1], "2-way shard set but 1"},
		{"duplicate shard index", [][]byte{shards2[0], shards2[0]}, "both claim to be shard 0/2"},
		{"mixed shard counts", [][]byte{shards2[0], shards3[1]}, "shard counts disagree"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			_, err := Merge(parseAll(t, tc.in))
			if err == nil {
				t.Fatal("Merge accepted a bad shard set")
			}
			if errors.Is(err, ErrCorrupt) {
				t.Errorf("finding misclassified as ErrCorrupt: %v", err)
			}
			if !strings.Contains(err.Error(), tc.want) {
				t.Errorf("error %q does not mention %q", err, tc.want)
			}
		})
	}
}

// TestMergeOverlappingCellsIsFinding pins the duplicate-cell case by name:
// two shards both carrying cell-0 is a finding with the cell named, not a
// crash and not corruption.
func TestMergeOverlappingCellsIsFinding(t *testing.T) {
	_, shards := shardSet(t, 2, []int{3, 2})
	// Rebuild shard 1 so it (wrongly) carries cell-0, which shard 0 owns.
	var buf bytes.Buffer
	sw, err := NewWriter(&buf, "merge-test", map[string]string{"trials": "x"}, ShardInfo{Index: 1, Count: 2})
	if err != nil {
		t.Fatal(err)
	}
	fakeCell(t, sw, "cell-0", 3)
	if err := sw.Flush(); err != nil {
		t.Fatal(err)
	}
	_, err = Merge(parseAll(t, [][]byte{shards[0], buf.Bytes()}))
	if err == nil {
		t.Fatal("Merge accepted overlapping shard assignments")
	}
	if errors.Is(err, ErrCorrupt) {
		t.Errorf("overlap misclassified as ErrCorrupt: %v", err)
	}
	if !strings.Contains(err.Error(), "cell-0") {
		t.Errorf("error %q does not name the duplicated cell", err)
	}
}

// TestMergeHeaderDisagreement pins that shards from different runs (any
// header field beyond shard provenance differing) refuse to merge.
func TestMergeHeaderDisagreement(t *testing.T) {
	_, shards := shardSet(t, 2, []int{2, 2})
	var buf bytes.Buffer
	sw, err := NewWriter(&buf, "merge-test", map[string]string{"trials": "DIFFERENT"}, ShardInfo{Index: 1, Count: 2})
	if err != nil {
		t.Fatal(err)
	}
	fakeCell(t, sw, "cell-1", 2)
	if err := sw.Flush(); err != nil {
		t.Fatal(err)
	}
	_, err = Merge(parseAll(t, [][]byte{shards[0], buf.Bytes()}))
	if err == nil || !strings.Contains(err.Error(), "headers disagree") {
		t.Fatalf("Merge = %v, want a header-disagreement finding", err)
	}
}

// TestParseShardCorruptVsFinding pins the exit-code split the per-shard
// Read feeds ledgermerge: unparseable bytes wrap ErrCorrupt (exit 2), while
// readable but structurally wrong ledgers are plain findings (exit 1).
func TestParseShardCorruptVsFinding(t *testing.T) {
	full, _ := shardSet(t, 1, []int{2})
	lines := bytes.Split(bytes.TrimSuffix(full, []byte("\n")), []byte("\n"))

	t.Run("garbled line is ErrCorrupt", func(t *testing.T) {
		bad := append(append([]byte{}, full...), []byte("{torn")...)
		_, err := Read(bad)
		if !errors.Is(err, ErrCorrupt) {
			t.Fatalf("Read = %v, want ErrCorrupt", err)
		}
	})
	t.Run("dangling cell is a finding", func(t *testing.T) {
		// Header + trial records but no summary: readable, incomplete.
		partial := bytes.Join(lines[:2], []byte("\n"))
		_, err := Read(append(partial, '\n'))
		if err == nil || errors.Is(err, ErrCorrupt) {
			t.Fatalf("Read = %v, want a plain incomplete-shard finding", err)
		}
		if !strings.Contains(err.Error(), "resume") {
			t.Errorf("error %q should point at -resume for incomplete shards", err)
		}
	})
	t.Run("wrong schema is a finding", func(t *testing.T) {
		bad := bytes.Replace(full, []byte(Schema), []byte("quest-ledger/99"), 1)
		_, err := Read(bad)
		if err == nil || errors.Is(err, ErrCorrupt) {
			t.Fatalf("Read = %v, want a plain schema finding", err)
		}
	})
	t.Run("empty input is a finding", func(t *testing.T) {
		if _, err := Read(nil); err == nil || errors.Is(err, ErrCorrupt) {
			t.Fatalf("Read(nil) = %v, want a plain finding", err)
		}
	})
}

// TestShardHeaderLayoutCompatible pins the schema compatibility promise: an
// unsharded header carries no shard fields at all (omitempty), and a shard
// header round-trips its provenance.
func TestShardHeaderLayoutCompatible(t *testing.T) {
	full, shards := shardSet(t, 2, []int{1, 1})
	if head := bytes.SplitN(full, []byte("\n"), 2)[0]; bytes.Contains(head, []byte("shard_")) {
		t.Errorf("unsharded header mentions shard fields: %s", head)
	}
	sh, err := Read(shards[1])
	if err != nil {
		t.Fatal(err)
	}
	if sh.Header.ShardIndex != 1 || sh.Header.ShardCount != 2 {
		t.Errorf("shard header = %d/%d, want 1/2", sh.Header.ShardIndex, sh.Header.ShardCount)
	}
}
