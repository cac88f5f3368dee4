package ledger

// This file is the replication-log half of the ledger: a sharded sweep
// (questbench -shard i/N) produces N shard ledgers, each a complete
// quest-ledger/1 file covering the cells with global index ≡ i (mod N), and
// Merge deterministically re-interleaves them into bytes identical to the
// ledger a single process would have written. That byte identity is the
// process-count generalization of the worker-count independence the ledger
// has pinned since PR 4: records are pure functions of trial-ordered
// outcomes, cells are whole units assigned round-robin, so the only work
// left to the merge is reconciling headers and splicing cell blocks back
// into global sweep order. tools/ledgermerge drives this; CI's shard-smoke
// job cmp(1)s the result against a 1-process run.

import (
	"bytes"
	"encoding/json"
	"fmt"
	"sort"
)

// Merge re-interleaves a complete set of shard ledgers into the bytes the
// single-process sweep would have written: the reconciled header (shard
// provenance stripped) followed by every cell block in global sweep order.
// All failures are findings: an incomplete or duplicated shard set,
// disagreeing headers, a cell owned by two shards, or cell counts
// inconsistent with round-robin assignment.
func Merge(shards []*Ledger) ([]byte, error) {
	if len(shards) == 0 {
		return nil, fmt.Errorf("no shards to merge")
	}
	n := shards[0].Header.ShardCount
	if n < 2 {
		// A single unsharded ledger merges to itself.
		if len(shards) != 1 {
			return nil, fmt.Errorf("%d inputs but the first is unsharded (no shard_count header field)", len(shards))
		}
		return assemble(shards[0].headerLine, shards[0].Cells), nil
	}
	if len(shards) != n {
		return nil, fmt.Errorf("headers declare a %d-way shard set but %d shard(s) were given", n, len(shards))
	}
	byIndex := make([]*Ledger, n)
	for _, sh := range shards {
		h := sh.Header
		if h.ShardCount != n {
			return nil, fmt.Errorf("shard counts disagree: %d vs %d", h.ShardCount, n)
		}
		if h.ShardIndex < 0 || h.ShardIndex >= n {
			return nil, fmt.Errorf("shard index %d outside [0, %d)", h.ShardIndex, n)
		}
		if byIndex[h.ShardIndex] != nil {
			return nil, fmt.Errorf("two inputs both claim to be shard %d/%d", h.ShardIndex, n)
		}
		byIndex[h.ShardIndex] = sh
	}
	headerLine, err := reconcileHeaders(byIndex)
	if err != nil {
		return nil, err
	}
	if dups := duplicateCells(byIndex); len(dups) > 0 {
		return nil, fmt.Errorf("cell(s) %q appear in more than one shard — overlapping shard assignments cannot merge", dups)
	}
	// Round-robin reassembly: global cell k came from shard k mod n, so
	// shard i must carry exactly ceil((C-i)/n) of the C total cells —
	// anything else means the shards ran different sweeps.
	total := 0
	for _, sh := range byIndex {
		total += len(sh.Cells)
	}
	for i, sh := range byIndex {
		want := 0
		if total > i {
			want = (total - i + n - 1) / n
		}
		if len(sh.Cells) != want {
			return nil, fmt.Errorf("shard %d/%d carries %d cell(s), want %d of the %d-cell sweep — the shards did not run the same sweep",
				i, n, len(sh.Cells), want, total)
		}
	}
	merged := make([]CellBlock, 0, total)
	for k := 0; k < total; k++ {
		sh := byIndex[k%n]
		merged = append(merged, sh.Cells[k/n])
	}
	return assemble(headerLine, merged), nil
}

// reconcileHeaders checks every shard header is identical once its shard
// provenance is stripped, and returns the stripped header line — which is
// byte-identical to the single-process run's header because both are the
// same struct marshaled by the same encoder.
func reconcileHeaders(shards []*Ledger) ([]byte, error) {
	var first []byte
	for i, sh := range shards {
		h := sh.Header
		h.ShardIndex, h.ShardCount = 0, 0
		line, err := json.Marshal(h)
		if err != nil {
			return nil, fmt.Errorf("shard %d header: %v", i, err)
		}
		if first == nil {
			first = line
		} else if !bytes.Equal(first, line) {
			return nil, fmt.Errorf("shard headers disagree (beyond shard provenance): shard 0 %s vs shard %d %s", first, i, line)
		}
	}
	return first, nil
}

// duplicateCells returns the sorted cell names owned by more than one
// shard. (Read already refuses a cell repeated within one ledger.)
func duplicateCells(shards []*Ledger) []string {
	seen := map[string]int{}
	var dups []string
	for _, sh := range shards {
		for _, c := range sh.Cells {
			if seen[c.Summary.Cell]++; seen[c.Summary.Cell] == 2 {
				dups = append(dups, c.Summary.Cell)
			}
		}
	}
	sort.Strings(dups)
	return dups
}

// assemble joins the header line and cell blocks back into JSONL bytes.
func assemble(headerLine []byte, cells []CellBlock) []byte {
	var buf bytes.Buffer
	buf.Write(headerLine)
	buf.WriteByte('\n')
	for _, c := range cells {
		for _, line := range c.Lines {
			buf.Write(line)
			buf.WriteByte('\n')
		}
	}
	return buf.Bytes()
}
