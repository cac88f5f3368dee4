// Command ledgermerge recombines the N ledgers written by a sharded sweep
// (questbench -shard i/N, one ledger per process) into the exact bytes the
// single-process run would have written: shard provenance is stripped from
// the reconciled header and every cell block is spliced back into global
// sweep order (cell k came from shard k mod N). CI's shard-smoke job cmp(1)s
// the result against a real 1-process run, so "merge is byte-identical" is a
// build invariant, not a comment.
//
// Usage:
//
//	ledgermerge [-o FILE] shard0.ledger shard1.ledger [shard2.ledger ...]
//
// The merged ledger goes to -o ('-' = stdout, the default; the summary line
// then moves to stderr so the bytes stay clean). A single unsharded input
// passes through unchanged, making the tool safe to script over any run.
//
// Exit codes follow the tools/internal/cli contract: 0 merged and valid, 1
// findings (incomplete or overlapping shard set, disagreeing headers, cell
// counts inconsistent with round-robin assignment), 2 usage or input that
// could not be read or parsed at all (missing file, corrupt JSON).
package main

import (
	"errors"
	"flag"
	"fmt"
	"io"
	"os"

	"quest/internal/ledger"
	"quest/tools/internal/cli"
)

func command() *cli.Command {
	fs := flag.NewFlagSet("ledgermerge", flag.ContinueOnError)
	out := fs.String("o", "-", "write the merged ledger to this file ('-' = stdout)")
	return &cli.Command{
		Name:  "ledgermerge",
		Usage: "[-o FILE] shard0.ledger [shard1.ledger ...]",
		NArgs: -1,
		Flags: fs,
		Run: func(args []string, stdout io.Writer) error {
			if len(args) == 0 {
				return cli.Usagef("no shard ledgers given")
			}
			shards := make([]*ledger.Ledger, 0, len(args))
			for _, path := range args {
				data, err := cli.ReadFile(path)
				if err != nil {
					return err
				}
				sh, err := ledger.Read(data)
				if err != nil {
					if errors.Is(err, ledger.ErrCorrupt) {
						// Unparseable bytes mean the merge never ran.
						return cli.Usagef("%s: %v", path, err)
					}
					return cli.Failf("%s: %v", path, err)
				}
				shards = append(shards, sh)
			}
			merged, err := ledger.Merge(shards)
			if err != nil {
				return cli.Failf("%v", err)
			}
			// The merged bytes must themselves be a valid ledger — a merge
			// that assembles an invalid file is a finding in its own right.
			rep, err := ledger.Validate(merged)
			if err != nil {
				return cli.Failf("merged ledger fails validation: %v", err)
			}
			summary := stdout
			if *out == "-" {
				if _, err := stdout.Write(merged); err != nil {
					return cli.Failf("write merged ledger: %v", err)
				}
				summary = os.Stderr
			} else {
				if err := os.WriteFile(*out, merged, 0o644); err != nil {
					return cli.Failf("write merged ledger: %v", err)
				}
			}
			fmt.Fprintf(summary, "ledgermerge: %d shard(s) -> %s OK — experiment %q, %d cell(s), %d trial record(s)\n",
				len(args), *out, rep.Experiment, rep.Cells, rep.Trials)
			return nil
		},
	}
}

func main() {
	command().Main()
}
