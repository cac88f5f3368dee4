// Command questvet runs the repository's custom analyzer suite
// (internal/lint/questvet) over the module: detrange (deterministic map
// iteration), seedsrc (no ambient entropy in simulations) and errsink (no
// discarded writer errors). `make lint` and CI's lint job fail on any
// unbaselined diagnostic, and on a scope directory that matches nothing;
// the final summary line reports how many //quest:allow suppressions are
// in force so the escape hatches stay visible.
//
// Usage:
//
//	questvet [-v] [-baseline FILE] [-write-baseline FILE] [pattern ...]
//
// With no patterns (or "./..."), the whole module is checked. Other
// patterns select packages whose import path equals the pattern, or falls
// under it when the pattern ends in "/..." — mirroring go-tool package
// patterns for paths inside this module. The scope check always covers the
// full module regardless of the pattern selection.
//
// With -baseline, findings accepted by the committed baseline do not fail
// the run; only new findings, stale baseline entries, and //quest:allow
// suppression-count drift do. -write-baseline regenerates the file
// (`make questvet-baseline`).
//
// Exit code contract (tools/internal/cli): 0 = clean, 1 = findings,
// 2 = could not run (bad usage, unreadable baseline file).
package main

import (
	"flag"
	"io"
	"os"
	"strings"

	"quest/internal/lint/loader"
	"quest/internal/lint/questvet"
	"quest/tools/internal/cli"
)

func main() {
	command().Main()
}

func command() *cli.Command {
	flags := flag.NewFlagSet("questvet", flag.ContinueOnError)
	verbose := flags.Bool("v", false, "list each suppression with its reason")
	basePath := flags.String("baseline", "", "diff findings against the committed baseline `FILE`; fail only on drift")
	writeBase := flags.String("write-baseline", "", "regenerate the baseline into `FILE` and exit clean")
	cmd := &cli.Command{
		Name:  "questvet",
		Usage: "[-v] [-baseline FILE] [-write-baseline FILE] [pattern ...]",
		NArgs: -1,
		Flags: flags,
		Run: func(args []string, stdout io.Writer) error {
			return run(args, options{verbose: *verbose, basePath: *basePath, writeBase: *writeBase}, stdout)
		},
	}
	return cmd
}

type options struct {
	verbose   bool
	basePath  string
	writeBase string
}

func run(patterns []string, opts options, stdout io.Writer) error {
	root, err := loader.FindRoot(".")
	if err != nil {
		return cli.Usagef("%v", err)
	}
	prog, err := loader.NewProgram(root)
	if err != nil {
		return cli.Usagef("%v", err)
	}
	pkgs, err := prog.LoadModule()
	if err != nil {
		return cli.Usagef("loading module: %v", err)
	}
	if sel := selectPackages(prog.Module, pkgs, patterns); sel != nil {
		pkgs = sel
	} else {
		return cli.Usagef("patterns %q match no packages", patterns)
	}
	rep, err := questvet.Run(prog, pkgs)
	if err != nil {
		return cli.Usagef("%v", err)
	}

	if opts.writeBase != "" {
		f, err := os.Create(opts.writeBase)
		if err != nil {
			return cli.Usagef("%v", err)
		}
		werr := rep.MakeBaseline().Write(f)
		if cerr := f.Close(); werr == nil {
			werr = cerr
		}
		if werr != nil {
			return cli.Usagef("writing baseline: %v", werr)
		}
	}

	n := rep.Write(stdout, opts.verbose)
	if opts.writeBase != "" {
		return nil // regenerating the baseline accepts the current state
	}
	if opts.basePath != "" {
		data, err := cli.ReadFile(opts.basePath)
		if err != nil {
			return err
		}
		base, err := questvet.ParseBaseline(data)
		if err != nil {
			return cli.Usagef("%v", err)
		}
		problems := rep.Diff(base)
		for _, p := range problems {
			io.WriteString(stdout, p+"\n")
		}
		if len(problems) > 0 {
			return cli.Failf("%d problem(s) vs baseline %s", len(problems), opts.basePath)
		}
		return nil
	}
	if n > 0 {
		return cli.Failf("%d diagnostic(s); fix them or add //quest:allow(<analyzer>) <reason>", n)
	}
	return nil
}

// selectPackages filters pkgs by go-style patterns relative to the module
// ("./...", "quest/internal/mc", "./internal/decoder/..."). Nil means no
// match; an empty pattern list selects everything.
func selectPackages(module string, pkgs []*loader.Package, patterns []string) []*loader.Package {
	if len(patterns) == 0 {
		return pkgs
	}
	match := func(path string) bool {
		for _, pat := range patterns {
			pat = strings.TrimPrefix(pat, "./")
			if pat == "..." || pat == "" {
				return true
			}
			if !strings.HasPrefix(pat, module) {
				pat = module + "/" + pat
			}
			if base, ok := strings.CutSuffix(pat, "/..."); ok {
				if path == base || strings.HasPrefix(path, base+"/") {
					return true
				}
				continue
			}
			if path == pat {
				return true
			}
		}
		return false
	}
	var out []*loader.Package
	for _, p := range pkgs {
		if match(p.Path) {
			out = append(out, p)
		}
	}
	return out
}
