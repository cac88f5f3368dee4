// Command questvet runs the repository's custom analyzer suite
// (internal/lint/questvet) over the module: detrange (deterministic map
// iteration), seedsrc (no ambient entropy in simulations), schemaver
// (single-sourced schema constants), hotalloc (interprocedural hot-path
// allocation budgets from questvet-budgets.json), gateflow (nil-gated
// observability on hot paths, interprocedural), and errsink (no discarded
// writer errors). `make lint` and CI's lint job fail on any unbaselined
// diagnostic, and on a hot root, budget root or scope directory that
// matches nothing; the final summary line reports how many //quest:allow
// suppressions are in force so the escape hatches stay visible.
//
// Usage:
//
//	questvet [-v] [-json] [-sarif FILE] [-baseline FILE] [-write-baseline FILE] [pattern ...]
//
// With no patterns (or "./..."), the whole module is checked. Other
// patterns select packages whose import path equals the pattern, or falls
// under it when the pattern ends in "/..." — mirroring go-tool package
// patterns for paths inside this module. The call graph behind the
// interprocedural analyzers always covers the full module regardless of
// the pattern selection.
//
// With -baseline, findings accepted by the committed baseline do not fail
// the run; only new findings, stale baseline entries, and //quest:allow
// suppression-count drift do. -write-baseline regenerates the file
// (`make questvet-baseline`). Hot-path allocation budgets are read from
// questvet-budgets.json at the module root when present.
//
// Exit code contract (tools/internal/cli): 0 = clean, 1 = findings,
// 2 = could not run (bad usage, unreadable baseline/budget file).
package main

import (
	"flag"
	"io"
	"os"
	"path/filepath"
	"strings"

	"quest/internal/lint/hotalloc"
	"quest/internal/lint/loader"
	"quest/internal/lint/questvet"
	"quest/tools/internal/cli"
)

func main() {
	command().Main()
}

// budgetsName is the committed per-entry-point allocation budget file,
// loaded from the module root when present.
const budgetsName = "questvet-budgets.json"

func command() *cli.Command {
	flags := flag.NewFlagSet("questvet", flag.ContinueOnError)
	verbose := flags.Bool("v", false, "list each suppression with its reason")
	jsonOut := flags.Bool("json", false, "emit the report as quest-lint/1 JSON instead of text")
	sarifPath := flags.String("sarif", "", "also write active findings as SARIF 2.1.0 to `FILE`")
	basePath := flags.String("baseline", "", "diff findings against the committed baseline `FILE`; fail only on drift")
	writeBase := flags.String("write-baseline", "", "regenerate the baseline into `FILE` and exit clean")
	cmd := &cli.Command{
		Name:  "questvet",
		Usage: "[-v] [-json] [-sarif FILE] [-baseline FILE] [-write-baseline FILE] [pattern ...]",
		NArgs: -1,
		Flags: flags,
		Run: func(args []string, stdout io.Writer) error {
			return run(args, options{
				verbose: *verbose, jsonOut: *jsonOut, sarifPath: *sarifPath,
				basePath: *basePath, writeBase: *writeBase,
			}, stdout)
		},
	}
	return cmd
}

type options struct {
	verbose   bool
	jsonOut   bool
	sarifPath string
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
	budgets, err := loadBudgets(root)
	if err != nil {
		return cli.Usagef("%v", err)
	}
	rep, err := questvet.Run(prog, pkgs, questvet.Options{Budgets: budgets})
	if err != nil {
		return cli.Usagef("%v", err)
	}

	if opts.sarifPath != "" {
		f, err := os.Create(opts.sarifPath)
		if err != nil {
			return cli.Usagef("%v", err)
		}
		werr := rep.WriteSARIF(f)
		if cerr := f.Close(); werr == nil {
			werr = cerr
		}
		if werr != nil {
			return cli.Usagef("writing SARIF: %v", werr)
		}
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

	n := writeReport(rep, opts, stdout)
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

func writeReport(rep questvet.Report, opts options, stdout io.Writer) int {
	if opts.jsonOut {
		if err := rep.WriteJSON(stdout); err != nil {
			return len(rep.Active)
		}
		return len(rep.Active)
	}
	return rep.Write(stdout, opts.verbose)
}

// loadBudgets reads questvet-budgets.json from the module root; a missing
// file disables the hotalloc budget audit, a malformed one is a usage
// error.
func loadBudgets(root string) ([]hotalloc.Budget, error) {
	data, err := os.ReadFile(filepath.Join(root, budgetsName))
	if os.IsNotExist(err) {
		return nil, nil
	}
	if err != nil {
		return nil, err
	}
	return questvet.ParseBudgets(data)
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
