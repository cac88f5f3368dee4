// Package cli is the skeleton of the repository's artifact checker,
// tools/questcheck: flag parsing, positional-argument validation, and the
// exit-code contract that scripts and tests rely on:
//
//	0 — the check ran and found nothing wrong
//	1 — the check ran and found findings (a validation failure, a floor
//	    not met)
//	2 — the command could not run the check at all (bad usage, unreadable
//	    input, malformed flags)
//
// Commands return errors built with Failf (exit 1) or Usagef (exit 2) from
// their Run function; any other error is treated as a finding (exit 1).
// Execute never calls os.Exit, so tests pin the exit codes in-process;
// Main is the thin os.Exit wrapper for the real binaries.
package cli

import (
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
)

// Exit codes of the checker-command contract.
const (
	ExitOK       = 0
	ExitFindings = 1
	ExitUsage    = 2
)

// Command describes one checker binary.
type Command struct {
	// Name is the command name used in usage and error prefixes.
	Name string
	// Usage is the one-line usage after the name, e.g. "[-min-cells N] run.ledger".
	Usage string
	// NArgs is the exact number of positional arguments required; -1
	// accepts any number.
	NArgs int
	// Flags holds the command's flag definitions. Optional; created empty
	// when nil.
	Flags *flag.FlagSet
	// Run performs the check. args are the positional arguments; progress
	// and results go to stdout. Return nil for success, Failf(...) for
	// findings, Usagef(...) for usage errors.
	Run func(args []string, stdout io.Writer) error
}

// exitError carries an exit code with a message.
type exitError struct {
	code int
	msg  string
}

func (e *exitError) Error() string { return e.msg }

// Failf builds a findings error: the check ran and found problems (exit 1).
func Failf(format string, args ...any) error {
	return &exitError{code: ExitFindings, msg: fmt.Sprintf(format, args...)}
}

// Usagef builds a usage/input error: the check could not run (exit 2).
func Usagef(format string, args ...any) error {
	return &exitError{code: ExitUsage, msg: fmt.Sprintf(format, args...)}
}

// ReadFile reads path, mapping failure to a usage-class error (exit 2):
// an unreadable input means the check never ran.
func ReadFile(path string) ([]byte, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, Usagef("%v", err)
	}
	return data, nil
}

// Execute parses argv, validates arity, runs the command, and returns the
// exit code, writing diagnostics to stderr. It never calls os.Exit.
func (c *Command) Execute(argv []string, stdout, stderr io.Writer) int {
	fs := c.Flags
	if fs == nil {
		fs = flag.NewFlagSet(c.Name, flag.ContinueOnError)
	}
	fs.SetOutput(stderr)
	fs.Usage = func() {
		fmt.Fprintf(stderr, "usage: %s %s\n", c.Name, c.Usage)
		fs.PrintDefaults()
	}
	if err := fs.Parse(argv); err != nil {
		return ExitUsage
	}
	if c.NArgs >= 0 && fs.NArg() != c.NArgs {
		fs.Usage()
		return ExitUsage
	}
	if err := c.Run(fs.Args(), stdout); err != nil {
		fmt.Fprintf(stderr, "%s: %v\n", c.Name, err)
		var ee *exitError
		if errors.As(err, &ee) {
			return ee.code
		}
		return ExitFindings
	}
	return ExitOK
}

// Main runs the command against the real process environment and exits
// with its code.
func (c *Command) Main() {
	os.Exit(c.Execute(os.Args[1:], os.Stdout, os.Stderr))
}
