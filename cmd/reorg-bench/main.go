// Command reorg-bench reproduces the paper's results and checks the
// implementation against them. It has three subcommands, each with its
// own flags:
//
//	reorg-bench exp   [-records N] [-pagesize N] [-valuesize N] [-seed N] [e1..e9]
//	reorg-bench check [-seed N] [-histories N] [-crashes N] [-crashhit N] [-clients N] [-ops N]
//	                  [-noshrink] [-daemon] [-backend mem|file] [-dir D]
//	reorg-bench sweep [-stride N] [-maxruns N] [-daemon] [-backend mem|file] [-dir D] [-walseg N] [-ckpt N]
//
// exp regenerates the experiment tables of EXPERIMENTS.md (E1–E9): the
// paper's Table 1, the three-pass behaviour of Figures 1–2, and the
// quantified comparisons against the Tandem-style baseline (§6.1 swap
// reduction, §8 concurrency, §5.1 forward recovery, §5 log volume,
// granularity, range-scan I/O, and pass-3 availability). Without a name
// it renders all nine.
//
// check runs the deterministic property-check harness (internal/check):
// a clean reorg-equivalence run with the structure oracle at every pass
// boundary, a budget of random concurrent histories verified for
// linearizability, and a spread of crash-point equivalence schedules.
// Every failure prints a one-line repro command in this spelling.
//
// sweep runs E5b, the exhaustive crash-schedule sweep over every
// fault-point hit of a scripted reorganization (internal/fault/sweep).
// -ckpt N lowers the automatic-checkpoint interval to N log bytes, so
// crashes land inside checkpoints taken after commits, inside units and
// inside pass 3.
//
// With -backend file, check and sweep run against the file-backed page
// store and segmented WAL in fresh directories under -dir (a temp dir by
// default).
//
// System performance is not measured here: bench/ is the benchmark
// (BENCHMARK.json, bench/README.md).
package main

import (
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"strconv"
)

const usage = `usage: reorg-bench <subcommand> [flags]

  exp [flags] [e1..e9]   regenerate the paper's experiment tables (all nine without a name)
  check [flags]          property-check harness: equivalence, linearizability, crash schedules
  sweep [flags]          E5b exhaustive crash-schedule sweep

"reorg-bench <subcommand> -h" lists a subcommand's flags.
`

// errUsage reports a rejected command line. Whoever returns it has
// already told the user what was wrong, on the error writer.
var errUsage = errors.New("bad command line")

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

// run dispatches to a subcommand and maps its outcome to an exit code:
// 0 success (or -h), 1 the run failed, 2 the command line was rejected.
func run(args []string, out, errw io.Writer) int {
	if len(args) == 0 {
		fmt.Fprint(errw, usage)
		return 2
	}
	var err error
	switch args[0] {
	case "exp":
		err = runExp(args[1:], out, errw)
	case "check":
		err = runCheck(args[1:], out, errw)
	case "sweep":
		err = runSweep(args[1:], out, errw)
	case "-h", "-help", "--help":
		fmt.Fprint(out, usage)
		return 0
	default:
		fmt.Fprintf(errw, "reorg-bench: unknown subcommand %q\n%s", args[0], usage)
		return 2
	}
	switch {
	case err == nil, errors.Is(err, flag.ErrHelp):
		return 0
	case errors.Is(err, errUsage):
		return 2
	}
	fmt.Fprintf(errw, "reorg-bench %s: %v\n", args[0], err)
	return 1
}

// newFlagSet returns the flag set of one subcommand. Parse errors and
// the flag listing go to errw.
func newFlagSet(name string, errw io.Writer) *flag.FlagSet {
	fs := flag.NewFlagSet("reorg-bench "+name, flag.ContinueOnError)
	fs.SetOutput(errw)
	return fs
}

// parse runs fs over args. A flag the set does not define — one that
// belongs to another subcommand, say — is a usage error like any other.
func parse(fs *flag.FlagSet, args []string) error {
	err := fs.Parse(args)
	if err == nil || errors.Is(err, flag.ErrHelp) {
		return err
	}
	return errUsage // fs.Parse has printed the reason and the flags
}

// reject prints why the command line was refused, then the flags.
func reject(fs *flag.FlagSet, format string, a ...any) error {
	fmt.Fprintf(fs.Output(), "%s: %s\n", fs.Name(), fmt.Sprintf(format, a...))
	fs.Usage()
	return errUsage
}

// requirePositive rejects a count that was given and is not positive.
// Flags left at their default are not looked at: several defaults are 0
// for "derive it" or "no limit", which nobody can ask for by number.
func requirePositive(fs *flag.FlagSet, names ...string) error {
	var err error
	fs.Visit(func(f *flag.Flag) {
		for _, name := range names {
			// Parse accepted the value, so it is an integer.
			if v, _ := strconv.ParseInt(f.Value.String(), 10, 64); f.Name == name && v <= 0 && err == nil {
				err = reject(fs, "-%s must be positive, got %d", name, v)
			}
		}
	})
	return err
}

// storage holds the flags that put a run on the file backend.
type storage struct {
	backend string
	dir     string
}

func (s *storage) register(fs *flag.FlagSet) {
	fs.StringVar(&s.backend, "backend", "mem", "storage backend: mem or file")
	fs.StringVar(&s.dir, "dir", "", "file backend: parent directory for run directories (default: system temp)")
}

func (s *storage) validate(fs *flag.FlagSet) error {
	if s.backend != "mem" && s.backend != "file" {
		return reject(fs, "unknown -backend %q (want mem or file)", s.backend)
	}
	return nil
}
