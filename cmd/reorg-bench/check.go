package main

import (
	"fmt"
	"io"
	"log"
	"os"
	"time"

	"repro/internal/check"
)

// checkOpts is a parsed `reorg-bench check` command line.
type checkOpts struct {
	storage
	seed      int64
	histories int
	crashes   int
	crashHit  int
	clients   int
	ops       int
	noShrink  bool
	daemon    bool
}

func parseCheck(args []string, errw io.Writer) (checkOpts, error) {
	fs := newFlagSet("check", errw)
	var o checkOpts
	o.storage.register(fs)
	fs.Int64Var(&o.seed, "seed", 42, "harness seed")
	fs.IntVar(&o.histories, "histories", 100, "random concurrent histories to verify (0 = none)")
	fs.IntVar(&o.crashes, "crashes", 10, "crash-point equivalence schedules (0 = none)")
	fs.IntVar(&o.crashHit, "crashhit", 0, "run one equivalence crash repro at this fault-point hit")
	fs.IntVar(&o.clients, "clients", 0, "override the derived history client count")
	fs.IntVar(&o.ops, "ops", 0, "override the derived history ops-per-client")
	fs.BoolVar(&o.noShrink, "noshrink", false, "skip shrinking failing histories")
	fs.BoolVar(&o.daemon, "daemon", false, "enable the autonomous-daemon arm")
	if err := parse(fs, args); err != nil {
		return o, err
	}
	if fs.NArg() > 0 {
		return o, reject(fs, "unexpected arguments %q", fs.Args())
	}
	if err := o.storage.validate(fs); err != nil {
		return o, err
	}
	if o.histories < 0 || o.crashes < 0 {
		return o, reject(fs, "-histories and -crashes must not be negative")
	}
	return o, requirePositive(fs, "crashhit", "clients", "ops")
}

// runCheck executes the property-check harness. A -crashhit runs a
// single equivalence crash repro; otherwise the full smoke budget. Any
// violation comes back as an error carrying the repro line.
func runCheck(args []string, out, errw io.Writer) error {
	o, err := parseCheck(args, errw)
	if err != nil {
		return err
	}
	start := time.Now()
	// The harness puts each file-backend run in a fresh subdirectory of
	// runDir; empty means the in-memory backend.
	runDir := ""
	if o.backend == "file" {
		runDir = o.dir
		if runDir == "" {
			tmp, err := os.MkdirTemp("", "reorg-check-")
			if err != nil {
				return fmt.Errorf("temp dir: %w", err)
			}
			defer os.RemoveAll(tmp)
			runDir = tmp
		}
	}
	if o.crashHit > 0 {
		res, err := check.Equiv(check.EquivConfig{Seed: o.seed, CrashHit: o.crashHit, Dir: runDir, Daemon: o.daemon})
		if err != nil {
			return fmt.Errorf("crash repro (seed %d, hit %d): %w", o.seed, o.crashHit, err)
		}
		fmt.Fprintf(out, "check: crash repro ok (seed %d, hit %d): crashed=%v restarts=%d side=%d records=%d (%v)\n",
			o.seed, o.crashHit, res.Crashed, res.Restarts, res.SideApplied, res.Records,
			time.Since(start).Round(time.Millisecond))
		return nil
	}
	cfg := check.SmokeConfig{
		Seed:           o.seed,
		Histories:      o.histories,
		CrashSchedules: o.crashes,
		Shrink:         !o.noShrink,
		Dir:            runDir,
		Daemon:         o.daemon,
		HistoryClients: o.clients,
		HistoryOps:     o.ops,
		Logf:           log.New(errw, "", log.LstdFlags).Printf,
	}
	// Flag value 0 means "run none"; SmokeConfig uses negative for that
	// (its zero value selects the default budget).
	if o.histories == 0 {
		cfg.Histories = -1
	}
	if o.crashes == 0 {
		cfg.CrashSchedules = -1
	}
	res, err := check.Smoke(cfg)
	if err != nil {
		return err
	}
	fmt.Fprintf(out, "check: ok — %d histories linearizable, %d crash schedules equivalent (%d fault-point hits), %d side-file applies (%v)\n",
		res.Histories, res.CrashRuns, res.Hits, res.SideApplied,
		time.Since(start).Round(time.Millisecond))
	return nil
}
