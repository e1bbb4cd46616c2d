package main

import (
	"fmt"
	"io"
	"time"

	"repro/internal/check"
)

// sweepOpts is a parsed `reorg-bench sweep` command line.
type sweepOpts struct {
	storage
	stride  int
	maxRuns int
	walSeg  int64
	ckpt    int64
	daemon  bool
}

func parseSweep(args []string, errw io.Writer) (sweepOpts, error) {
	fs := newFlagSet("sweep", errw)
	var o sweepOpts
	o.storage.register(fs)
	fs.IntVar(&o.stride, "stride", 1, "crash at every stride-th hit")
	fs.IntVar(&o.maxRuns, "maxruns", 0, "cap on crash runs (default: all)")
	fs.Int64Var(&o.walSeg, "walseg", 0, "file backend: WAL segment size in bytes (default: the library's)")
	fs.Int64Var(&o.ckpt, "ckpt", 0, "lower the automatic-checkpoint interval to this many log bytes and checkpoint inside units and pass 3 (default: the library's interval)")
	fs.BoolVar(&o.daemon, "daemon", false, "drive the reorganization through the autonomous daemon instead of explicit passes")
	if err := parse(fs, args); err != nil {
		return o, err
	}
	if fs.NArg() > 0 {
		return o, reject(fs, "unexpected arguments %q", fs.Args())
	}
	if err := o.storage.validate(fs); err != nil {
		return o, err
	}
	if o.ckpt > 0 && o.daemon {
		return o, reject(fs, "-ckpt applies to the passes workload, not -daemon")
	}
	return o, requirePositive(fs, "stride", "maxruns", "walseg", "ckpt")
}

// runSweep executes E5b: enumerate every fault-point hit in the
// scripted workload, then crash at each one and verify recovery.
func runSweep(args []string, out, errw io.Writer) error {
	o, err := parseSweep(args, errw)
	if err != nil {
		return err
	}
	runDir, done, err := o.runDir()
	if err != nil {
		return err
	}
	defer done()
	start := time.Now()
	res, err := check.Sweep(check.SweepConfig{
		Stride:          o.stride,
		MaxRuns:         o.maxRuns,
		Torn:            true,
		Dir:             runDir,
		WALSegmentBytes: o.walSeg,
		CheckpointEvery: o.ckpt,
		Daemon:          o.daemon,
		Logf: func(format string, args ...any) {
			fmt.Fprintf(out, format+"\n", args...)
		},
	})
	if err != nil {
		return err
	}
	shape := "passes"
	if o.daemon {
		shape = "daemon"
	}
	fmt.Fprintf(out, "\nE5b crash-schedule sweep [%s backend, %s workload] (%v)\n",
		o.backend, shape, time.Since(start).Round(time.Millisecond))
	fmt.Fprintf(out, "  fault-point hits enumerated  %d\n", res.TotalHits)
	fmt.Fprintf(out, "  distinct fault points        %d\n", len(res.Points))
	fmt.Fprintf(out, "  crash runs verified          %d\n", res.CrashRuns)
	fmt.Fprintf(out, "  torn-log runs verified       %d\n", res.TornRuns)
	fmt.Fprintf(out, "  units forward-completed      %d\n", res.ForwardCompleted)
	fmt.Fprintf(out, "  crashed again inside restart %d\n", res.DoubleCrashRuns)
	fmt.Fprintf(out, "  pass-3 builds abandoned      %d\n", res.Pass3Abandoned)
	fmt.Fprintf(out, "  pass-3 switches completed    %d\n", res.Pass3Completed)
	if o.ckpt > 0 {
		fmt.Fprintf(out, "  automatic checkpoints        %d (every %d log bytes)\n", res.AutoCheckpoints, o.ckpt)
		fmt.Fprintf(out, "  checkpoints inside a reorg   %d\n", res.HookCheckpoints)
	}
	for _, p := range res.Points {
		fmt.Fprintf(out, "    %s\n", p)
	}
	return nil
}
