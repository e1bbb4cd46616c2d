package main

import (
	"fmt"
	"io"
	"strings"
	"time"

	"repro/internal/experiments"
)

// exps lists the experiments in the order `reorg-bench exp` renders
// them.
var exps = []struct {
	name  string
	table func(experiments.Params) (*experiments.Table, error)
}{
	{"e1", func(experiments.Params) (*experiments.Table, error) {
		return experiments.E1LockTable(), nil
	}},
	{"e2", func(p experiments.Params) (*experiments.Table, error) {
		res, err := experiments.E2ThreePass(p)
		if err != nil {
			return nil, err
		}
		return res.Table(), nil
	}},
	{"e3", func(p experiments.Params) (*experiments.Table, error) {
		rows, err := experiments.E3SwapReduction(p)
		return experiments.E3Table(rows), err
	}},
	{"e4", func(p experiments.Params) (*experiments.Table, error) {
		rows, err := experiments.E4Concurrency(p, []int{4, 8, 16})
		return experiments.E4Table(rows), err
	}},
	{"e5", func(p experiments.Params) (*experiments.Table, error) {
		rows, err := experiments.E5ForwardRecovery(p)
		return experiments.E5Table(rows), err
	}},
	{"e6", func(p experiments.Params) (*experiments.Table, error) {
		rows, err := experiments.E6LogVolume(p)
		return experiments.E6Table(rows), err
	}},
	{"e7", func(p experiments.Params) (*experiments.Table, error) {
		rows, err := experiments.E7Granularity(p)
		return experiments.E7Table(rows), err
	}},
	{"e8", func(p experiments.Params) (*experiments.Table, error) {
		rows, err := experiments.E8RangeScanIO(p)
		return experiments.E8Table(rows), err
	}},
	{"e9", func(p experiments.Params) (*experiments.Table, error) {
		rows, err := experiments.E9Pass3Availability(p)
		return experiments.E9Table(rows), err
	}},
}

// expOpts is a parsed `reorg-bench exp` command line.
type expOpts struct {
	params experiments.Params
	name   string // "" renders every experiment
}

func parseExp(args []string, errw io.Writer) (expOpts, error) {
	fs := newFlagSet("exp", errw)
	o := expOpts{params: experiments.DefaultParams()}
	fs.IntVar(&o.params.Records, "records", o.params.Records, "records loaded before sparsification")
	fs.IntVar(&o.params.PageSize, "pagesize", o.params.PageSize, "page size in bytes")
	fs.IntVar(&o.params.ValueSize, "valuesize", o.params.ValueSize, "record value size in bytes")
	fs.Int64Var(&o.params.Seed, "seed", o.params.Seed, "workload seed")
	if err := parse(fs, args); err != nil {
		return o, err
	}
	if err := requirePositive(fs, "records", "pagesize", "valuesize"); err != nil {
		return o, err
	}
	switch fs.NArg() {
	case 0:
		return o, nil
	case 1:
		o.name = strings.ToLower(fs.Arg(0))
		for _, e := range exps {
			if e.name == o.name {
				return o, nil
			}
		}
		return o, reject(fs, "unknown experiment %q (want e1..e9)", fs.Arg(0))
	}
	return o, reject(fs, "unexpected arguments %q (flags go before the experiment name)", fs.Args()[1:])
}

func runExp(args []string, out, errw io.Writer) error {
	o, err := parseExp(args, errw)
	if err != nil {
		return err
	}
	start := time.Now()
	for _, e := range exps {
		if o.name != "" && o.name != e.name {
			continue
		}
		t, err := e.table(o.params)
		if err != nil {
			return fmt.Errorf("%s: %w", strings.ToUpper(e.name), err)
		}
		if _, err := t.WriteTo(out); err != nil {
			return err
		}
	}
	fmt.Fprintf(out, "\ntotal: %v\n", time.Since(start).Round(time.Millisecond))
	return nil
}
