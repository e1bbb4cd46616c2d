package experiments

import (
	"errors"
	"time"

	repro "repro"
	"repro/internal/baseline"
	"repro/internal/metrics"
)

// errInjected is the crash sentinel for E5.
var errInjected = errors.New("injected crash")

// --- E5: forward recovery vs rollback (§5.1 vs [Smi90]) ---

// E5Row is one crash-recovery measurement.
type E5Row struct {
	System        string
	WorkPreCrash  int64 // units / block ops completed before the crash
	FillPreCrash  float64
	RestartMillis float64
	FillPostRec   float64 // fill right after restart, before any re-run
	InFlight      string  // what happened to the interrupted operation
}

// E5ForwardRecovery crashes both reorganizers mid-operation and
// measures how much compaction work survives restart.
func E5ForwardRecovery(p Params) ([]E5Row, error) {
	var rows []E5Row

	// Paper system: crash mid-unit after a fixed number of units.
	{
		db, keep, err := buildSparse(p, 0.25)
		if err != nil {
			return nil, err
		}
		crashAfter := 8
		units := 0
		r := db.Reorganizer(repro.ReorgConfig{TargetFill: 0.9, CarefulWriting: true,
			OnEvent: func(s string) error {
				if s == "compact.moved" {
					units++
					if units == crashAfter {
						return errInjected
					}
				}
				return nil
			}})
		if err := r.CompactLeaves(); !errors.Is(err, errInjected) {
			return nil, err
		}
		pre := r.Metrics().Get(metrics.UnitsCompact)
		preStats, _ := db.GatherStats()
		db.Crash()
		start := time.Now()
		info, err := db.Restart()
		if err != nil {
			return nil, err
		}
		restartMS := float64(time.Since(start).Microseconds()) / 1000
		post, _ := db.GatherStats()
		if err := verifyAll(db, keep, p.Records); err != nil {
			return nil, err
		}
		inflight := "rolled back"
		if info.UnitCompleted {
			inflight = "completed forward"
		}
		rows = append(rows, E5Row{System: "paper (forward recovery)",
			WorkPreCrash: pre, FillPreCrash: preStats.AvgLeafFill,
			RestartMillis: restartMS, FillPostRec: post.AvgLeafFill,
			InFlight: inflight})
	}

	// Baseline: crash mid block operation.
	{
		db, keep, err := buildSparse(p, 0.25)
		if err != nil {
			return nil, err
		}
		crashAfter := 8
		ops := 0
		b := baseline.New(db.Tree(), baseline.Config{TargetFill: 0.9,
			OnEvent: func(s string) error {
				if s == "op.mutated" {
					ops++
					if ops == crashAfter {
						return errInjected
					}
				}
				return nil
			}})
		if err := b.Run(); !errors.Is(err, errInjected) {
			return nil, err
		}
		pre := b.Metrics().Get(metrics.BaselineOps)
		preStats, _ := db.GatherStats()
		db.Crash()
		start := time.Now()
		if _, err := db.Restart(); err != nil {
			return nil, err
		}
		restartMS := float64(time.Since(start).Microseconds()) / 1000
		post, _ := db.GatherStats()
		if err := verifyAll(db, keep, p.Records); err != nil {
			return nil, err
		}
		// Every key is there (verifyAll); the in-flight merge is lost
		// when the restarted tree has the leaves it had at the crash.
		inflight := "completed forward"
		if post.LeafPages == preStats.LeafPages {
			inflight = "rolled back (work lost)"
		}
		rows = append(rows, E5Row{System: "smith90 (txn rollback)",
			WorkPreCrash: pre, FillPreCrash: preStats.AvgLeafFill,
			RestartMillis: restartMS, FillPostRec: post.AvgLeafFill,
			InFlight: inflight})
	}
	return rows, nil
}

// E5Table renders the comparison.
func E5Table(rows []E5Row) *Table {
	t := &Table{Title: "E5 / §5.1: crash mid-reorganization, what survives restart",
		Header: []string{"system", "ops pre-crash", "fill pre-crash",
			"restart(ms)", "fill post-recovery", "in-flight op"}}
	for _, r := range rows {
		t.Rows = append(t.Rows, []string{r.System, d(r.WorkPreCrash),
			f2(r.FillPreCrash), f0(r.RestartMillis), f2(r.FillPostRec), r.InFlight})
	}
	return t
}

// --- E6: log volume (§5 careful writing) ---

// E6Row is one logging-discipline measurement.
type E6Row struct {
	System       string
	LogBytes     int64
	RecordsMoved int64
	BytesPerRec  float64
}

// E6LogVolume compares careful writing (keys only), full-content MOVE
// logging, and the baseline's block images for the same compaction.
func E6LogVolume(p Params) ([]E6Row, error) {
	var rows []E6Row
	run := func(name string, fn func(db *repro.DB) (*metrics.Counters, error)) error {
		db, keep, err := buildSparse(p, 0.25)
		if err != nil {
			return err
		}
		before := db.LogBytes()
		m, err := fn(db)
		if err != nil {
			return err
		}
		if err := verifyAll(db, keep, p.Records); err != nil {
			return err
		}
		bytes := db.LogBytes() - before
		moved := m.Get(metrics.RecordsMoved)
		bpr := 0.0
		if moved > 0 {
			bpr = float64(bytes) / float64(moved)
		}
		rows = append(rows, E6Row{System: name, LogBytes: bytes,
			RecordsMoved: moved, BytesPerRec: bpr})
		return nil
	}
	if err := run("paper, careful writing (keys)", func(db *repro.DB) (*metrics.Counters, error) {
		return db.Reorganize(repro.ReorgConfig{TargetFill: 0.9, CarefulWriting: true})
	}); err != nil {
		return nil, err
	}
	if err := run("paper, full-content MOVEs", func(db *repro.DB) (*metrics.Counters, error) {
		return db.Reorganize(repro.ReorgConfig{TargetFill: 0.9, CarefulWriting: false})
	}); err != nil {
		return nil, err
	}
	if err := run("smith90, block images", func(db *repro.DB) (*metrics.Counters, error) {
		b := baseline.New(db.Tree(), baseline.Config{TargetFill: 0.9})
		if err := b.Run(); err != nil {
			return nil, err
		}
		return b.Metrics(), nil
	}); err != nil {
		return nil, err
	}
	return rows, nil
}

// E6Table renders the comparison.
func E6Table(rows []E6Row) *Table {
	t := &Table{Title: "E6 / §5: reorganization log volume by logging discipline",
		Header: []string{"system", "log bytes", "records moved", "bytes/record"}}
	for _, r := range rows {
		t.Rows = append(t.Rows, []string{r.System, d(r.LogBytes),
			d(r.RecordsMoved), f0(r.BytesPerRec)})
	}
	return t
}

// --- E7: granularity (§8: d pages per unit vs two-block transactions) ---

// E7Row is one (fill, system) granularity measurement.
type E7Row struct {
	Fill         float64
	System       string
	Ops          int64
	PagesPerOp   float64
	LockRequests int64
}

// E7Granularity counts how many operations (units vs block txns) and
// lock-manager grants the same compaction costs each system.
func E7Granularity(p Params) ([]E7Row, error) {
	var rows []E7Row
	for _, fill := range []float64{0.125, 0.25, 0.50} {
		{
			db, _, err := buildSparse(p, fill)
			if err != nil {
				return nil, err
			}
			grantsBefore := db.LockStats().Grants.Load()
			m, err := db.Reorganize(repro.ReorgConfig{TargetFill: 0.9, CarefulWriting: true})
			if err != nil {
				return nil, err
			}
			units := m.Get(metrics.UnitsCompact)
			freed := m.Get(metrics.PagesFreed)
			ppo := 0.0
			if units > 0 {
				ppo = float64(freed+units) / float64(units)
			}
			rows = append(rows, E7Row{Fill: fill, System: "paper (d-page units)",
				Ops: units, PagesPerOp: ppo,
				LockRequests: db.LockStats().Grants.Load() - grantsBefore})
		}
		{
			db, _, err := buildSparse(p, fill)
			if err != nil {
				return nil, err
			}
			grantsBefore := db.LockStats().Grants.Load()
			b := baseline.New(db.Tree(), baseline.Config{TargetFill: 0.9})
			if err := b.Run(); err != nil {
				return nil, err
			}
			ops := b.Metrics().Get(metrics.BaselineOps)
			rows = append(rows, E7Row{Fill: fill, System: "smith90 (2-block txns)",
				Ops: ops, PagesPerOp: 2,
				LockRequests: db.LockStats().Grants.Load() - grantsBefore})
		}
	}
	return rows, nil
}

// E7Table renders the comparison.
func E7Table(rows []E7Row) *Table {
	t := &Table{Title: "E7 / §8: operations needed for the same compaction",
		Header: []string{"initial fill", "system", "ops", "pages/op", "lock grants"}}
	for _, r := range rows {
		t.Rows = append(t.Rows, []string{f2(r.Fill), r.System, d(r.Ops),
			f2(r.PagesPerOp), d(r.LockRequests)})
	}
	return t
}
