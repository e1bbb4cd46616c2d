package repro

import (
	"testing"
	"time"

	"repro/internal/daemon"
	"repro/internal/metrics"
	"repro/internal/workload"
)

// weightedFill is the leaf-weighted average fill over an occupancy
// scan (what the daemon's policy floor is stated against).
func weightedFill(t *testing.T, db *DB) float64 {
	t.Helper()
	occ, err := db.Occupancy(16)
	if err != nil {
		t.Fatalf("occupancy: %v", err)
	}
	var fill float64
	leaves := 0
	for _, r := range occ.Ranges {
		fill += r.AvgFill * float64(r.Leaves)
		leaves += r.Leaves
	}
	if leaves == 0 {
		return 1
	}
	return fill / float64(leaves)
}

// tickUntilIdle drives the manual daemon until it reports three
// consecutive no-run decisions (or the tick budget runs out) and
// returns how many increments it ran.
func tickUntilIdle(t *testing.T, db *DB, maxTicks int) int64 {
	t.Helper()
	d := db.Daemon()
	idle := 0
	for i := 0; i < maxTicks && idle < 3; i++ {
		before := d.Metrics().Get(metrics.DaemonIncrements)
		if err := d.Tick(); err != nil {
			t.Fatalf("tick %d: %v", i, err)
		}
		if d.Metrics().Get(metrics.DaemonIncrements) == before {
			idle++
		} else {
			idle = 0
		}
	}
	if idle < 3 {
		t.Fatalf("daemon never went idle within %d ticks", maxTicks)
	}
	return d.Metrics().Get(metrics.DaemonIncrements)
}

// churn runs the seeded delete-heavy waves against a database loaded
// with n sequential records and returns the keys left alive. Each of
// the four waves deletes two thirds of one quarter of the key space
// (deletes never merge leaves, so the region goes sparse), appends fresh
// keys at the tail, then calls settle.
func churn(t *testing.T, db *DB, n int, settle func()) map[int]bool {
	t.Helper()
	if err := workload.Load(db, n, 64, "seq", 42); err != nil {
		t.Fatal(err)
	}
	live := make(map[int]bool, n)
	for i := 0; i < n; i++ {
		live[i] = true
	}
	next := n
	for wave := 0; wave < 4; wave++ {
		lo, hi := wave*n/4, (wave+1)*n/4
		for i := lo; i < hi; i++ {
			if live[i] && i%3 != 0 {
				if err := db.Delete(workload.Key(i)); err != nil {
					t.Fatalf("wave %d delete %d: %v", wave, i, err)
				}
				delete(live, i)
			}
		}
		for j := 0; j < n/8; j++ {
			if err := db.Insert(workload.Key(next), workload.Value(next, 64)); err != nil {
				t.Fatalf("wave %d insert %d: %v", wave, next, err)
			}
			live[next] = true
			next++
		}
		settle()
	}
	return live
}

// TestDaemonSteadyStateOccupancyUnderChurn is the seeded end-to-end
// simulation: a delete-heavy churn workload drives regions sparse over
// and over, the manually-ticked daemon reorganizes behind it, and
// steady-state leaf occupancy must hold at or above the policy floor —
// and above what the same waves leave behind with no daemon. The daemon
// sees the damage through its occupancy scans alone. Fixed seed,
// virtual scheduling, no wall-clock sleeps.
func TestDaemonSteadyStateOccupancyUnderChurn(t *testing.T) {
	const n = 4000
	cfg := daemon.DefaultConfig()
	cfg.Manual = true
	cfg.Ranges = 8
	cfg.UnitsPerTick = 8
	cfg.MinLeaves = 2
	db, err := Open(Options{PageSize: 1024, Daemon: &cfg,
		DaemonClock: daemon.NewVirtualClock(time.Time{})})
	if err != nil {
		t.Fatal(err)
	}
	defer db.Close()
	live := churn(t, db, n, func() { tickUntilIdle(t, db, 400) })

	control, err := Open(Options{PageSize: 1024})
	if err != nil {
		t.Fatal(err)
	}
	defer control.Close()
	churn(t, control, n, func() {})

	d := db.Daemon()
	if units := d.Metrics().Get(metrics.DaemonUnits); units == 0 {
		t.Fatal("daemon ran no reorganization units under churn")
	}
	floor := d.Config().FloorFill
	fill := weightedFill(t, db)
	if fill < floor {
		t.Fatalf("steady-state fill %.3f below the policy floor %.3f", fill, floor)
	}
	if off := weightedFill(t, control); fill <= off {
		t.Fatalf("daemon did not hold occupancy: fill %.3f with it, %.3f without", fill, off)
	}

	// The tree the daemon reorganized is still the tree: structural
	// invariants hold and every surviving record reads back.
	if err := db.Check(); err != nil {
		t.Fatalf("check: %v", err)
	}
	for i := range live {
		if _, err := db.Get(workload.Key(i)); err != nil {
			t.Fatalf("get %d after churn: %v", i, err)
		}
	}

	// The daemon's counters surface through the DB's snapshot.
	pc := db.PerfCounters()
	if pc.Get(metrics.DaemonTicks) == 0 || pc.Get(metrics.DaemonUnits) == 0 {
		t.Fatalf("daemon counters missing from PerfCounters: %v", pc.Snapshot())
	}
}

// TestDaemonCloseDrainsMidUnit is the shutdown regression test: Close
// must stop the daemon deterministically while an increment is in
// flight — the unit finishes, the slice yields at the boundary, and
// only then do the pager and log shut down. Run under -race this
// covers the drain ordering.
func TestDaemonCloseDrainsMidUnit(t *testing.T) {
	const n = 2000
	for round := 0; round < 3; round++ {
		cfg := daemon.DefaultConfig()
		cfg.Manual = true
		cfg.UnitsPerTick = 1 << 20 // one increment compacts everything: Close lands mid-slice
		cfg.MinLeaves = 2
		db, err := Open(Options{PageSize: 1024, Daemon: &cfg})
		if err != nil {
			t.Fatal(err)
		}
		if err := workload.Load(db, n, 64, "seq", int64(round)); err != nil {
			t.Fatal(err)
		}
		if _, err := workload.Sparsify(db, n, 0.34); err != nil {
			t.Fatal(err)
		}
		// Drive ticks from a second goroutine, exactly as a background
		// loop would; Close races against the giant increment.
		tickDone := make(chan error, 1)
		go func() {
			var last error
			for i := 0; i < 50; i++ {
				if err := db.Daemon().Tick(); err != nil {
					last = err
					break
				}
			}
			tickDone <- last
		}()
		if err := db.Close(); err != nil {
			t.Fatalf("round %d: close under active daemon: %v", round, err)
		}
		if err := <-tickDone; err != nil {
			t.Fatalf("round %d: tick: %v", round, err)
		}
	}
}

// TestDaemonBackgroundLoopCloseRace exercises the goroutine mode the
// way production runs it: wall clock, tiny interval, immediate Close.
func TestDaemonBackgroundLoopCloseRace(t *testing.T) {
	for round := 0; round < 3; round++ {
		cfg := daemon.DefaultConfig()
		cfg.Interval = time.Millisecond
		cfg.UnitsPerTick = 2
		cfg.MinLeaves = 2
		db, err := Open(Options{PageSize: 1024, Daemon: &cfg})
		if err != nil {
			t.Fatal(err)
		}
		if err := workload.Load(db, 1500, 64, "seq", int64(round)); err != nil {
			t.Fatal(err)
		}
		if _, err := workload.Sparsify(db, 1500, 0.34); err != nil {
			t.Fatal(err)
		}
		if err := db.Close(); err != nil {
			t.Fatalf("round %d: close under background daemon: %v", round, err)
		}
	}
}

// TestReorganizeBusyDuringDaemonIncrement pins the single-reorganizer
// invariant: a manual Reorganize arriving while a daemon increment
// holds the slot fails with ErrReorgBusy instead of corrupting the
// shared reorg table.
func TestReorganizeBusyDuringDaemonIncrement(t *testing.T) {
	const n = 2000
	db, err := Open(Options{PageSize: 1024})
	if err != nil {
		t.Fatal(err)
	}
	defer db.Close()
	if err := workload.Load(db, n, 64, "seq", 7); err != nil {
		t.Fatal(err)
	}
	if _, err := workload.Sparsify(db, n, 0.34); err != nil {
		t.Fatal(err)
	}
	var busyErr error
	polled := false
	// The Yield hook runs at unit boundaries, strictly inside the
	// increment's tenure of the reorg slot.
	_, err = db.RunIncrement(daemon.Increment{MaxUnits: 4, Yield: func() bool {
		if !polled {
			polled = true
			_, busyErr = db.Reorganize(ReorgConfig{})
		}
		return false
	}})
	if err != nil {
		t.Fatalf("increment: %v", err)
	}
	if !polled {
		t.Fatal("yield hook never polled")
	}
	if busyErr != ErrReorgBusy {
		t.Fatalf("concurrent Reorganize: %v, want ErrReorgBusy", busyErr)
	}
	// The slot was released: a manual reorganization now proceeds.
	if _, err := db.Reorganize(ReorgConfig{}); err != nil {
		t.Fatalf("reorganize after increment: %v", err)
	}
}

// TestDaemonSurvivesCrashRestart: the daemon dies with a crash and
// recovery rebuilds it with fresh sensor state; the busy slot an
// in-flight increment held is free again.
func TestDaemonSurvivesCrashRestart(t *testing.T) {
	const n = 2000
	cfg := daemon.DefaultConfig()
	cfg.Manual = true
	cfg.MinLeaves = 2
	db, err := Open(Options{PageSize: 1024, Daemon: &cfg})
	if err != nil {
		t.Fatal(err)
	}
	defer db.Close()
	if err := workload.Load(db, n, 64, "seq", 9); err != nil {
		t.Fatal(err)
	}
	keep, err := workload.Sparsify(db, n, 0.34)
	if err != nil {
		t.Fatal(err)
	}
	if err := db.Daemon().Tick(); err != nil {
		t.Fatal(err)
	}

	db.Crash()
	if db.Daemon() != nil {
		t.Fatal("daemon must not outlive a crash")
	}
	if _, err := db.Restart(); err != nil {
		t.Fatalf("restart: %v", err)
	}
	if db.Daemon() == nil {
		t.Fatal("restart must rebuild the configured daemon")
	}
	// The rebuilt daemon works: ticks run and the reorg slot is free.
	if err := db.Daemon().Tick(); err != nil {
		t.Fatalf("tick after restart: %v", err)
	}
	if _, err := db.Reorganize(ReorgConfig{}); err != nil {
		t.Fatalf("reorganize after restart: %v", err)
	}
	for i := 0; i < n; i++ {
		if !keep(i) {
			continue
		}
		if _, err := db.Get(workload.Key(i)); err != nil {
			t.Fatalf("get %d after restart: %v", i, err)
		}
	}
}
