package repro

import (
	"errors"
	"testing"

	"repro/internal/fault"
	"repro/internal/workload"
)

// Restart cleans up an interrupted pass 3 from the stable page types
// (core.ReclaimPass3), not from the Alloc records its redo scan happens
// to pass. The tests below are the two ways the log-derived list was
// wrong: a checkpoint inside pass 3 hid the first Allocs from redo
// (leaked pages), and a second interrupted pass replayed the first
// one's Allocs and freed ids that had since been reused as leaves
// (committed records destroyed).

var errPass3Crash = errors.New("injected pass-3 crash")

const pass3Records, pass3ValueSize = 6000, 32

// sparseDB loads and sparsifies a tree tall enough for pass 3 to read a
// dozen base pages; keep tells which of the loaded records survive.
func sparseDB(t *testing.T, opts Options) (db *DB, keep func(int) bool) {
	t.Helper()
	opts.PageSize = 512
	db, err := Open(opts)
	if err != nil {
		t.Fatal(err)
	}
	if err := workload.Load(db, pass3Records, pass3ValueSize, "random", 7); err != nil {
		t.Fatal(err)
	}
	keep, err = workload.Sparsify(db, pass3Records, 0.25)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := db.Reorganize(ReorgConfig{TargetFill: 0.9}); err != nil {
		t.Fatal(err)
	}
	return db, keep
}

// crashPass3 runs a reorganization whose pass 3 dies at its crashAt-th
// base page (calling atBase, if set, at every earlier one), then crashes
// and restarts the database. It fails the test unless the restart
// abandoned the pass.
func crashPass3(t *testing.T, db *DB, crashAt int, atBase func(n int) error) {
	t.Helper()
	bases := 0
	_, err := db.Reorganize(ReorgConfig{TargetFill: 0.9, InternalPass: true,
		OnEvent: func(stage string) error {
			if stage != "pass3.base" {
				return nil
			}
			bases++
			if bases == crashAt {
				return errPass3Crash
			}
			if atBase != nil {
				return atBase(bases)
			}
			return nil
		}})
	if !errors.Is(err, errPass3Crash) {
		t.Fatalf("pass 3 did not reach base page %d: %v", crashAt, err)
	}
	db.Crash()
	info, err := db.Restart()
	if err != nil {
		t.Fatalf("restart: %v", err)
	}
	if !info.Pass3Abandoned || info.Pass3Completed {
		t.Fatalf("restart reported abandoned=%v completed=%v, want an abandoned pass 3",
			info.Pass3Abandoned, info.Pass3Completed)
	}
}

// verifyRecords checks the tree's structure and that exactly the
// surviving loaded records plus extra appended ones are present.
func verifyRecords(t *testing.T, db *DB, keep func(int) bool, extra int) {
	t.Helper()
	if err := db.Check(); err != nil {
		t.Fatalf("check after restart: %v", err)
	}
	want := 0
	for i := 0; i < pass3Records+extra; i++ {
		if i < pass3Records && !keep(i) {
			continue
		}
		want++
		v, err := db.Get(workload.Key(i))
		if err != nil {
			t.Fatalf("record %d lost: %v", i, err)
		}
		if string(v) != string(workload.Value(i, pass3ValueSize)) {
			t.Fatalf("record %d corrupted", i)
		}
	}
	if n, err := db.Count(nil, nil); err != nil || n != want {
		t.Fatalf("tree holds %d records (err %v), want %d", n, err, want)
	}
}

func TestPass3CheckpointThenCrashLeaksNothing(t *testing.T) {
	db, keep := sparseDB(t, Options{})
	defer db.Close()
	before := db.pager.FreeMapStats().Allocated
	crashPass3(t, db, 9, func(n int) error {
		if n == 6 {
			return db.Checkpoint()
		}
		return nil
	})
	if after := db.pager.FreeMapStats().Allocated; after != before {
		t.Errorf("allocated pages %d -> %d across an abandoned pass 3 with a checkpoint inside it",
			before, after)
	}
	verifyRecords(t, db, keep, 0)
}

// twoAbandonedPasses crashes pass 3, lets ordinary inserts reuse every
// page id the restart freed, and crashes a second pass 3.
func twoAbandonedPasses(t *testing.T, opts Options) {
	db, keep := sparseDB(t, opts)
	defer db.Close()
	crashPass3(t, db, 9, nil)
	extra := 0
	for db.pager.FreeMapStats().Free > 0 {
		i := pass3Records + extra
		if err := db.Insert(workload.Key(i), workload.Value(i, pass3ValueSize)); err != nil {
			t.Fatal(err)
		}
		extra++
	}
	crashPass3(t, db, 9, nil)
	verifyRecords(t, db, keep, extra)
}

func TestPass3TwoAbandonedPassesKeepRecords(t *testing.T) {
	twoAbandonedPasses(t, Options{})
}

func TestFileBackendPass3TwoAbandonedPasses(t *testing.T) {
	twoAbandonedPasses(t, Options{Dir: t.TempDir()})
}

// A pass 3 that dies after an earlier one completed is still reported
// as abandoned: the earlier pass's SwitchRoot record, which restart
// replays too and which names today's root, is not this pass's.
func TestPass3AbandonedAfterCompletedPass(t *testing.T) {
	db, keep := sparseDB(t, Options{})
	defer db.Close()
	if _, err := db.Reorganize(ReorgConfig{TargetFill: 0.9, InternalPass: true}); err != nil {
		t.Fatal(err)
	}
	before := db.pager.FreeMapStats().Allocated
	crashPass3(t, db, 3, nil)
	if after := db.pager.FreeMapStats().Allocated; after != before {
		t.Errorf("allocated pages %d -> %d across the abandoned pass", before, after)
	}
	verifyRecords(t, db, keep, 0)
}

// TestPass3FailedSwitchForceKeepsRecords: a pass 3 whose SwitchRoot
// record is appended but whose force fails has passed its commit point.
// The next commit makes the record durable and restart completes the
// switch to the new tree, so the failed pass must keep base pages frozen
// until then: an insert that would change a base page is refused with
// ErrSwitched instead of landing in the old tree alone, and every
// committed record survives the restart.
func TestPass3FailedSwitchForceKeepsRecords(t *testing.T) {
	in := fault.New(1)
	db, keep := sparseDB(t, Options{FaultInjector: in})
	defer db.Close()
	_, err := db.Reorganize(ReorgConfig{TargetFill: 0.9, InternalPass: true,
		OnEvent: func(stage string) error {
			if stage == "pass3.switch.pre" {
				in.Arm(fault.WALForce, fault.Schedule{Kind: fault.KindError,
					OnHit: in.HitCounts()[fault.WALForce] + 1, MaxFires: 100})
			}
			return nil
		}})
	in.Disarm()
	if err == nil {
		t.Fatal("pass 3 switched although its SwitchRoot force failed")
	}

	var committed []int
	refused := 0
	for i := pass3Records; i < pass3Records+400; i++ {
		tx := db.Begin()
		err := tx.Insert(workload.Key(i), workload.Value(i, pass3ValueSize))
		if err == nil {
			err = tx.Commit()
		}
		switch {
		case err == nil:
			committed = append(committed, i)
		case errors.Is(err, ErrSwitched):
			refused++
			if err := tx.Abort(); err != nil {
				t.Fatal(err)
			}
		default:
			t.Fatalf("insert %d: %v", i, err)
		}
	}
	if refused == 0 || len(committed) == 0 {
		t.Fatalf("%d inserts committed, %d refused: want both", len(committed), refused)
	}

	db.Crash()
	info, err := db.Restart()
	if err != nil {
		t.Fatalf("restart: %v", err)
	}
	if !info.Pass3Completed {
		t.Fatal("restart did not complete the durable switch")
	}
	if err := db.Check(); err != nil {
		t.Fatalf("check after restart: %v", err)
	}
	want := len(committed)
	for i := 0; i < pass3Records; i++ {
		if keep(i) {
			want++
		}
	}
	for _, i := range committed {
		if _, err := db.Get(workload.Key(i)); err != nil {
			t.Errorf("committed record %d lost: %v", i, err)
		}
	}
	if n, err := db.Count(nil, nil); err != nil || n != want {
		t.Fatalf("tree holds %d records (err %v), want %d", n, err, want)
	}
}
