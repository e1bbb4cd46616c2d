package baseline

import (
	"errors"
	"fmt"
	"testing"
	"time"

	"repro"
	"repro/internal/btree"
	"repro/internal/check"
	"repro/internal/fault"
	"repro/internal/lock"
	"repro/internal/recovery"
	"repro/internal/storage"
	"repro/internal/txn"
	"repro/internal/wal"
	"repro/internal/workload"
)

type env struct {
	disk  *storage.MemDisk
	pager *storage.Pager
	log   *wal.Log
	locks *lock.Manager
	txns  *txn.Manager
	tree  *btree.Tree
}

func newEnv(t testing.TB, pageSize int) *env {
	t.Helper()
	e := &env{log: wal.NewLog(), disk: storage.NewDisk(pageSize)}
	e.assemble()
	tree, err := btree.Create(e.pager, e.log, e.locks, e.txns)
	if err != nil {
		t.Fatal(err)
	}
	e.tree = tree
	return e
}

// assemble builds a fresh pager, lock manager and transaction manager
// over the env's disk and log.
func (e *env) assemble() {
	e.pager = storage.NewPager(e.disk, 0, e.log)
	e.locks = lock.NewManager()
	e.txns = txn.NewManager(e.log, e.locks, e.pager)
}

func key(i int) []byte { return []byte(fmt.Sprintf("key%06d", i)) }
func val(i int) []byte { return []byte(fmt.Sprintf("value-%06d", i)) }

func load(t testing.TB, e *env, n, keepEvery int) func(int) bool {
	t.Helper()
	for i := 0; i < n; i++ {
		tx := e.txns.Begin()
		if err := e.tree.Insert(tx, key(i), val(i)); err != nil {
			t.Fatal(err)
		}
		if err := e.tree.Commit(tx); err != nil {
			t.Fatal(err)
		}
	}
	for i := 0; i < n; i++ {
		if i%keepEvery == 0 || i%(keepEvery*7) == 1 {
			continue
		}
		tx := e.txns.Begin()
		if err := e.tree.Delete(tx, key(i)); err != nil {
			t.Fatal(err)
		}
		if err := e.tree.Commit(tx); err != nil {
			t.Fatal(err)
		}
	}
	return func(i int) bool {
		return i < n && (i%keepEvery == 0 || i%(keepEvery*7) == 1)
	}
}

func verify(t testing.TB, tree *btree.Tree, present func(int) bool, n int) {
	t.Helper()
	if err := tree.Check(); err != nil {
		t.Fatal(err)
	}
	keys, _, err := tree.CollectAll()
	if err != nil {
		t.Fatal(err)
	}
	got := map[string]bool{}
	for _, k := range keys {
		got[string(k)] = true
	}
	count := 0
	for i := 0; i < n; i++ {
		if present(i) {
			count++
			if !got[string(key(i))] {
				t.Fatalf("record %d missing", i)
			}
		}
	}
	if len(got) != count {
		t.Fatalf("tree has %d records, want %d", len(got), count)
	}
}

func TestBaselineMergeCompacts(t *testing.T) {
	e := newEnv(t, 1024)
	present := load(t, e, 1500, 4)
	before, _ := e.tree.GatherStats()
	b := New(e.tree, Config{TargetFill: 0.9})
	if err := b.Run(); err != nil {
		t.Fatal(err)
	}
	after, _ := e.tree.GatherStats()
	if after.LeafPages >= before.LeafPages {
		t.Errorf("baseline merge did not shrink leaves: %d -> %d",
			before.LeafPages, after.LeafPages)
	}
	verify(t, e.tree, present, 1500)
	if b.Metrics().Get("baseline.block.ops") == 0 {
		t.Error("no block ops ran")
	}
}

func TestBaselineSwapOrdersLeaves(t *testing.T) {
	e := newEnv(t, 1024)
	present := load(t, e, 1500, 4)
	b := New(e.tree, Config{TargetFill: 0.9, SwapPass: true})
	if err := b.Run(); err != nil {
		t.Fatal(err)
	}
	stats, _ := e.tree.GatherStats()
	if stats.OutOfOrderPairs != 0 {
		t.Errorf("leaves out of order after baseline swap pass: %d", stats.OutOfOrderPairs)
	}
	verify(t, e.tree, present, 1500)
}

// TestBaselineCrashRollsBack: an operation interrupted before its
// after-image record is durable is lost at restart (the work is gone —
// the contrast with forward recovery): the tree has the leaves it had
// at the crash.
func TestBaselineCrashRollsBack(t *testing.T) {
	e := newEnv(t, 1024)
	present := load(t, e, 1200, 4)
	injected := errors.New("crash")
	hits := 0
	b := New(e.tree, Config{TargetFill: 0.9, OnEvent: func(s string) error {
		if s == "op.mutated" {
			hits++
			if hits == 3 {
				_ = e.log.Flush()
				return injected
			}
		}
		return nil
	}})
	if err := b.Run(); !errors.Is(err, injected) {
		t.Fatalf("expected crash, got %v", err)
	}
	pre, err := e.tree.GatherStats()
	if err != nil {
		t.Fatal(err)
	}
	e.log.Crash()
	e.assemble()
	tree, res, err := recovery.Restart(e.pager, e.log, e.locks, e.txns)
	if err != nil {
		t.Fatal(err)
	}
	if res.UnitCompleted {
		t.Error("baseline op misidentified as a reorganization unit")
	}
	post, err := tree.GatherStats()
	if err != nil {
		t.Fatal(err)
	}
	if post.LeafPages != pre.LeafPages {
		t.Errorf("restart has %d leaves, the crash left %d: the interrupted op was not lost",
			post.LeafPages, pre.LeafPages)
	}
	verify(t, tree, present, 1200)
}

const (
	sparseRecords = 2500
	sparseValue   = 32
)

// openSparse opens a database with 1 KiB pages holding every fourth of
// sparseRecords keys.
func openSparse(t *testing.T, inj *fault.Injector) (*repro.DB, func(int) bool) {
	t.Helper()
	db, err := repro.Open(repro.Options{PageSize: 1024, FaultInjector: inj})
	if err != nil {
		t.Fatal(err)
	}
	if err := workload.Load(db, sparseRecords, sparseValue, "random", 7); err != nil {
		t.Fatal(err)
	}
	keep, err := workload.Sparsify(db, sparseRecords, 0.25)
	if err != nil {
		t.Fatal(err)
	}
	return db, keep
}

// crashRestart crashes db and restarts it, then checks the structure
// and that every kept key is there. It returns the leaf count before
// the crash and after the restart.
func crashRestart(t *testing.T, db *repro.DB, keep func(int) bool) (pre, post int) {
	t.Helper()
	before, err := db.GatherStats()
	if err != nil {
		t.Fatal(err)
	}
	db.Crash()
	if _, err := db.Restart(); err != nil {
		t.Fatalf("Restart: %v", err)
	}
	if err := check.Tree(db).Err(); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < sparseRecords; i++ {
		if keep(i) {
			if _, err := db.Get(workload.Key(i)); err != nil {
				t.Fatalf("kept key %d: %v", i, err)
			}
		}
	}
	after, err := db.GatherStats()
	if err != nil {
		t.Fatal(err)
	}
	return before.LeafPages, after.LeafPages
}

// TestCheckpointInsideBaselineOp takes a checkpoint inside a block
// operation, then crashes in the third operation, in three legs:
//   - "op.begin" and "op.mutated" checkpoint at that stage of the third
//     operation and crash at its op.mutated;
//   - "smo" starts the checkpoint inside the second operation's LogSMO
//     window (from the SMO hook, in another goroutine, so it must wait
//     for the apply) and crashes at the third operation's first log
//     append, before anything of it is logged.
//
// The interrupted operation is lost, the structure is clean and every
// kept key is there. When restart rolled a block operation back from
// its begin record, a checkpoint inside it moved the redo point past
// that record: the "op.mutated" leg then left the emptied page
// allocated and unreachable.
func TestCheckpointInsideBaselineOp(t *testing.T) {
	injected := errors.New("crash")
	for _, leg := range []string{"op.begin", "op.mutated", "smo"} {
		t.Run(leg, func(t *testing.T) {
			inj := fault.New(1)
			db, keep := openSparse(t, inj)
			defer db.Close()
			ops := 0
			var ckptDone chan error
			if leg == "smo" {
				db.Tree().SetSMOHook(func() {
					if ops != 2 {
						return
					}
					ckptDone = make(chan error, 1)
					go func() { ckptDone <- db.Checkpoint() }()
					select {
					case err := <-ckptDone: // the checkpoint ran inside the window
						ckptDone <- err
					case <-time.After(50 * time.Millisecond): // it waits for the apply
					}
				})
			}
			b := New(db.Tree(), Config{TargetFill: 0.9, OnEvent: func(s string) error {
				if s == "op.begin" {
					ops++
				}
				switch {
				case ops == 2 && s == "op.end" && ckptDone != nil:
					if err := <-ckptDone; err != nil {
						t.Errorf("Checkpoint: %v", err)
					}
					inj.Arm(fault.WALAppend, fault.Schedule{Kind: fault.KindCrash,
						OnHit: inj.HitCounts()[fault.WALAppend] + 1})
				case ops == 3 && s == leg:
					if err := db.Checkpoint(); err != nil {
						t.Errorf("Checkpoint: %v", err)
					}
				}
				if ops == 3 && s == "op.mutated" {
					return injected
				}
				return nil
			}})
			crash, err := fault.Catch(b.Run)
			if crash == nil && !errors.Is(err, injected) {
				t.Fatalf("expected crash, got %v", err)
			}
			if leg == "smo" && (ckptDone == nil || crash == nil || ops != 2) {
				t.Fatalf("checkpoint started %v, crash %v after %d ops; want a checkpoint in op 2 and a crash at op 3's first append",
					ckptDone != nil, crash, ops)
			}
			inj.Disarm()
			if pre, post := crashRestart(t, db, keep); post != pre {
				t.Errorf("restart has %d leaves, the crash left %d: the interrupted op survived",
					post, pre)
			}
		})
	}
}

// TestBaselineCrashAfterCommitRedoes crashes at op.end: the third
// operation's after-image record is forced but its merged pages are
// only in the buffer pool. Restart redoes it: the merge is there, the
// emptied page is free, and the structure is clean.
func TestBaselineCrashAfterCommitRedoes(t *testing.T) {
	db, keep := openSparse(t, nil)
	defer db.Close()
	log := db.Tree().Log()
	injected := errors.New("crash")
	ops := 0
	var from wal.LSN
	b := New(db.Tree(), Config{TargetFill: 0.9, OnEvent: func(s string) error {
		switch {
		case s == "op.begin":
			ops++
			from = log.Tail()
		case s == "op.end" && ops == 3:
			return injected
		}
		return nil
	}})
	if err := b.Run(); !errors.Is(err, injected) {
		t.Fatalf("expected crash, got %v", err)
	}
	var after wal.PageImages
	var afterLSN wal.LSN
	if err := log.Iterate(from, func(lsn wal.LSN, rec wal.Record) error {
		if r, ok := rec.(wal.PageImages); ok && len(r.Dealloc) > 0 {
			after, afterLSN = r, lsn
		}
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	if len(after.Dealloc) != 1 {
		t.Fatalf("no after-image record freeing a page since LSN %d", from)
	}
	if afterLSN > log.DurableLSN() {
		t.Fatalf("after-image record %d is not durable (durable %d)", afterLSN, log.DurableLSN())
	}
	merged := after.Pages[0]
	buf := make([]byte, 1024)
	if err := db.Tree().Pager().Disk().Read(merged, buf); err != nil {
		t.Fatal(err)
	}
	if lsn := storage.Page(buf).LSN(); lsn >= afterLSN {
		t.Fatalf("merged page %d reached disk (LSN %d) before the crash", merged, lsn)
	}

	pre, post := crashRestart(t, db, keep)
	if post != pre {
		t.Errorf("restart has %d leaves, the crash left %d: the committed merge was lost",
			post, pre)
	}
	if db.Tree().Pager().FreeMap().IsAllocated(after.Dealloc[0]) {
		t.Errorf("emptied page %d is still allocated", after.Dealloc[0])
	}
}

// TestBaselineBlocksUsersDuringOp: a reader blocks while a block
// operation holds the whole-tree X lock (the paper's §8 concurrency
// contrast).
func TestBaselineBlocksUsersDuringOp(t *testing.T) {
	e := newEnv(t, 1024)
	present := load(t, e, 800, 4)
	blocked := make(chan error, 1)
	checked := false
	b := New(e.tree, Config{TargetFill: 0.9, OnEvent: func(s string) error {
		if s == "op.begin" && !checked {
			checked = true
			// While the op holds the file lock, a reader must block.
			done := make(chan error, 1)
			go func() {
				tx := e.txns.Begin()
				_, _, err := e.tree.Get(tx, key(0))
				done <- err
				_ = e.tree.Commit(tx)
			}()
			select {
			case err := <-done:
				blocked <- fmt.Errorf("reader proceeded during block op: %v", err)
			default:
				blocked <- nil
			}
			// Let the reader finish after the op.
			go func() { <-done }()
		}
		return nil
	}})
	if err := b.Run(); err != nil {
		t.Fatal(err)
	}
	select {
	case err := <-blocked:
		if err != nil {
			t.Error(err)
		}
	default:
		t.Skip("no block op ran")
	}
	verify(t, e.tree, present, 800)
}
