package baseline

import (
	"errors"
	"fmt"
	"testing"

	"repro/internal/btree"
	"repro/internal/lock"
	"repro/internal/recovery"
	"repro/internal/storage"
	"repro/internal/txn"
	"repro/internal/wal"
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

// TestBaselineCrashRollsBack: an interrupted block operation is undone
// at restart (the work is lost — the contrast with forward recovery).
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
	e.log.Crash()
	e.assemble()
	tree, res, err := recovery.Restart(e.pager, e.log, e.locks, e.txns)
	if err != nil {
		t.Fatal(err)
	}
	if !res.BaselineRolledBack {
		t.Error("interrupted baseline op was not rolled back")
	}
	if res.UnitCompleted {
		t.Error("baseline op misidentified as a reorganization unit")
	}
	verify(t, tree, present, 1200)
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
