package txn

import (
	"testing"

	"repro/internal/kv"
	"repro/internal/lock"
	"repro/internal/pageops"
	"repro/internal/storage"
	"repro/internal/wal"
)

func newEnv(t *testing.T) (*Manager, *storage.Pager, *wal.Log) {
	t.Helper()
	log := wal.NewLog()
	disk := storage.NewDisk(storage.MinPageSize * 4)
	pager := storage.NewPager(disk, 0, log)
	locks := lock.NewManager()
	return NewManager(log, locks, pager), pager, log
}

// doInsert logs and applies one record insert in t's chain.
func doInsert(t *testing.T, tx *Txn, pg *storage.Pager, page storage.PageID, key, val string) {
	t.Helper()
	lsn := tx.LogUpdate(wal.Update{Page: page, Op: wal.OpInsert,
		Key: []byte(key), NewVal: []byte(val)})
	if err := pageops.Apply(pg, wal.Update{Page: page, Op: wal.OpInsert,
		Key: []byte(key), NewVal: []byte(val)}, lsn); err != nil {
		t.Fatal(err)
	}
}

func TestBeginCommitLifecycle(t *testing.T) {
	m, pg, log := newEnv(t)
	leaf, err := pg.Allocate(storage.PageLeaf)
	if err != nil {
		t.Fatal(err)
	}
	id := leaf.ID()
	pg.Unfix(leaf)
	tx := m.Begin()
	if tx.ID() == 0 {
		t.Fatal("txn id 0")
	}
	doInsert(t, tx, pg, id, "k", "v")
	if got := activeCount(m); got != 1 {
		t.Fatalf("active = %d", got)
	}
	if err := tx.Commit(); err != nil {
		t.Fatal(err)
	}
	if got := activeCount(m); got != 0 {
		t.Fatalf("active after commit = %d", got)
	}
	// Commit must be durable: crash and look for the record.
	log.Crash()
	var committed bool
	_ = log.Iterate(1, func(_ uint64, r wal.Record) error {
		if c, ok := r.(wal.TxnCommit); ok && c.Txn == tx.ID() {
			committed = true
		}
		return nil
	})
	if !committed {
		t.Error("commit record not durable after Commit returned")
	}
	if err := tx.Commit(); err == nil {
		t.Error("double commit should fail")
	}
}

func TestAbortUndoesUpdates(t *testing.T) {
	m, pg, _ := newEnv(t)
	leaf, err := pg.Allocate(storage.PageLeaf)
	if err != nil {
		t.Fatal(err)
	}
	id := leaf.ID()
	pg.Unfix(leaf)

	// Pre-existing committed record.
	pre := m.Begin()
	doInsert(t, pre, pg, id, "keep", "v0")
	if err := pre.Commit(); err != nil {
		t.Fatal(err)
	}

	tx := m.Begin()
	doInsert(t, tx, pg, id, "a", "1")
	doInsert(t, tx, pg, id, "b", "2")
	// Replace the committed record, then delete it.
	lsn := tx.LogUpdate(wal.Update{Page: id, Op: wal.OpReplace,
		Key: []byte("keep"), OldVal: []byte("v0"), NewVal: []byte("v1")})
	if err := pageops.Apply(pg, wal.Update{Page: id, Op: wal.OpReplace,
		Key: []byte("keep"), NewVal: []byte("v1")}, lsn); err != nil {
		t.Fatal(err)
	}
	lsn = tx.LogUpdate(wal.Update{Page: id, Op: wal.OpDelete,
		Key: []byte("keep"), OldVal: []byte("v1")})
	if err := pageops.Apply(pg, wal.Update{Page: id, Op: wal.OpDelete,
		Key: []byte("keep")}, lsn); err != nil {
		t.Fatal(err)
	}

	if err := tx.Abort(); err != nil {
		t.Fatal(err)
	}

	f, err := pg.Fix(id)
	if err != nil {
		t.Fatal(err)
	}
	defer pg.Unfix(f)
	f.RLock()
	defer f.RUnlock()
	if _, ok := kv.LeafGet(f.Data(), []byte("a")); ok {
		t.Error("aborted insert 'a' still present")
	}
	if _, ok := kv.LeafGet(f.Data(), []byte("b")); ok {
		t.Error("aborted insert 'b' still present")
	}
	v, ok := kv.LeafGet(f.Data(), []byte("keep"))
	if !ok || string(v) != "v0" {
		t.Errorf("committed record = %q,%v; want v0", v, ok)
	}
}

// TestReadOnlyCommitLogsNothing covers the lazy-begin fast path: a
// transaction that never logs an update must leave zero log records
// (no begin/commit pair), force nothing, stay out of checkpoints, and
// still release its locks at commit and abort.
func TestReadOnlyCommitLogsNothing(t *testing.T) {
	m, _, log := newEnv(t)
	res := lock.PageRes(3)

	tx := m.Begin()
	if err := tx.Lock(res, lock.S); err != nil {
		t.Fatal(err)
	}
	if got := activeCount(m); got != 0 {
		t.Fatalf("unlogged txn visible to checkpoint: active = %d", got)
	}
	if err := tx.Commit(); err != nil {
		t.Fatal(err)
	}
	if n := log.BytesAppended(); n != 0 {
		t.Errorf("read-only commit appended %d log bytes", n)
	}
	if n := log.ForcedWrites(); n != 0 {
		t.Errorf("read-only commit forced the log %d times", n)
	}

	tx2 := m.Begin()
	if err := tx2.Lock(res, lock.X); err != nil {
		t.Fatalf("lock not released by read-only commit: %v", err)
	}
	if err := tx2.Abort(); err != nil {
		t.Fatal(err)
	}
	if n := log.BytesAppended(); n != 0 {
		t.Errorf("read-only abort appended %d log bytes", n)
	}
	tx3 := m.Begin()
	if err := tx3.Lock(res, lock.X); err != nil {
		t.Fatalf("lock not released by read-only abort: %v", err)
	}
	if err := tx3.Commit(); err != nil {
		t.Fatal(err)
	}
}

func TestAbortReleasesLocks(t *testing.T) {
	m, _, _ := newEnv(t)
	tx := m.Begin()
	res := lock.PageRes(9)
	if err := tx.Lock(res, lock.X); err != nil {
		t.Fatal(err)
	}
	if err := tx.Abort(); err != nil {
		t.Fatal(err)
	}
	// Another transaction can lock immediately.
	tx2 := m.Begin()
	if err := tx2.Lock(res, lock.X); err != nil {
		t.Fatal(err)
	}
	if err := tx2.Commit(); err != nil {
		t.Fatal(err)
	}
}

func TestPrevLSNChain(t *testing.T) {
	m, pg, log := newEnv(t)
	leaf, _ := pg.Allocate(storage.PageLeaf)
	id := leaf.ID()
	pg.Unfix(leaf)
	tx := m.Begin()
	doInsert(t, tx, pg, id, "x", "1")
	doInsert(t, tx, pg, id, "y", "2")
	// Walk the chain from lastLSN: update(y) -> update(x), whose PrevLSN
	// 0 is the transaction's begin — there is no begin record.
	lsn := tx.LastLSN()
	var kinds []string
	for lsn != 0 {
		rec, _, err := log.Read(lsn)
		if err != nil {
			t.Fatal(err)
		}
		switch r := rec.(type) {
		case wal.Update:
			kinds = append(kinds, "update-"+string(r.Key))
			lsn = r.PrevLSN
		default:
			t.Fatalf("unexpected %T", rec)
		}
	}
	want := []string{"update-y", "update-x"}
	if len(kinds) != len(want) {
		t.Fatalf("chain = %v", kinds)
	}
	for i := range want {
		if kinds[i] != want[i] {
			t.Fatalf("chain = %v, want %v", kinds, want)
		}
	}
}

func TestResurrectAndNextID(t *testing.T) {
	m, _, _ := newEnv(t)
	tx := m.Resurrect(42, 7)
	if tx.ID() != 42 || tx.LastLSN() != 7 {
		t.Errorf("resurrected %d/%d", tx.ID(), tx.LastLSN())
	}
	fresh := m.Begin()
	if fresh.ID() <= 42 {
		t.Errorf("fresh id %d not beyond resurrected", fresh.ID())
	}
	m.SetNextID(100)
	if m.NextID() != 100 {
		t.Errorf("NextID = %d", m.NextID())
	}
	m.SetNextID(50) // must not go backward
	if m.NextID() != 100 {
		t.Errorf("NextID went backward: %d", m.NextID())
	}
}

func TestAbortIdempotentUndoAcrossCLRs(t *testing.T) {
	// Undo must skip already-compensated work via CLR.UndoNext: simulate
	// by calling UndoFrom mid-chain then finishing.
	m, pg, _ := newEnv(t)
	leaf, _ := pg.Allocate(storage.PageLeaf)
	id := leaf.ID()
	pg.Unfix(leaf)
	tx := m.Begin()
	doInsert(t, tx, pg, id, "a", "1")
	doInsert(t, tx, pg, id, "b", "2")
	if err := tx.UndoFrom(tx.LastLSN()); err != nil {
		t.Fatal(err)
	}
	f, _ := pg.Fix(id)
	f.RLock()
	n := f.Data().NumSlots()
	f.RUnlock()
	pg.Unfix(f)
	if n != 0 {
		t.Fatalf("%d records left after undo", n)
	}
}

// activeCount is how many transactions a checkpoint would list.
func activeCount(m *Manager) int {
	active, _ := m.ActiveSnapshot()
	return len(active)
}
