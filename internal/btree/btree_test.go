package btree

import (
	"errors"
	"fmt"
	"math/rand"
	"sort"
	"sync"
	"testing"
	"time"

	"repro/internal/kv"
	"repro/internal/lock"
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
	tree  *Tree
}

func newEnv(t testing.TB, pageSize int) *env {
	t.Helper()
	e := &env{}
	e.log = wal.NewLog()
	e.disk = storage.NewDisk(pageSize)
	e.pager = storage.NewPager(e.disk, 0, e.log)
	e.locks = lock.NewManager()
	e.txns = txn.NewManager(e.log, e.locks, e.pager)
	tree, err := Create(e.pager, e.log, e.locks, e.txns)
	if err != nil {
		t.Fatal(err)
	}
	e.tree = tree
	return e
}

func key(i int) []byte { return []byte(fmt.Sprintf("key%06d", i)) }
func val(i int) []byte { return []byte(fmt.Sprintf("value-%06d", i)) }

// put inserts in its own committed transaction.
func (e *env) put(t testing.TB, i int) {
	t.Helper()
	tx := e.txns.Begin()
	if err := e.tree.Insert(tx, key(i), val(i)); err != nil {
		t.Fatalf("insert %d: %v", i, err)
	}
	if err := e.tree.Commit(tx); err != nil {
		t.Fatal(err)
	}
}

func (e *env) del(t testing.TB, i int) {
	t.Helper()
	tx := e.txns.Begin()
	if err := e.tree.Delete(tx, key(i)); err != nil {
		t.Fatalf("delete %d: %v", i, err)
	}
	if err := e.tree.Commit(tx); err != nil {
		t.Fatal(err)
	}
}

func (e *env) get(t testing.TB, i int) ([]byte, bool) {
	t.Helper()
	tx := e.txns.Begin()
	v, ok, err := e.tree.Get(tx, key(i))
	if err != nil {
		t.Fatalf("get %d: %v", i, err)
	}
	if err := e.tree.Commit(tx); err != nil {
		t.Fatal(err)
	}
	return v, ok
}

func TestCreateAndOpen(t *testing.T) {
	e := newEnv(t, 512)
	h, err := e.tree.Height()
	if err != nil {
		t.Fatal(err)
	}
	if h != 2 {
		t.Errorf("new tree height = %d, want 2", h)
	}
	if err := e.tree.Check(); err != nil {
		t.Fatal(err)
	}
	// Reopen from the anchor.
	t2, err := Open(e.pager, e.log, e.locks, e.txns)
	if err != nil {
		t.Fatal(err)
	}
	r1, e1 := e.tree.Root()
	r2, e2 := t2.Root()
	if r1 != r2 || e1 != e2 {
		t.Errorf("reopened root/epoch %d/%d != %d/%d", r2, e2, r1, e1)
	}
}

func TestInsertGetSingle(t *testing.T) {
	e := newEnv(t, 512)
	e.put(t, 1)
	v, ok := e.get(t, 1)
	if !ok || string(v) != string(val(1)) {
		t.Fatalf("get = %q, %v", v, ok)
	}
	if _, ok := e.get(t, 2); ok {
		t.Error("found missing key")
	}
}

func TestInsertDuplicateFails(t *testing.T) {
	e := newEnv(t, 512)
	e.put(t, 1)
	tx := e.txns.Begin()
	err := e.tree.Insert(tx, key(1), val(1))
	if err == nil || !errors.Is(err, kv.ErrExists) {
		t.Fatalf("duplicate insert err = %v", err)
	}
	if err := e.tree.Abort(tx); err != nil {
		t.Fatal(err)
	}
}

func TestValidateRecord(t *testing.T) {
	e := newEnv(t, 512)
	tx := e.txns.Begin()
	if err := e.tree.Insert(tx, nil, []byte("v")); err == nil {
		t.Error("empty key accepted")
	}
	if err := e.tree.Insert(tx, make([]byte, 100), []byte("v")); err == nil {
		t.Error("oversized key accepted")
	}
	if err := e.tree.Insert(tx, []byte("k"), make([]byte, 4096)); err == nil {
		t.Error("oversized value accepted")
	}
	_ = e.tree.Abort(tx)
}

func TestManyInsertsSplitAndCheck(t *testing.T) {
	e := newEnv(t, 512) // small pages force splits and height growth
	const n = 2000
	perm := rand.New(rand.NewSource(1)).Perm(n)
	for _, i := range perm {
		e.put(t, i)
	}
	if err := e.tree.Check(); err != nil {
		t.Fatal(err)
	}
	h, _ := e.tree.Height()
	if h < 3 {
		t.Errorf("height = %d after %d inserts on 512B pages, expected >= 3", h, n)
	}
	for i := 0; i < n; i++ {
		v, ok := e.get(t, i)
		if !ok || string(v) != string(val(i)) {
			t.Fatalf("get %d = %q, %v", i, v, ok)
		}
	}
	// Key order via CollectAll.
	keys, _, err := e.tree.CollectAll()
	if err != nil {
		t.Fatal(err)
	}
	if len(keys) != n {
		t.Fatalf("collected %d records, want %d", len(keys), n)
	}
	if !sort.SliceIsSorted(keys, func(i, j int) bool {
		return kv.Compare(keys[i], keys[j]) < 0
	}) {
		t.Error("records not in key order")
	}
}

func TestUpdateReplacesValue(t *testing.T) {
	e := newEnv(t, 512)
	e.put(t, 7)
	tx := e.txns.Begin()
	if err := e.tree.Update(tx, key(7), []byte("new-value")); err != nil {
		t.Fatal(err)
	}
	if err := e.tree.Commit(tx); err != nil {
		t.Fatal(err)
	}
	v, ok := e.get(t, 7)
	if !ok || string(v) != "new-value" {
		t.Fatalf("after update: %q, %v", v, ok)
	}
	// Updating a missing key fails.
	tx2 := e.txns.Begin()
	if err := e.tree.Update(tx2, key(99), []byte("x")); err == nil {
		t.Error("update of missing key succeeded")
	}
	_ = e.tree.Abort(tx2)
}

// TestCommitSkipsDeferredLock: only a delete that empties its leaf
// defers a free to commit, so the commit of a transaction that deferred
// nothing must not take the tree-wide deferredMu — with it held
// elsewhere, such a commit still finishes — while one that did defer
// still runs its free.
func TestCommitSkipsDeferredLock(t *testing.T) {
	e := newEnv(t, 512)
	e.put(t, 1)
	e.tree.deferredMu.Lock()
	done := make(chan error, 1)
	go func() {
		tx := e.txns.Begin()
		if _, _, err := e.tree.Get(tx, key(1)); err != nil {
			done <- err
			return
		}
		if err := e.tree.Update(tx, key(1), val(2)); err != nil {
			done <- err
			return
		}
		done <- e.tree.Commit(tx)
	}()
	select {
	case err := <-done:
		e.tree.deferredMu.Unlock()
		if err != nil {
			t.Fatal(err)
		}
	case <-time.After(10 * time.Second):
		e.tree.deferredMu.Unlock()
		t.Fatal("a commit that deferred nothing waited on deferredMu")
	}

	// The emptying delete still frees its leaf at commit.
	before, err := e.tree.GatherStats()
	if err != nil {
		t.Fatal(err)
	}
	tx := e.txns.Begin()
	if err := e.tree.Delete(tx, key(1)); err != nil {
		t.Fatal(err)
	}
	if !tx.Deferred() {
		t.Fatal("a delete that emptied its leaf deferred nothing")
	}
	if err := e.tree.Commit(tx); err != nil {
		t.Fatal(err)
	}
	if len(e.tree.deferredKeys) != 0 {
		t.Errorf("deferred frees left behind: %v", e.tree.deferredKeys)
	}
	after, err := e.tree.GatherStats()
	if err != nil {
		t.Fatal(err)
	}
	if after.Records != 0 || before.Records != 1 {
		t.Errorf("records %d -> %d, want 1 -> 0", before.Records, after.Records)
	}
}

func TestDeleteAndFreeAtEmpty(t *testing.T) {
	e := newEnv(t, 512)
	const n = 500
	for i := 0; i < n; i++ {
		e.put(t, i)
	}
	before, err := e.tree.GatherStats()
	if err != nil {
		t.Fatal(err)
	}
	// Delete everything except every 50th record: many leaves empty out
	// and must be deallocated at commit (free-at-empty).
	for i := 0; i < n; i++ {
		if i%50 == 0 {
			continue
		}
		e.del(t, i)
	}
	if err := e.tree.Check(); err != nil {
		t.Fatal(err)
	}
	after, err := e.tree.GatherStats()
	if err != nil {
		t.Fatal(err)
	}
	if after.LeafPages >= before.LeafPages {
		t.Errorf("free-at-empty did not shrink leaves: %d -> %d",
			before.LeafPages, after.LeafPages)
	}
	if after.Records != n/50 {
		t.Errorf("records = %d, want %d", after.Records, n/50)
	}
	for i := 0; i < n; i++ {
		_, ok := e.get(t, i)
		if want := i%50 == 0; ok != want {
			t.Fatalf("key %d present=%v want %v", i, ok, want)
		}
	}
}

func TestDeleteEverythingKeepsTreeUsable(t *testing.T) {
	e := newEnv(t, 512)
	for i := 0; i < 200; i++ {
		e.put(t, i)
	}
	for i := 0; i < 200; i++ {
		e.del(t, i)
	}
	if err := e.tree.Check(); err != nil {
		t.Fatal(err)
	}
	s, _ := e.tree.GatherStats()
	if s.Records != 0 {
		t.Errorf("records = %d, want 0", s.Records)
	}
	if s.LeafPages < 1 {
		t.Error("tree lost its last leaf")
	}
	// Still usable.
	e.put(t, 42)
	if _, ok := e.get(t, 42); !ok {
		t.Error("insert after total deletion failed")
	}
}

func TestAbortRollsBackInserts(t *testing.T) {
	e := newEnv(t, 512)
	e.put(t, 1)
	tx := e.txns.Begin()
	for i := 10; i < 20; i++ {
		if err := e.tree.Insert(tx, key(i), val(i)); err != nil {
			t.Fatal(err)
		}
	}
	if err := e.tree.Abort(tx); err != nil {
		t.Fatal(err)
	}
	for i := 10; i < 20; i++ {
		if _, ok := e.get(t, i); ok {
			t.Fatalf("aborted insert %d visible", i)
		}
	}
	if _, ok := e.get(t, 1); !ok {
		t.Error("committed record lost by abort")
	}
	if err := e.tree.Check(); err != nil {
		t.Fatal(err)
	}
}

func TestAbortAfterDeleteRestoresRecordAndSkipsFree(t *testing.T) {
	e := newEnv(t, 512)
	for i := 0; i < 30; i++ {
		e.put(t, i)
	}
	tx := e.txns.Begin()
	for i := 0; i < 30; i++ {
		if err := e.tree.Delete(tx, key(i)); err != nil {
			t.Fatal(err)
		}
	}
	if err := e.tree.Abort(tx); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 30; i++ {
		if _, ok := e.get(t, i); !ok {
			t.Fatalf("record %d lost after aborted delete", i)
		}
	}
	if err := e.tree.Check(); err != nil {
		t.Fatal(err)
	}
}

func TestScanRange(t *testing.T) {
	e := newEnv(t, 512)
	for i := 0; i < 300; i++ {
		e.put(t, i)
	}
	tx := e.txns.Begin()
	var got []string
	err := e.tree.Scan(tx, key(100), key(199), func(k, v []byte) bool {
		got = append(got, string(k))
		return true
	})
	if err != nil {
		t.Fatal(err)
	}
	if err := e.tree.Commit(tx); err != nil {
		t.Fatal(err)
	}
	if len(got) != 100 {
		t.Fatalf("scan returned %d records, want 100", len(got))
	}
	for i, k := range got {
		if k != string(key(100+i)) {
			t.Fatalf("scan[%d] = %q, want %q", i, k, key(100+i))
		}
	}
}

func TestScanEarlyStopAndUnbounded(t *testing.T) {
	e := newEnv(t, 512)
	for i := 0; i < 100; i++ {
		e.put(t, i)
	}
	tx := e.txns.Begin()
	n := 0
	if err := e.tree.Scan(tx, key(0), nil, func(k, v []byte) bool {
		n++
		return n < 10
	}); err != nil {
		t.Fatal(err)
	}
	if n != 10 {
		t.Errorf("early stop after %d records, want 10", n)
	}
	total, err := e.tree.Count(tx, []byte(" "), nil)
	if err != nil {
		t.Fatal(err)
	}
	if total != 100 {
		t.Errorf("unbounded count = %d, want 100", total)
	}
	_ = e.tree.Commit(tx)
}

func TestScanEmptyRange(t *testing.T) {
	e := newEnv(t, 512)
	for i := 0; i < 10; i++ {
		e.put(t, i)
	}
	tx := e.txns.Begin()
	n, err := e.tree.Count(tx, []byte("zzz"), []byte("zzzz"))
	if err != nil {
		t.Fatal(err)
	}
	if n != 0 {
		t.Errorf("count = %d, want 0", n)
	}
	_ = e.tree.Commit(tx)
}

// TestConcurrentMixedWorkload hammers the tree from many goroutines and
// then verifies invariants and record-level consistency.
func TestConcurrentMixedWorkload(t *testing.T) {
	e := newEnv(t, 1024)
	const (
		writers = 8
		perW    = 150
	)
	var wg sync.WaitGroup
	errCh := make(chan error, writers)
	for w := 0; w < writers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(int64(w)))
			for i := 0; i < perW; i++ {
				id := w*perW + i
				tx := e.txns.Begin()
				var err error
				switch rng.Intn(10) {
				case 0, 1, 2, 3, 4, 5:
					err = e.tree.Insert(tx, key(id), val(id))
				case 6, 7:
					_, _, err = e.tree.Get(tx, key(rng.Intn(writers*perW)))
				case 8:
					err = e.tree.Delete(tx, key(rng.Intn(id+1)))
					if err != nil && errors.Is(err, kv.ErrNotFound) {
						err = nil
					}
				case 9:
					err = e.tree.Scan(tx, key(rng.Intn(writers*perW)), nil,
						func(_, _ []byte) bool { return rng.Intn(20) != 0 })
				}
				if err != nil && !errors.Is(err, kv.ErrExists) &&
					!errors.Is(err, lock.ErrDeadlock) {
					errCh <- fmt.Errorf("worker %d op %d: %w", w, i, err)
					_ = e.tree.Abort(tx)
					return
				}
				if err != nil {
					_ = e.tree.Abort(tx)
				} else if cerr := e.tree.Commit(tx); cerr != nil {
					errCh <- cerr
					return
				}
			}
		}(w)
	}
	wg.Wait()
	close(errCh)
	for err := range errCh {
		t.Fatal(err)
	}
	if err := e.tree.Check(); err != nil {
		t.Fatal(err)
	}
}

func TestStatsReflectSparseness(t *testing.T) {
	e := newEnv(t, 512)
	const n = 1000
	for i := 0; i < n; i++ {
		e.put(t, i)
	}
	full, err := e.tree.GatherStats()
	if err != nil {
		t.Fatal(err)
	}
	// Delete 3 of every 4 records without emptying pages completely.
	for i := 0; i < n; i++ {
		if i%4 != 0 {
			e.del(t, i)
		}
	}
	sparse, err := e.tree.GatherStats()
	if err != nil {
		t.Fatal(err)
	}
	if sparse.AvgLeafFill >= full.AvgLeafFill {
		t.Errorf("fill should drop: %.2f -> %.2f", full.AvgLeafFill, sparse.AvgLeafFill)
	}
	if sparse.Records != n/4 {
		t.Errorf("records = %d, want %d", sparse.Records, n/4)
	}
}

// TestGetNextBaseIteration walks the bases left to right with the base
// cursor (the paper's Get_Next) and checks that it hands every base
// entry once, in key order, and that its frontier only grows.
func TestGetNextBaseIteration(t *testing.T) {
	e := newEnv(t, 512)
	for i := 0; i < 800; i++ {
		e.put(t, i)
	}
	h := e.tree.NewHold(e.txns.NextOwnerID())
	defer h.Release()
	c := e.tree.NewCursor(0, nil)
	seen := map[storage.PageID]bool{}
	var got []BaseEntry
	for {
		from := c.F
		base, entries, err := c.Next(&h, lock.S)
		if err != nil {
			t.Fatal(err)
		}
		if base == nil {
			break
		}
		if seen[base.ID()] {
			t.Fatalf("base %d visited twice", base.ID())
		}
		seen[base.ID()] = true
		if !c.Done && from != nil && kv.Compare(c.F, from) <= 0 {
			t.Fatalf("frontier went from %q to %q", from, c.F)
		}
		got = append(got, entries...)
		h.Drop(base)
	}
	want := treeBaseEntries(t, e)
	if len(got) != len(want) {
		t.Fatalf("cursor handed %d entries, tree has %d", len(got), len(want))
	}
	for i := range want {
		if kv.Compare(got[i].Key, want[i].Key) != 0 || got[i].Leaf != want[i].Leaf {
			t.Fatalf("entry %d: handed (%q, %d), tree has (%q, %d)",
				i, got[i].Key, got[i].Leaf, want[i].Key, want[i].Leaf)
		}
	}
	if len(seen) < 2 {
		t.Fatalf("tree has %d bases, want several", len(seen))
	}
}

func TestHeightGrowthKeepsRootID(t *testing.T) {
	e := newEnv(t, 512)
	r0, _ := e.tree.Root()
	for i := 0; i < 3000; i++ {
		e.put(t, i)
	}
	r1, _ := e.tree.Root()
	if r0 != r1 {
		t.Errorf("root moved %d -> %d; splits must keep the root id", r0, r1)
	}
	h, _ := e.tree.Height()
	if h < 4 {
		t.Errorf("height = %d, want >= 4", h)
	}
	if err := e.tree.Check(); err != nil {
		t.Fatal(err)
	}
}
