package repro

import (
	"errors"
	"fmt"
	"sync"
	"testing"

	"repro/internal/kv"
	"repro/internal/storage"
	"repro/internal/workload"
)

func TestOpenInsertGetDelete(t *testing.T) {
	db, err := Open(Options{PageSize: 1024})
	if err != nil {
		t.Fatal(err)
	}
	if err := db.Insert([]byte("alpha"), []byte("1")); err != nil {
		t.Fatal(err)
	}
	v, err := db.Get([]byte("alpha"))
	if err != nil || string(v) != "1" {
		t.Fatalf("get = %q, %v", v, err)
	}
	if err := db.Insert([]byte("alpha"), []byte("2")); !errors.Is(err, ErrExists) {
		t.Errorf("duplicate insert err = %v", err)
	}
	if err := db.Update([]byte("alpha"), []byte("2")); err != nil {
		t.Fatal(err)
	}
	v, _ = db.Get([]byte("alpha"))
	if string(v) != "2" {
		t.Errorf("after update: %q", v)
	}
	if err := db.Delete([]byte("alpha")); err != nil {
		t.Fatal(err)
	}
	if _, err := db.Get([]byte("alpha")); !errors.Is(err, ErrNotFound) {
		t.Errorf("get after delete err = %v", err)
	}
}

func TestMultiOpTransactionAtomicity(t *testing.T) {
	db, _ := Open(Options{PageSize: 1024})
	tx := db.Begin()
	for i := 0; i < 10; i++ {
		if err := tx.Insert(workload.Key(i), workload.Value(i, 20)); err != nil {
			t.Fatal(err)
		}
	}
	if err := tx.Abort(); err != nil {
		t.Fatal(err)
	}
	n, err := db.Count(nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	if n != 0 {
		t.Errorf("aborted transaction left %d records", n)
	}

	tx2 := db.Begin()
	for i := 0; i < 10; i++ {
		if err := tx2.Insert(workload.Key(i), workload.Value(i, 20)); err != nil {
			t.Fatal(err)
		}
	}
	if err := tx2.Commit(); err != nil {
		t.Fatal(err)
	}
	if n, _ := db.Count(nil, nil); n != 10 {
		t.Errorf("committed %d records, want 10", n)
	}
}

func TestScanOrderAndBounds(t *testing.T) {
	db, _ := Open(Options{PageSize: 1024})
	if err := workload.Load(db, 500, 24, "random", 1); err != nil {
		t.Fatal(err)
	}
	var keys []string
	err := db.Scan(workload.Key(100), workload.Key(199), func(k, _ []byte) bool {
		keys = append(keys, string(k))
		return true
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(keys) != 100 {
		t.Fatalf("scan returned %d keys", len(keys))
	}
	for i := 1; i < len(keys); i++ {
		if keys[i-1] >= keys[i] {
			t.Fatal("scan out of order")
		}
	}
}

func TestReorganizeEndToEnd(t *testing.T) {
	db, _ := Open(Options{PageSize: 1024})
	const n = 4000
	if err := workload.Load(db, n, 32, "random", 7); err != nil {
		t.Fatal(err)
	}
	keep, err := workload.Sparsify(db, n, 0.25)
	if err != nil {
		t.Fatal(err)
	}
	before, _ := db.GatherStats()
	m, err := db.Reorganize(DefaultReorgConfig())
	if err != nil {
		t.Fatal(err)
	}
	if err := db.Check(); err != nil {
		t.Fatal(err)
	}
	after, _ := db.GatherStats()
	t.Logf("reorg: leaves %d->%d fill %.2f->%.2f height %d->%d inversions %d->%d",
		before.LeafPages, after.LeafPages, before.AvgLeafFill, after.AvgLeafFill,
		before.Height, after.Height, before.OutOfOrderPairs, after.OutOfOrderPairs)
	t.Logf("counters:\n%s", m)
	if after.AvgLeafFill <= before.AvgLeafFill {
		t.Error("fill factor did not improve")
	}
	if after.OutOfOrderPairs != 0 {
		t.Errorf("%d leaf inversions remain", after.OutOfOrderPairs)
	}
	for i := 0; i < n; i++ {
		v, err := db.Get(workload.Key(i))
		if keep(i) {
			if err != nil {
				t.Fatalf("record %d lost: %v", i, err)
			}
			if string(v) != string(workload.Value(i, 32)) {
				t.Fatalf("record %d corrupted", i)
			}
		} else if !errors.Is(err, ErrNotFound) {
			t.Fatalf("deleted record %d: %v", i, err)
		}
	}
}

func TestCrashRestartEndToEnd(t *testing.T) {
	db, _ := Open(Options{PageSize: 1024})
	if err := workload.Load(db, 1000, 24, "seq", 1); err != nil {
		t.Fatal(err)
	}
	if err := db.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	for i := 1000; i < 1200; i++ {
		if err := db.Insert(workload.Key(i), workload.Value(i, 24)); err != nil {
			t.Fatal(err)
		}
	}
	db.Crash()
	info, err := db.Restart()
	if err != nil {
		t.Fatal(err)
	}
	if err := db.Check(); err != nil {
		t.Fatal(err)
	}
	n, _ := db.Count(nil, nil)
	if n != 1200 {
		t.Errorf("recovered %d records, want 1200 (info %+v)", n, info)
	}
	// The database stays usable after restart.
	if err := db.Insert(workload.Key(5000), []byte("post")); err != nil {
		t.Fatal(err)
	}
}

func TestConcurrentClientsDuringReorg(t *testing.T) {
	db, _ := Open(Options{PageSize: 1024})
	const n = 3000
	if err := workload.Load(db, n, 24, "random", 3); err != nil {
		t.Fatal(err)
	}
	if _, err := workload.Sparsify(db, n, 0.3); err != nil {
		t.Fatal(err)
	}
	stop := make(chan struct{})
	var wg sync.WaitGroup
	var stats workload.ClientStats
	wg.Add(1)
	go func() {
		defer wg.Done()
		stats = workload.RunClients(db, 6, 0, workload.Balanced, n, 24, stop)
	}()
	if _, err := db.Reorganize(DefaultReorgConfig()); err != nil {
		close(stop)
		wg.Wait()
		t.Fatal(err)
	}
	close(stop)
	wg.Wait()
	if stats.Errors > 0 {
		t.Errorf("%d client errors during reorganization", stats.Errors)
	}
	if err := db.Check(); err != nil {
		t.Fatal(err)
	}
	t.Logf("clients: %d ops, %.0f ops/s, avg %v",
		stats.Ops, stats.Throughput(), stats.AvgLatency())
}

func TestValueSizeLimit(t *testing.T) {
	db, _ := Open(Options{PageSize: 512})
	huge := make([]byte, 4096)
	if err := db.Insert([]byte("k"), huge); err == nil {
		t.Error("oversized value accepted")
	}
}

func TestCountAndIOStats(t *testing.T) {
	db, _ := Open(Options{PageSize: 1024})
	if err := workload.Load(db, 200, 24, "seq", 1); err != nil {
		t.Fatal(err)
	}
	n, err := db.Count(workload.Key(50), workload.Key(149))
	if err != nil || n != 100 {
		t.Fatalf("count = %d, %v", n, err)
	}
	if err := db.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	writes := db.IOStats().Writes
	if writes == 0 {
		t.Error("checkpoint wrote nothing")
	}
	if db.LogBytes() == 0 {
		t.Error("no log volume recorded")
	}
}

func ExampleDB() {
	db, _ := Open(Options{})
	_ = db.Insert([]byte("hello"), []byte("world"))
	v, _ := db.Get([]byte("hello"))
	fmt.Println(string(v))
	// Output: world
}

// leafFor walks the quiescent tree to the leaf covering key and returns
// its keys in order.
func leafFor(t *testing.T, db *DB, key []byte) [][]byte {
	t.Helper()
	id, _ := db.tree.Root()
	for {
		f, err := db.pager.Fix(id)
		if err != nil {
			t.Fatal(err)
		}
		p := f.Data()
		if p.Type() == storage.PageInternal {
			id, _ = kv.ChildFor(p, key)
			db.pager.Unfix(f)
			continue
		}
		var keys [][]byte
		for i := 0; i < p.NumSlots(); i++ {
			keys = append(keys, append([]byte(nil), kv.SlotKey(p, i)...))
		}
		db.pager.Unfix(f)
		return keys
	}
}

// TestScanRetryResumesAfterDeadlock forces an auto-commit scan to lose
// a deadlock half way: it holds S on the first leaf and waits for the
// second, whose records an older transaction has deleted; that
// transaction's commit frees the second leaf and needs X on the first.
// The scan is the younger owner, so it is the victim and db.Scan
// retries it. The retry must continue after the keys already delivered:
// a replay from the start hands the callback the first leaf twice
// (ROADMAP 0b's "returned key k out of order", and an overcounting
// Count).
func TestScanRetryResumesAfterDeadlock(t *testing.T) {
	db, err := Open(Options{PageSize: 512})
	if err != nil {
		t.Fatal(err)
	}
	defer db.Close()
	const n = 120
	if err := workload.Load(db, n, 24, "seq", 1); err != nil {
		t.Fatal(err)
	}
	first := leafFor(t, db, workload.Key(0))
	second := leafFor(t, db, workload.Key(len(first))) // sequential load: the next key
	if len(first)+len(second) >= n {
		t.Fatalf("want at least three leaves, got %d+%d of %d keys in the first two", len(first), len(second), n)
	}

	older := db.Begin()
	for _, k := range second {
		if err := older.Delete(k); err != nil {
			t.Fatal(err)
		}
	}

	lastOfFirst := string(first[len(first)-1])
	atBoundary := make(chan struct{})
	var got []string
	scanDone := make(chan error, 1)
	go func() {
		scanDone <- db.Scan(nil, nil, func(k, _ []byte) bool {
			got = append(got, string(k))
			if len(got) == len(first) && string(k) == lastOfFirst {
				close(atBoundary)
			}
			return true
		})
	}()
	<-atBoundary
	deadlocks := db.LockStats().Deadlocks.Load()
	if err := older.Commit(); err != nil {
		t.Fatal(err)
	}
	if err := <-scanDone; err != nil {
		t.Fatalf("scan: %v", err)
	}
	if db.LockStats().Deadlocks.Load() == deadlocks {
		t.Fatal("the scan was not victimised: the test no longer forces the retry")
	}

	want := n - len(second)
	if len(got) != want {
		t.Errorf("scan delivered %d keys, want %d", len(got), want)
	}
	for i := 1; i < len(got); i++ {
		if got[i-1] >= got[i] {
			t.Fatalf("scan delivered %q after %q", got[i], got[i-1])
		}
	}
	if err := db.Check(); err != nil {
		t.Fatal(err)
	}
}
