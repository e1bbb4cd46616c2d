package repro

import (
	"fmt"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/metrics"
	"repro/internal/storage"
	"repro/internal/wal"
	"repro/internal/workload"
)

// TestSplitLogAccounting pins, on a fresh in-memory database with the
// benchmark's page, key and value sizes (4 KiB, 12 and 48 bytes), the
// log bytes of the first leaf split, internal split and root split a
// sequential load makes: the record plus its 4-byte length prefix.
// Since log format 5 a split logs page ids, the separator, the side
// pointers and the base-entry keys, never the cells it moves; in format
// 4 these three were 1 522, 681 and 1 328 bytes.
func TestSplitLogAccounting(t *testing.T) {
	db, err := Open(Options{PageSize: 4096})
	if err != nil {
		t.Fatal(err)
	}
	defer db.Close()
	want := map[string]int64{"leaf split": 26, "internal split": 28, "root split": 24}
	got := map[string]int64{}
	for i := 1; len(got) < len(want) && i <= 20000; i++ {
		tail, bytes0 := db.log.Tail(), db.log.BytesAppended()
		if err := db.Insert(workload.Key(i), workload.Value(i, 48)); err != nil {
			t.Fatal(err)
		}
		recs, n := logSince(t, db, tail, bytes0)
		var sum int64
		for _, r := range recs {
			size := int64(len(wal.Encode(r))) + 4
			sum += size
			kind := ""
			switch r := r.(type) {
			case wal.Split:
				kind = "leaf split"
				if r.Level > 0 {
					kind = "internal split"
				}
			case wal.RootSplit:
				kind = "root split"
			default:
				continue
			}
			if _, seen := got[kind]; !seen {
				got[kind] = size
			}
		}
		if sum != n {
			t.Fatalf("insert %d appended %d bytes, its records %d", i, n, sum)
		}
	}
	for kind, w := range want {
		g, ok := got[kind]
		switch {
		case !ok:
			t.Errorf("the load made no %s", kind)
		case g != w:
			t.Errorf("%s: %d log bytes, want %d", kind, g, w)
		case g > 64:
			t.Errorf("%s: %d log bytes, want at most 64", kind, g)
		}
	}
}

// splitRedoDB opens a database on backend ("mem" or "file") with an
// unbounded pool and inserts sequential keys until the first leaf split,
// which it returns with the keys it inserted. Nothing is flushed after
// Open: every page the split changed is dirty in the pool only.
func splitRedoDB(t *testing.T, backend string) (*DB, wal.Split, int) {
	t.Helper()
	opts := Options{PageSize: 1024}
	if backend == "file" {
		opts.Dir = t.TempDir()
	}
	db, err := Open(opts)
	if err != nil {
		t.Fatal(err)
	}
	for i := 1; i <= 100; i++ {
		tail, bytes0 := db.log.Tail(), db.log.BytesAppended()
		if err := db.Insert(workload.Key(i), workload.Value(i, 48)); err != nil {
			t.Fatal(err)
		}
		recs, _ := logSince(t, db, tail, bytes0)
		for _, r := range recs {
			if s, ok := r.(wal.Split); ok && s.Level == 0 {
				return db, s, i
			}
		}
	}
	t.Fatal("100 inserts made no leaf split")
	return nil, wal.Split{}, 0
}

// stableLSN is the pageLSN of id's stable image.
func stableLSN(db *DB, id storage.PageID) uint64 { return db.pager.Disk().StableLSN(id) }

// splitLSN finds the split's LSN in the log.
func splitLSN(t *testing.T, db *DB, s wal.Split) uint64 {
	t.Helper()
	var at uint64
	if err := db.log.Iterate(1, func(lsn wal.LSN, r wal.Record) error {
		if r, ok := r.(wal.Split); ok && r.Left == s.Left && r.Right == s.Right {
			at = uint64(lsn)
		}
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	return at
}

// restartAndVerify crashes and restarts db and expects exactly the keys
// present says are there, then a clean structure check.
func restartAndVerify(t *testing.T, db *DB, n int, present func(int) bool) {
	t.Helper()
	db.Crash()
	if _, err := db.Restart(); err != nil {
		t.Fatalf("restart: %v", err)
	}
	for i := 1; i <= n; i++ {
		v, err := db.Get(workload.Key(i))
		if present(i) && (err != nil || string(v) != string(workload.Value(i, 48))) {
			t.Fatalf("key %d after restart: %q, %v", i, v, err)
		}
		if !present(i) && err == nil {
			t.Fatalf("deleted key %d is back after restart", i)
		}
	}
	if err := db.Check(); err != nil {
		t.Fatalf("check after restart: %v", err)
	}
}

// runSplitRedo covers the redo of a split from every disk state careful
// writing allows: the split's pages flushed in no, one and both of the
// orders it permits, and the new page freed at empty before the old
// page reached disk.
func runSplitRedo(t *testing.T, backend string) {
	all := func(int) bool { return true }
	t.Run("neither flushed", func(t *testing.T) {
		db, _, n := splitRedoDB(t, backend)
		defer db.Close()
		restartAndVerify(t, db, n, all)
	})
	t.Run("new page flushed", func(t *testing.T) {
		db, s, n := splitRedoDB(t, backend)
		defer db.Close()
		if err := db.pager.FlushPage(s.Right); err != nil {
			t.Fatal(err)
		}
		at := splitLSN(t, db, s)
		if stableLSN(db, s.Right) < at || stableLSN(db, s.Left) >= at {
			t.Fatalf("stable LSNs old %d new %d, want only the new page past the split's %d",
				stableLSN(db, s.Left), stableLSN(db, s.Right), at)
		}
		restartAndVerify(t, db, n, all)
	})
	t.Run("both flushed", func(t *testing.T) {
		db, s, n := splitRedoDB(t, backend)
		defer db.Close()
		// Flushing the old page writes the new page first.
		if err := db.pager.FlushPage(s.Left); err != nil {
			t.Fatal(err)
		}
		at := splitLSN(t, db, s)
		if stableLSN(db, s.Right) < at || stableLSN(db, s.Left) < at {
			t.Fatalf("stable LSNs old %d new %d, want both past the split's %d",
				stableLSN(db, s.Left), stableLSN(db, s.Right), at)
		}
		restartAndVerify(t, db, n, all)
	})
	t.Run("new page freed, then old page flushed", func(t *testing.T) {
		db, s, n := splitRedoDB(t, backend)
		defer db.Close()
		// Empty the new page (it holds the keys at or above the
		// separator): its last delete frees it at commit.
		gone := map[int]bool{}
		for i := n; i >= 1 && string(workload.Key(i)) >= string(s.Sep); i-- {
			if err := db.Delete(workload.Key(i)); err != nil {
				t.Fatal(err)
			}
			gone[i] = true
		}
		if typ := db.pager.Disk().ScanTypes()[s.Right]; typ != storage.PageFree {
			t.Fatalf("new page %d has stable type %d after free-at-empty, want free", s.Right, typ)
		}
		if err := db.pager.FlushPage(s.Left); err != nil {
			t.Fatal(err)
		}
		restartAndVerify(t, db, n, func(i int) bool { return !gone[i] })
	})
}

// runSplitRedoViolation writes the old page's split image to disk
// behind the pager's back — the one order careful writing forbids — and
// expects restart to refuse with the violation named, not to rebuild
// the new page from cells that are gone.
func runSplitRedoViolation(t *testing.T, backend string) {
	db, s, _ := splitRedoDB(t, backend)
	defer db.Close()
	f, err := db.pager.Fix(s.Left)
	if err != nil {
		t.Fatal(err)
	}
	f.RLock()
	img := append([]byte(nil), f.Data()...)
	f.RUnlock()
	db.pager.Unfix(f)
	// The auto-commit inserts forced the log past the split.
	if err := db.pager.Disk().Write(s.Left, img); err != nil {
		t.Fatal(err)
	}
	db.Crash()
	_, err = db.Restart()
	want := fmt.Sprintf("careful-writing violation on split of %d", s.Left)
	if err == nil || !strings.Contains(err.Error(), want) {
		t.Fatalf("restart after the old page overtook the new one = %v, want %q", err, want)
	}
}

func TestSplitRedo(t *testing.T)                     { runSplitRedo(t, "mem") }
func TestFileBackendSplitRedo(t *testing.T)          { runSplitRedo(t, "file") }
func TestSplitRedoViolation(t *testing.T)            { runSplitRedoViolation(t, "mem") }
func TestFileBackendSplitRedoViolation(t *testing.T) { runSplitRedoViolation(t, "file") }

// TestFileBackendCheckpointSyncsPages: a checkpoint truncates the log
// below its redo point, so the pages it flushed must be on media, not
// only written: one that wrote pages raises the page file's fsync
// count, whether its pages wait on each other (a load that split
// leaves) or not (updates in place).
func TestFileBackendCheckpointSyncsPages(t *testing.T) {
	db := openFileDB(t, t.TempDir(), Options{})
	defer db.Close()
	for _, step := range []struct {
		name  string
		write func(i int) error
	}{
		{"load", func(i int) error { return db.Insert(workload.Key(i), workload.Value(i, 48)) }},
		{"update", func(i int) error { return db.Update(workload.Key(i), workload.Value(i+1, 48)) }},
	} {
		for i := 0; i < 200; i++ {
			if err := step.write(i); err != nil {
				t.Fatal(err)
			}
		}
		before := db.IOStats()
		if err := db.Checkpoint(); err != nil {
			t.Fatal(err)
		}
		after := db.IOStats()
		if after.Writes == before.Writes {
			t.Fatalf("%s: the checkpoint wrote no pages", step.name)
		}
		if after.Fsyncs == before.Fsyncs {
			t.Errorf("%s: the checkpoint wrote %d pages and never synced the page file",
				step.name, after.Writes-before.Writes)
		}
	}
}

// TestCheckpointBesideSplits runs inserters that split leaves on the
// file backend with a bounded pool — evictions write split pages in
// careful-write order — beside automatic checkpoints, whose flush rounds
// do too, then crashes, restarts and checks every acknowledged key and
// the structure.
func TestCheckpointBesideSplits(t *testing.T) {
	db := openFileDB(t, t.TempDir(), Options{BufferPoolPages: 48})
	defer db.Close()
	db.log.SetCheckpointInterval(16 << 10)
	const clients, per = 3, 300
	var wg sync.WaitGroup
	errs := make(chan error, clients)
	for c := 0; c < clients; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			for i := 0; i < per; i++ {
				k := i*clients + c + 1
				if err := db.Insert(workload.Key(k), workload.Value(k, 48)); err != nil {
					errs <- fmt.Errorf("client %d insert %d: %w", c, k, err)
					return
				}
			}
		}(c)
	}
	done := make(chan struct{})
	go func() { wg.Wait(); close(done) }()
	select {
	case <-done:
	case <-time.After(2 * time.Minute):
		t.Fatal("inserters did not finish")
	}
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}
	if db.PerfCounters().Get(metrics.CkptAuto) == 0 {
		t.Fatal("no automatic checkpoint ran beside the inserters")
	}
	restartAndVerify(t, db, clients*per, func(int) bool { return true })
}
