package repro

import (
	"errors"
	"os"
	"path/filepath"
	"testing"

	"repro/internal/wal"
	"repro/internal/workload"
)

// openFileDB opens a file-backed database in dir.
func openFileDB(t *testing.T, dir string, opts Options) *DB {
	t.Helper()
	opts.Dir = dir
	if opts.PageSize == 0 {
		opts.PageSize = 1024
	}
	db, err := Open(opts)
	if err != nil {
		t.Fatalf("Open(%s): %v", dir, err)
	}
	return db
}

// TestFileBackendDurability writes through the file backend, closes the
// database, reopens the same directory, and expects every committed
// record back — the whole point of the exercise.
func TestFileBackendDurability(t *testing.T) {
	dir := t.TempDir()
	db := openFileDB(t, dir, Options{})
	const n = 500
	if err := workload.Load(db, n, 32, "random", 7); err != nil {
		t.Fatal(err)
	}
	if err := db.Close(); err != nil {
		t.Fatalf("Close: %v", err)
	}

	db = openFileDB(t, dir, Options{})
	defer db.Close()
	for i := 0; i < n; i++ {
		v, err := db.Get(workload.Key(i))
		if err != nil {
			t.Fatalf("Get(%d) after reopen: %v", i, err)
		}
		if want := workload.Value(i, 32); string(v) != string(want) {
			t.Fatalf("Get(%d) after reopen: wrong value", i)
		}
	}
	if err := db.Check(); err != nil {
		t.Fatalf("invariant check after reopen: %v", err)
	}
}

// TestFileBackendCloseCheckpoints: a clean Close ends in a checkpoint,
// so reopening replays nothing but that checkpoint's own record, however
// many records the session logged below the automatic checkpoints' byte
// interval.
func TestFileBackendCloseCheckpoints(t *testing.T) {
	dir := t.TempDir()
	db := openFileDB(t, dir, Options{})
	if err := workload.Load(db, 500, 32, "random", 3); err != nil {
		t.Fatal(err)
	}
	if err := db.Close(); err != nil {
		t.Fatalf("Close: %v", err)
	}
	db = openFileDB(t, dir, Options{})
	defer db.Close()
	cpLSN, cp, ok := db.log.LastCheckpoint()
	if !ok {
		t.Fatal("no checkpoint in the reopened log")
	}
	redo := cp.RedoLSN
	if redo == 0 {
		redo = cpLSN
	}
	replayed := 0
	if err := db.log.Iterate(redo, func(wal.LSN, wal.Record) error {
		replayed++
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	if replayed != 1 {
		t.Errorf("reopen after Close replays %d records from the redo point, want the checkpoint alone", replayed)
	}
	if v, err := db.Get(workload.Key(0)); err != nil || string(v) != string(workload.Value(0, 32)) {
		t.Errorf("key 0 after reopen: %q, %v", v, err)
	}
}

// TestFileBackendReorganizeSurvivesReopen runs the paper's three-pass
// reorganization against real files and verifies both the data and the
// reorganized physical order survive a restart.
func TestFileBackendReorganizeSurvivesReopen(t *testing.T) {
	dir := t.TempDir()
	db := openFileDB(t, dir, Options{})
	const n = 2000
	if err := workload.Load(db, n, 32, "random", 11); err != nil {
		t.Fatal(err)
	}
	if _, err := workload.Sparsify(db, n, 0.25); err != nil {
		t.Fatal(err)
	}
	if _, err := db.Reorganize(DefaultReorgConfig()); err != nil {
		t.Fatalf("Reorganize: %v", err)
	}
	statsBefore, err := db.GatherStats()
	if err != nil {
		t.Fatal(err)
	}
	if err := db.Close(); err != nil {
		t.Fatalf("Close: %v", err)
	}

	db = openFileDB(t, dir, Options{})
	defer db.Close()
	statsAfter, err := db.GatherStats()
	if err != nil {
		t.Fatal(err)
	}
	if statsAfter.Records != statsBefore.Records {
		t.Fatalf("records %d -> %d across reopen", statsBefore.Records, statsAfter.Records)
	}
	if statsAfter.OutOfOrderPairs != statsBefore.OutOfOrderPairs {
		t.Fatalf("leaf order changed across reopen: %d -> %d inversions",
			statsBefore.OutOfOrderPairs, statsAfter.OutOfOrderPairs)
	}
	if err := db.Check(); err != nil {
		t.Fatalf("invariant check after reorg+reopen: %v", err)
	}
}

// TestFileBackendCheckpointRetention verifies a quiescent checkpoint
// lets WAL retention delete old segments, and the database still
// reopens cleanly from the retained suffix.
func TestFileBackendCheckpointRetention(t *testing.T) {
	dir := t.TempDir()
	db := openFileDB(t, dir, Options{WALSegmentBytes: 4096})
	const n = 1000
	if err := workload.Load(db, n, 48, "random", 3); err != nil {
		t.Fatal(err)
	}
	c := db.PerfCounters().Snapshot()
	if c["wal.segments.created"] < 3 {
		t.Fatalf("segments created = %d, want several with a 4 KiB budget", c["wal.segments.created"])
	}
	if err := db.Checkpoint(); err != nil {
		t.Fatalf("Checkpoint: %v", err)
	}
	c = db.PerfCounters().Snapshot()
	if c["wal.segments.deleted"] == 0 {
		t.Fatalf("quiescent checkpoint deleted no segments (created=%d live=%d)",
			c["wal.segments.created"], c["wal.segments.live"])
	}
	if c["wal.fsyncs"] == 0 {
		t.Fatalf("wal.fsyncs = 0, want nonzero after commits on the file backend")
	}
	if err := db.Close(); err != nil {
		t.Fatalf("Close: %v", err)
	}

	db = openFileDB(t, dir, Options{WALSegmentBytes: 4096})
	defer db.Close()
	for _, i := range []int{0, n / 2, n - 1} {
		if _, err := db.Get(workload.Key(i)); err != nil {
			t.Fatalf("Get(%d) after retention+reopen: %v", i, err)
		}
	}
}

// TestFileBackendCorruptPageSurfacesTyped bit-flips a page on media
// under a closed database and expects the reopened database to report
// ErrCorruptPage (wrapped, matchable) from the read that touches it.
func TestFileBackendCorruptPageSurfacesTyped(t *testing.T) {
	dir := t.TempDir()
	db := openFileDB(t, dir, Options{})
	const n = 300
	if err := workload.Load(db, n, 32, "random", 5); err != nil {
		t.Fatal(err)
	}
	if err := db.Close(); err != nil {
		t.Fatalf("Close: %v", err)
	}

	path := filepath.Join(dir, "pages.db")
	raw, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	// Flip a bit in every slot's image region past the first few pages:
	// whichever page the scan reads first reports the corruption.
	slot := 32 + 16 + 1024
	for off := slot + slot/2; off < len(raw); off += slot {
		raw[off] ^= 0x10
	}
	if err := os.WriteFile(path, raw, 0o644); err != nil {
		t.Fatal(err)
	}

	db2, err := Open(Options{PageSize: 1024, Dir: dir})
	if err != nil {
		if !errors.Is(err, ErrCorruptPage) {
			t.Fatalf("Open over corrupt pages = %v, want ErrCorruptPage", err)
		}
		return
	}
	defer db2.Close()
	var sawCorrupt bool
	for i := 0; i < n; i++ {
		_, err := db2.Get(workload.Key(i))
		if err == nil {
			continue
		}
		if errors.Is(err, ErrCorruptPage) {
			sawCorrupt = true
			break
		}
		t.Fatalf("Get(%d) = %v, want ErrCorruptPage in the chain", i, err)
	}
	if !sawCorrupt {
		t.Fatalf("no read surfaced ErrCorruptPage over a fully bit-flipped page file")
	}
}

// TestFileBackendCorruptWALRefusesOpen bit-flips a WAL record
// mid-stream under a closed database: reopening must fail with
// ErrWALCorrupt instead of replaying garbage.
func TestFileBackendCorruptWALRefusesOpen(t *testing.T) {
	dir := t.TempDir()
	db := openFileDB(t, dir, Options{})
	if err := workload.Load(db, 200, 32, "random", 9); err != nil {
		t.Fatal(err)
	}
	if err := db.Close(); err != nil {
		t.Fatalf("Close: %v", err)
	}

	walDir := filepath.Join(dir, "wal")
	ents, err := os.ReadDir(walDir)
	if err != nil {
		t.Fatal(err)
	}
	if len(ents) == 0 {
		t.Fatal("no WAL segments on disk")
	}
	path := filepath.Join(walDir, ents[0].Name())
	raw, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	raw[len(raw)/2] ^= 0x04 // mid-stream, not the tail
	if err := os.WriteFile(path, raw, 0o644); err != nil {
		t.Fatal(err)
	}

	if _, err := Open(Options{PageSize: 1024, Dir: dir}); !errors.Is(err, ErrWALCorrupt) {
		t.Fatalf("Open over mid-stream WAL damage = %v, want ErrWALCorrupt", err)
	}
}

// TestFileBackendCloseAfterDirGone exercises the failing-close path:
// the database directory disappears under a live instance, and Close
// must report an error while still releasing every handle (the second
// Close is a clean no-op).
func TestFileBackendCloseAfterDirGone(t *testing.T) {
	parent := t.TempDir()
	dir := filepath.Join(parent, "db")
	if err := os.MkdirAll(dir, 0o755); err != nil {
		t.Fatal(err)
	}
	db := openFileDB(t, dir, Options{})
	if err := workload.Load(db, 100, 32, "random", 1); err != nil {
		t.Fatal(err)
	}
	// Sever the page file: further writes hit a read-only file handle's
	// error path. Replace it with a directory so reopen-style writes and
	// fsyncs fail deterministically.
	if err := os.RemoveAll(dir); err != nil {
		t.Fatal(err)
	}
	if err := db.Insert([]byte("zzz-after-remove"), []byte("v")); err != nil {
		// An error here is acceptable; the point is the close below.
		t.Logf("insert after removal: %v", err)
	}
	err := db.Close()
	t.Logf("Close after directory removal: %v", err)
	if err2 := db.Close(); err2 != nil && err == nil {
		t.Fatalf("second Close = %v after clean first close", err2)
	}
}

// TestFileBackendOpenErrorPath verifies Open fails cleanly (no panic,
// no leaked handles wedging the directory) when the page file path is
// unusable. Permission-bit variants are useless under root, so the
// unusable path is a directory squatting on pages.db.
func TestFileBackendOpenErrorPath(t *testing.T) {
	dir := t.TempDir()
	if err := os.MkdirAll(filepath.Join(dir, "pages.db"), 0o755); err != nil {
		t.Fatal(err)
	}
	if _, err := Open(Options{PageSize: 1024, Dir: dir}); err == nil {
		t.Fatal("Open with a directory at pages.db succeeded, want error")
	}
	// The failed open left the WAL directory usable: a fresh directory
	// one level down opens fine (nothing is wedged or half-created).
	if err := os.RemoveAll(filepath.Join(dir, "pages.db")); err != nil {
		t.Fatal(err)
	}
	db := openFileDB(t, dir, Options{})
	if err := db.Insert([]byte("k"), []byte("v")); err != nil {
		t.Fatal(err)
	}
	if err := db.Close(); err != nil {
		t.Fatalf("Close: %v", err)
	}
}

// TestFileBackendPerfCountersExposeMedia checks DB.PerfCounters carries
// the media counters the bench and inspect tools print.
func TestFileBackendPerfCountersExposeMedia(t *testing.T) {
	db := openFileDB(t, t.TempDir(), Options{})
	defer db.Close()
	if err := workload.Load(db, 200, 32, "random", 2); err != nil {
		t.Fatal(err)
	}
	c := db.PerfCounters().Snapshot()
	for _, key := range []string{"disk.bytes.written", "wal.fsyncs", "wal.segments.live"} {
		if c[key] == 0 {
			t.Errorf("PerfCounters[%s] = 0, want nonzero on the file backend (all: %v)", key, c)
		}
	}
}

// TestMemBackendUnaffected pins the default: no Dir means no files.
func TestMemBackendUnaffected(t *testing.T) {
	db, err := Open(Options{PageSize: 1024})
	if err != nil {
		t.Fatal(err)
	}
	defer db.Close()
	if err := db.Insert([]byte("k"), []byte("v")); err != nil {
		t.Fatal(err)
	}
	c := db.PerfCounters().Snapshot()
	for _, key := range []string{"disk.fsyncs", "wal.fsyncs", "wal.segments.created"} {
		if c[key] != 0 {
			t.Errorf("PerfCounters[%s] = %d on the mem backend, want 0", key, c[key])
		}
	}
}
