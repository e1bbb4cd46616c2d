package repro

import (
	"bytes"
	"errors"
	"fmt"
	"sync"
	"testing"
	"time"

	"repro/internal/daemon"
	"repro/internal/fault"
	"repro/internal/metrics"
	"repro/internal/obs"
	"repro/internal/workload"
)

// backendOpeners opens a fresh database on each backend with the given
// options (the file backend in a new temp directory, small segments).
func backendOpeners() map[string]func(t *testing.T, opts Options) *DB {
	return map[string]func(t *testing.T, opts Options) *DB{
		"mem": func(t *testing.T, opts Options) *DB {
			if opts.PageSize == 0 {
				opts.PageSize = 1024
			}
			db, err := Open(opts)
			if err != nil {
				t.Fatal(err)
			}
			return db
		},
		"file": func(t *testing.T, opts Options) *DB {
			opts.WALSegmentBytes = 16 << 10
			return openFileDB(t, t.TempDir(), opts)
		},
	}
}

// perf reads one PerfCounters value.
func perf(db *DB, name string) int64 { return db.PerfCounters().Get(name) }

// TestCheckpointBesideReorganization runs Checkpoint in a loop beside a
// reorganization — all three passes through Reorganize, and pass-1
// slices through daemon increments — crashes while the reorganization
// runs, restarts and expects the tree intact with exactly the records
// that were kept. The crash is a crash of the log: from the armed
// wal.append hit on, every append panics, so neither the reorganizer
// nor a checkpoint in flight logs anything after that instant. A
// checkpoint taken inside a unit must describe it: the unit's BEGIN and
// the reorg table entry are one step (otherwise a checkpoint reading
// the tail between them records no unit above its redo point), redo
// starts no later than the BEGIN (a unit logs each step before applying
// it, so the flushed pages can lack one), and a step's write-ordering
// dependency is installed with the step under the page latch (otherwise
// the checkpoint's flush consumes it early and the destination
// overtakes the source).
func TestCheckpointBesideReorganization(t *testing.T) {
	offsets := []int64{3, 20, 60, 150, 400} // wal.append hits into the reorganization
	if testing.Short() {
		offsets = []int64{20, 150}
	}
	for backend, open := range backendOpeners() {
		for _, shape := range []string{"reorganize", "daemon"} {
			for _, off := range offsets {
				t.Run(fmt.Sprintf("%s/%s/append+%d", backend, shape, off), func(t *testing.T) {
					crashBesideCheckpoints(t, open, shape == "daemon", off)
				})
			}
		}
	}
}

func crashBesideCheckpoints(t *testing.T, open func(*testing.T, Options) *DB, useDaemon bool, offset int64) {
	const n = 1500
	inj := fault.New(1)
	opts := Options{BufferPoolPages: 48, FaultInjector: inj}
	if useDaemon {
		cfg := daemon.DefaultConfig()
		cfg.Manual = true
		cfg.MinLeaves = 2
		opts.Daemon = &cfg
	}
	db := open(t, opts)
	defer func() {
		inj.Disarm()
		db.Close()
	}()
	if err := workload.Load(db, n, 48, "random", 5); err != nil {
		t.Fatal(err)
	}
	keep, err := workload.Sparsify(db, n, 0.34)
	if err != nil {
		t.Fatal(err)
	}

	inj.Arm(fault.WALAppend, fault.Schedule{Kind: fault.KindCrash,
		OnHit: inj.HitCounts()[fault.WALAppend] + offset, MaxFires: 1 << 30})
	stop := make(chan struct{})
	var wg sync.WaitGroup
	var ckpts int
	wg.Add(1)
	go func() {
		defer wg.Done()
		for {
			select {
			case <-stop:
				return
			default:
			}
			crash, err := fault.Catch(db.Checkpoint)
			if crash != nil {
				return
			}
			if err != nil {
				t.Errorf("Checkpoint: %v", err)
				return
			}
			ckpts++
		}
	}()
	crash, err := fault.Catch(func() error {
		if !useDaemon {
			_, err := db.Reorganize(DefaultReorgConfig())
			return err
		}
		for i := 0; i < 200; i++ {
			if err := db.Daemon().Tick(); err != nil {
				return err
			}
		}
		return nil
	})
	close(stop)
	wg.Wait()
	inj.Disarm()
	if err != nil {
		t.Fatalf("reorganization failed before the crash: %v", err)
	}
	if crash == nil {
		t.Skipf("the reorganization logged fewer than %d records", offset)
	}
	t.Logf("crash after %d concurrent checkpoints", ckpts)

	db.Crash()
	if _, err := db.Restart(); err != nil {
		t.Fatalf("Restart: %v", err)
	}
	if err := db.Check(); err != nil {
		t.Fatalf("Check after restart: %v", err)
	}
	want := 0
	for i := 0; i < n; i++ {
		v, err := db.Get(workload.Key(i))
		switch {
		case keep(i):
			want++
			if err != nil || !bytes.Equal(v, workload.Value(i, 48)) {
				t.Fatalf("kept record %d: %q, %v", i, v, err)
			}
		case !errors.Is(err, ErrNotFound):
			t.Fatalf("deleted record %d came back: %q, %v", i, v, err)
		}
	}
	if got, err := db.Count(nil, nil); err != nil || got != want {
		t.Fatalf("Count = %d, %v; want %d", got, err, want)
	}
}

// TestAutomaticCheckpointBoundsLog drives ten checkpoint intervals of
// log through auto-commit writes on each device and checks that the log
// the device holds — tail minus retained base — never exceeds two
// intervals plus one allocation unit of the device (a stream chunk, a
// segment), and that the gauges report it.
func TestAutomaticCheckpointBoundsLog(t *testing.T) {
	const interval = 64 << 10
	for backend, open := range backendOpeners() {
		t.Run(backend, func(t *testing.T) {
			db := open(t, Options{})
			defer db.Close()
			db.log.SetCheckpointInterval(interval)
			unit := int64(1 << 20) // the in-memory log's largest chunk
			if backend == "file" {
				unit = 16 << 10
			}
			var maxHeld int64
			for i := 0; db.LogBytes() < 10*interval; i++ {
				k := workload.Key(i % 2000)
				if err := db.Insert(k, workload.Value(i, 48)); errors.Is(err, ErrExists) {
					err = db.Update(k, workload.Value(i, 48))
					if err != nil {
						t.Fatal(err)
					}
				} else if err != nil {
					t.Fatal(err)
				}
				maxHeld = max(maxHeld, perf(db, metrics.WALRetainedBytes))
				if since := perf(db, metrics.WALBytesSinceCheckpoint); since > interval+4096 {
					t.Fatalf("%d log bytes since the last checkpoint, interval %d", since, interval)
				}
			}
			if bound := 2*interval + unit; maxHeld > bound {
				t.Fatalf("log held peaked at %d bytes, bound %d", maxHeld, bound)
			}
			if auto := perf(db, metrics.CkptAuto); auto < 8 {
				t.Fatalf("ckpt.auto = %d after ten intervals of log", auto)
			}
			if failed := perf(db, metrics.CkptFailed); failed != 0 {
				t.Fatalf("ckpt.failed = %d", failed)
			}
			t.Logf("%s: %d log bytes, held at most %d, %d automatic checkpoints",
				backend, db.LogBytes(), maxHeld, perf(db, metrics.CkptAuto))
		})
	}
}

// TestAbortAcrossAutomaticCheckpoints opens a transaction, lets other
// clients' commits take several automatic checkpoints, then rolls the
// transaction back — by Abort, and as a loser after a crash. Its undo
// chain reaches back to its begin record, which every checkpoint's
// retention horizon must have kept.
func TestAbortAcrossAutomaticCheckpoints(t *testing.T) {
	for backend, open := range backendOpeners() {
		t.Run(backend, func(t *testing.T) {
			db := open(t, Options{})
			defer db.Close()
			db.log.SetCheckpointInterval(8 << 10)
			if err := workload.Load(db, 300, 48, "seq", 2); err != nil {
				t.Fatal(err)
			}
			next := 300
			// churn commits elsewhere until three more automatic checkpoints
			// have truncated the log.
			churn := func() {
				t.Helper()
				target := perf(db, metrics.CkptAuto) + 3
				for perf(db, metrics.CkptAuto) < target {
					if err := db.Insert(workload.Key(next), workload.Value(next, 48)); err != nil {
						t.Fatal(err)
					}
					next++
				}
			}
			// The transaction writes next to a low key; the churn appends
			// past the loaded keys and never needs its leaf.
			extra := func(key int) []byte { return append(workload.Key(key), '~') }
			long := func(key int) *Txn {
				t.Helper()
				tx := db.Begin()
				if err := tx.Insert(extra(key), []byte("uncommitted")); err != nil {
					t.Fatal(err)
				}
				if err := tx.Update(workload.Key(key), []byte("uncommitted")); err != nil {
					t.Fatal(err)
				}
				return tx
			}
			unchanged := func(key int) {
				t.Helper()
				if _, err := db.Get(extra(key)); !errors.Is(err, ErrNotFound) {
					t.Fatalf("rolled-back insert %d: %v", key, err)
				}
				if v, err := db.Get(workload.Key(key)); err != nil || !bytes.Equal(v, workload.Value(key, 48)) {
					t.Fatalf("rolled-back update %d: %q, %v", key, v, err)
				}
			}

			churn() // the log's base is off zero before the transaction begins
			tx := long(7)
			churn()
			if err := tx.Abort(); err != nil {
				t.Fatalf("Abort across automatic checkpoints: %v", err)
			}
			unchanged(7)

			_ = long(11) // never finished: a loser at restart
			churn()
			db.Crash()
			res, err := db.Restart()
			if err != nil {
				t.Fatalf("Restart: %v", err)
			}
			if res.LosersUndone != 1 {
				t.Fatalf("losers undone = %d, want 1", res.LosersUndone)
			}
			unchanged(11)
			if err := db.Check(); err != nil {
				t.Fatal(err)
			}
			for i := 300; i < next; i++ {
				if _, err := db.Get(workload.Key(i)); err != nil {
					t.Fatalf("acknowledged insert %d: %v", i, err)
				}
			}
		})
	}
}

// TestManualBesideAutomaticCheckpoints runs a manual checkpoint loop
// beside committers that take automatic checkpoints. Checkpoints are
// serialized, so the last checkpoint record in the log is always that of
// the last truncation: its redo point is never below the retained base,
// and a restart from it finds every acknowledged write.
func TestManualBesideAutomaticCheckpoints(t *testing.T) {
	for backend, open := range backendOpeners() {
		t.Run(backend, func(t *testing.T) {
			db := open(t, Options{})
			defer db.Close()
			db.log.SetCheckpointInterval(512)
			const clients = 2
			acked := make([]int, clients) // client c acknowledged keys c, c+clients, ... below acked[c]
			for round := 0; round < 3; round++ {
				stop := make(chan struct{})
				var wg sync.WaitGroup
				for c := 0; c < clients; c++ {
					wg.Add(1)
					go func(c int) {
						defer wg.Done()
						for {
							select {
							case <-stop:
								return
							default:
							}
							i := acked[c]*clients + c
							if err := db.Insert(workload.Key(i), workload.Value(i, 32)); err != nil {
								t.Errorf("client %d insert %d: %v", c, i, err)
								return
							}
							acked[c]++
						}
					}(c)
				}
				wg.Add(1)
				go func() {
					defer wg.Done()
					for {
						select {
						case <-stop:
							return
						default:
						}
						if err := db.Checkpoint(); err != nil {
							t.Errorf("Checkpoint: %v", err)
							return
						}
						time.Sleep(time.Millisecond) // room for the committers' own
					}
				}()
				time.Sleep(100 * time.Millisecond)
				close(stop)
				wg.Wait()
				if t.Failed() {
					return
				}
				_, cp, ok := db.log.LastCheckpoint()
				if !ok {
					t.Fatal("no checkpoint in the retained log")
				}
				if _, _, err := db.log.Read(cp.RedoLSN); err != nil {
					t.Fatalf("round %d: last checkpoint's redo point %d unreadable: %v", round, cp.RedoLSN, err)
				}
				db.Crash()
				if _, err := db.Restart(); err != nil {
					t.Fatalf("round %d: Restart: %v", round, err)
				}
				for c := range acked {
					for k := 0; k < acked[c]; k++ {
						if _, err := db.Get(workload.Key(k*clients + c)); err != nil {
							t.Fatalf("round %d: acknowledged key %d: %v", round, k*clients+c, err)
						}
					}
				}
			}
			if perf(db, metrics.CkptAuto) == 0 {
				t.Fatal("no automatic checkpoint ran beside the manual loop")
			}
		})
	}
}

// TestFailedAutomaticCheckpoint: an automatic checkpoint that fails
// (here: every page flush fails past the pager's retry budget) leaves
// the committing write acknowledged, is counted, keeps the log
// untruncated, and is retried — and succeeds — at the next crossing.
func TestFailedAutomaticCheckpoint(t *testing.T) {
	inj := fault.New(1)
	db, err := Open(Options{PageSize: 1024, FaultInjector: inj})
	if err != nil {
		t.Fatal(err)
	}
	defer func() {
		inj.Disarm()
		db.Close()
	}()
	const interval = 8 << 10
	db.log.SetCheckpointInterval(interval)
	inj.Arm(fault.PagerFlush, fault.Schedule{Kind: fault.KindError, OnHit: 1, MaxFires: 1 << 30})
	i := 0
	for perf(db, metrics.CkptFailed) < 2 {
		if err := db.Insert(workload.Key(i), workload.Value(i, 48)); err != nil {
			t.Fatalf("insert %d beside a failing checkpoint: %v", i, err)
		}
		i++
	}
	if auto := perf(db, metrics.CkptAuto); auto != 2 {
		t.Fatalf("ckpt.auto = %d with two failures, want 2 (one attempt per crossing)", auto)
	}
	if held := perf(db, metrics.WALRetainedBytes); held != db.LogBytes() {
		t.Fatalf("a failed checkpoint truncated the log: %d of %d bytes held", held, db.LogBytes())
	}
	inj.Disarm()
	for perf(db, metrics.CkptAuto) < 3 {
		if err := db.Insert(workload.Key(i), workload.Value(i, 48)); err != nil {
			t.Fatal(err)
		}
		i++
	}
	if failed := perf(db, metrics.CkptFailed); failed != 2 {
		t.Fatalf("ckpt.failed = %d after the retry, want 2", failed)
	}
	if held := perf(db, metrics.WALRetainedBytes); held > 2*interval {
		t.Fatalf("retry did not truncate: %d bytes held", held)
	}
	var ev []uint64
	for _, e := range db.TraceSnapshot() {
		if e.Type == obs.EvCheckpoint {
			ev = append(ev, e.B)
		}
	}
	if len(ev) == 0 || ev[len(ev)-1] == 0 {
		t.Fatalf("checkpoint trace events %v: the successful retry must report the bytes it truncated", ev)
	}
}
