package repro

import (
	"fmt"
	"sync"
	"testing"
	"time"

	"repro/internal/invariant"
	"repro/internal/wal"
	"repro/internal/workload"
)

// logSince returns the records appended since tail and the bytes they
// took in the log (payload plus the 4-byte length prefix each).
func logSince(t *testing.T, db *DB, tail wal.LSN, bytes0 int64) ([]wal.Record, int64) {
	t.Helper()
	var recs []wal.Record
	if err := db.log.Iterate(tail, func(_ wal.LSN, r wal.Record) error {
		recs = append(recs, r)
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	return recs, db.log.BytesAppended() - bytes0
}

// TestAutoCommitLogAccounting pins, on a fresh in-memory database with
// the benchmark's key and value sizes (12-byte keys, 48-byte values),
// exactly what each kind of write appends to the log. An auto-commit
// Update, Insert or Delete is one committed record; an explicit
// transaction's updates chain from PrevLSN 0 with no begin record and
// end in a commit record; a delete that empties its leaf keeps the
// chained record, its before-image and its commit record, because its
// deferred free runs at commit and can still fail.
func TestAutoCommitLogAccounting(t *testing.T) {
	db, err := Open(Options{PageSize: 4096})
	if err != nil {
		t.Fatal(err)
	}
	defer db.Close()
	val := func(i, gen int) []byte { return workload.Value(i+gen, 48) }
	for i := 1; i <= 200; i++ {
		if err := db.Insert(workload.Key(i), val(i, 0)); err != nil {
			t.Fatal(err)
		}
	}

	type step struct {
		name  string
		run   func() error
		bytes int64
		check func(recs []wal.Record) error
	}
	committed := func(op wal.Op) func([]wal.Record) error {
		return func(recs []wal.Record) error {
			if len(recs) != 1 {
				return fmt.Errorf("%d records, want 1", len(recs))
			}
			u, ok := recs[0].(wal.Update)
			if !ok || !u.Committed || u.Op != op || u.PrevLSN != 0 || len(u.OldVal) != 0 {
				return fmt.Errorf("record %#v, want a committed %v with no PrevLSN or before-image", recs[0], op)
			}
			return nil
		}
	}
	for _, s := range []step{
		// Committed replace: type 1 + txn 2 + page 1 + op 1 + key 13 +
		// value 49 = 67, plus the 4-byte prefix. With a begin record
		// (7), a chained update carrying a 3-byte PrevLSN and the
		// before-image (123) and a commit record (10) it was 140 bytes
		// in three records; the insert and the delete were 92 each.
		{"update", func() error { return db.Update(workload.Key(7), val(7, 1)) }, 71,
			committed(wal.OpReplace)},
		{"insert", func() error { return db.Insert(workload.Key(1000), val(1000, 0)) }, 71,
			committed(wal.OpInsert)},
		// Committed delete: 1 + 2 + 1 + 1 + 13 + an empty value 1 = 19.
		{"delete", func() error { return db.Delete(workload.Key(8)) }, 23,
			committed(wal.OpDelete)},
		// Three chained updates (the first 121 bytes with PrevLSN 0, the
		// next two 122 with a 2-byte PrevLSN) and a 9-byte commit: 9
		// bytes fewer than with a begin record, which also made the
		// first PrevLSN 3 bytes. The load's splits logged their cells
		// until log format 5, which put these LSNs past 2^14 and made
		// each later PrevLSN 3 bytes (377).
		{"explicit 3-update transaction", func() error {
			tx := db.Begin()
			for _, k := range []int{10, 11, 12} {
				if err := tx.Update(workload.Key(k), val(k, 1)); err != nil {
					return err
				}
			}
			return tx.Commit()
		}, 374, func(recs []wal.Record) error {
			if len(recs) != 4 {
				return fmt.Errorf("%d records, want 3 updates and a commit", len(recs))
			}
			var prev wal.LSN
			for i, r := range recs[:3] {
				u, ok := r.(wal.Update)
				if !ok || u.Committed || len(u.OldVal) == 0 {
					return fmt.Errorf("record %d is %#v, want a chained update", i, r)
				}
				if i == 0 && u.PrevLSN != 0 || i > 0 && u.PrevLSN <= prev {
					return fmt.Errorf("update %d has PrevLSN %d: the chain must start at 0", i, u.PrevLSN)
				}
				prev = u.PrevLSN
			}
			if _, ok := recs[3].(wal.TxnCommit); !ok {
				return fmt.Errorf("last record %#v, want the commit", recs[3])
			}
			return nil
		}},
	} {
		tail, bytes0 := db.log.Tail(), db.log.BytesAppended()
		if err := s.run(); err != nil {
			t.Fatalf("%s: %v", s.name, err)
		}
		recs, n := logSince(t, db, tail, bytes0)
		if err := s.check(recs); err != nil {
			t.Errorf("%s: %v", s.name, err)
		}
		if n != s.bytes {
			t.Errorf("%s: %d log bytes, want %d", s.name, n, s.bytes)
		}
	}

	// A leaf that holds one record: the delete that empties it is a
	// chained update (with its before-image), the free the commit runs,
	// and the commit record.
	single, err := Open(Options{PageSize: 4096})
	if err != nil {
		t.Fatal(err)
	}
	defer single.Close()
	if err := single.Insert(workload.Key(1), val(1, 0)); err != nil {
		t.Fatal(err)
	}
	tail, bytes0 := single.log.Tail(), single.log.BytesAppended()
	if err := single.Delete(workload.Key(1)); err != nil {
		t.Fatal(err)
	}
	recs, _ := logSince(t, single, tail, bytes0)
	if n := len(recs); n < 2 {
		t.Fatalf("leaf-emptying delete logged %d records, want a chained update and a commit", n)
	}
	if u, ok := recs[0].(wal.Update); !ok || u.Committed || u.Op != wal.OpDelete || u.PrevLSN != 0 ||
		string(u.OldVal) != string(val(1, 0)) {
		t.Errorf("leaf-emptying delete logged %#v first, want a chained delete with its before-image", recs[0])
	}
	if _, ok := recs[len(recs)-1].(wal.TxnCommit); !ok {
		t.Errorf("leaf-emptying delete ended with %#v, want its commit record", recs[len(recs)-1])
	}
}

// TestAutoCommitUpdateAllocs pins the allocations of one auto-commit
// Update on the in-memory backend. Logging it as a committed record
// drops the before-image copy: 3 allocations per call before, 2 now.
func TestAutoCommitUpdateAllocs(t *testing.T) {
	if invariant.Enabled {
		t.Skip("the invariants build tracks every lock and latch it takes")
	}
	db, err := Open(Options{PageSize: 4096})
	if err != nil {
		t.Fatal(err)
	}
	defer db.Close()
	key, val := workload.Key(1), workload.Value(1, 48)
	if err := db.Insert(key, val); err != nil {
		t.Fatal(err)
	}
	allocs := testing.AllocsPerRun(1000, func() {
		if err := db.Update(key, val); err != nil {
			t.Fatal(err)
		}
	})
	const want = 2
	if allocs > want {
		t.Errorf("auto-commit Update allocates %.1f times per call, want at most %d", allocs, want)
	}
}

// committedTxns returns the ids of the transactions the log holds as
// committed records, and the largest transaction id any record carries.
func committedTxns(t *testing.T, db *DB) (map[uint64]bool, uint64) {
	t.Helper()
	ids := map[uint64]bool{}
	var max uint64
	if err := db.log.Iterate(1, func(_ wal.LSN, r wal.Record) error {
		var id uint64
		switch v := r.(type) {
		case wal.Update:
			id = v.Txn
			if v.Committed {
				ids[v.Txn] = true
			}
		case wal.CLR:
			id = v.Txn
		case wal.TxnCommit:
			id = v.Txn
		case wal.TxnAbort:
			id = v.Txn
		case wal.TxnEnd:
			id = v.Txn
		}
		if id > max {
			max = id
		}
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	return ids, max
}

// TestCommittedRecordRestart crashes after auto-commit writes. A
// committed record that was forced is redone and never undone; one that
// was appended but not forced is lost with the log tail, and with it
// the write (the WAL rule kept its page off the disk). Restart hands
// out transaction ids above every id in the log, including ids that
// appear only in committed records.
func TestCommittedRecordRestart(t *testing.T) {
	for name, open := range backendOpeners() {
		t.Run(name, func(t *testing.T) {
			db := open(t, Options{})
			defer db.Close()
			key := workload.Key(5)
			old, forced, lost := workload.Value(5, 48), workload.Value(6, 48), workload.Value(7, 48)
			for i := 1; i <= 50; i++ {
				if err := db.Insert(workload.Key(i), old); err != nil {
					t.Fatal(err)
				}
			}
			// The checkpoint's NextTxnID is below every id logged after it.
			if err := db.Checkpoint(); err != nil {
				t.Fatal(err)
			}
			_, cp, _ := db.log.LastCheckpoint()
			for i := 0; i < 40; i++ {
				if err := db.Update(key, old); err != nil {
					t.Fatal(err)
				}
			}
			if err := db.Update(key, forced); err != nil {
				t.Fatal(err)
			}
			// Logged as a committed record, never forced.
			tx := db.txns.Begin()
			tx.MarkSingleRecord()
			if err := db.tree.Update(tx, workload.Key(9), lost); err != nil {
				t.Fatal(err)
			}
			if ids, _ := committedTxns(t, db); !ids[tx.ID()] {
				t.Fatalf("txn %d's update is not a committed record", tx.ID())
			}

			db.Crash()
			res, err := db.Restart()
			if err != nil {
				t.Fatal(err)
			}
			if res.LosersUndone != 0 {
				t.Errorf("restart undid %d losers; a committed record is never one", res.LosersUndone)
			}
			if got, err := db.Get(key); err != nil || string(got) != string(forced) {
				t.Errorf("forced committed write: Get = %.20q, %v; want %.20q", got, err, forced)
			}
			if got, err := db.Get(workload.Key(9)); err != nil || string(got) != string(old) {
				t.Errorf("unforced committed write: Get = %.20q, %v; want the old %.20q", got, err, old)
			}
			// The ids logged after the checkpoint are in committed records
			// only.
			_, logged := committedTxns(t, db)
			if logged < cp.NextTxnID {
				t.Fatalf("the retained log's largest txn id is %d, below the checkpoint's next id %d", logged, cp.NextTxnID)
			}
			if res.NextTxnID <= logged {
				t.Errorf("NextTxnID %d after restart, the log holds txn %d", res.NextTxnID, logged)
			}
		})
	}
}

// TestCommittedRecordsBesideCheckpoints takes checkpoints in a loop
// beside auto-commit writers whose every write is one committed record.
// Such a transaction is committed the moment its record is appended and
// is never registered as active, so no checkpoint may list it: a listed
// one would be rolled back at restart as a loser. Every checkpoint must
// therefore have an empty transaction table, and after a crash every
// acknowledged write must be there.
func TestCommittedRecordsBesideCheckpoints(t *testing.T) {
	for name, open := range backendOpeners() {
		t.Run(name, func(t *testing.T) {
			db := open(t, Options{BufferPoolPages: 64})
			defer db.Close()
			const clients, keysPer = 2, 150
			acked := make([]map[int]int, clients)
			for c := range acked {
				acked[c] = map[int]int{}
			}
			val := func(key, version int) []byte {
				return []byte(fmt.Sprintf("k%06d-v%06d-%s", key, version, workload.Value(key, 24)))
			}
			stop := make(chan struct{})
			var wg sync.WaitGroup
			for c := 0; c < clients; c++ {
				wg.Add(1)
				go func(c int) {
					defer wg.Done()
					for i := 0; ; i++ {
						select {
						case <-stop:
							return
						default:
						}
						key := c + clients*(i%keysPer)
						version, exists := acked[c][key]
						var err error
						if exists {
							err = db.Update(workload.Key(key), val(key, version+1))
						} else {
							err = db.Insert(workload.Key(key), val(key, version+1))
						}
						if err != nil {
							t.Errorf("client %d key %d: %v", c, key, err)
							return
						}
						acked[c][key] = version + 1
					}
				}(c)
			}
			checkpoints := 0
			wg.Add(1)
			go func() {
				defer wg.Done()
				for {
					select {
					case <-stop:
						return
					default:
					}
					if active, _ := db.txns.ActiveSnapshot(); len(active) != 0 {
						t.Errorf("active-transaction snapshot lists %v beside auto-commit writers", active)
						return
					}
					if err := db.Checkpoint(); err != nil {
						t.Errorf("Checkpoint: %v", err)
						return
					}
					if _, cp, ok := db.log.LastCheckpoint(); !ok || len(cp.ActiveTxns) != 0 {
						t.Errorf("checkpoint lists %v beside auto-commit writers", cp.ActiveTxns)
						return
					}
					checkpoints++
				}
			}()
			time.Sleep(150 * time.Millisecond)
			close(stop)
			wg.Wait()
			if t.Failed() {
				return
			}
			if checkpoints == 0 {
				t.Fatal("no checkpoint completed beside the writers")
			}

			db.Crash()
			res, err := db.Restart()
			if err != nil {
				t.Fatal(err)
			}
			if res.LosersUndone != 0 {
				t.Errorf("restart undid %d losers after auto-commit writes only", res.LosersUndone)
			}
			if err := db.Check(); err != nil {
				t.Fatal(err)
			}
			for c := range acked {
				for key, version := range acked[c] {
					got, err := db.Get(workload.Key(key))
					if err != nil || string(got) != string(val(key, version)) {
						t.Fatalf("key %d = %.18q, %v; last acknowledged %.18q", key, got, err, val(key, version))
					}
				}
			}
		})
	}
}
