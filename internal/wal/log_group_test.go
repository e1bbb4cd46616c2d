package wal

import (
	"sync"
	"testing"
)

// TestGroupForceCoalesces has K goroutines append a record each and
// force it: every record must be durable and the saved/performed
// accounting must cover all K requests. The first force's sync is held
// until the other K-1 requests wait on it, so they coalesce on every
// device and schedule: one force, K-1 saved. (Without the stall a request
// whose record an earlier force already made durable counts as neither.)
func TestGroupForceCoalesces(t *testing.T) {
	eachDevice(t, func(t *testing.T, l *Log) {
		const K = 12
		entered, release := stallFirstSync(l)
		var appended, done sync.WaitGroup
		appended.Add(K)
		errs := make([]error, K)
		for i := 0; i < K; i++ {
			done.Add(1)
			go func(i int) {
				defer done.Done()
				lsn := l.Append(TxnCommit{Txn: uint64(i + 1)})
				appended.Done()
				appended.Wait()
				errs[i] = l.FlushTo(lsn)
			}(i)
		}
		<-entered
		awaitWaiters(t, l, K-1)
		release(false)
		done.Wait()
		for i, err := range errs {
			if err != nil {
				t.Fatalf("FlushTo %d: %v", i, err)
			}
		}

		if f, s := l.ForcedWrites(), l.ForcesSaved(); f != 1 || s != K-1 {
			t.Errorf("forces %d, saved %d for %d requests; want 1 and %d", f, s, K, K-1)
		}
		// Every record must be durable: Crash keeps the flushed prefix.
		l.Crash()
		seen := map[uint64]bool{}
		if err := l.Iterate(1, func(_ LSN, r Record) error {
			if c, ok := r.(TxnCommit); ok {
				seen[c.Txn] = true
			}
			return nil
		}); err != nil {
			t.Fatal(err)
		}
		for i := 1; i <= K; i++ {
			if !seen[uint64(i)] {
				t.Errorf("commit %d not durable after coalesced force", i)
			}
		}
		t.Logf("%d requests -> %d forces, %d saved, %d bytes forced",
			K, l.ForcedWrites(), l.ForcesSaved(), l.BytesForced())
	})
}

// TestFlushToSingleThreadedUnchanged pins the single-caller semantics
// group commit must not disturb: double flush of the same LSN is one
// force, flush beyond the tail errors, LSN 0 is a no-op.
func TestFlushToSingleThreadedUnchanged(t *testing.T) {
	l := NewLog()
	if err := l.FlushTo(0); err != nil {
		t.Fatal(err)
	}
	lsn := l.Append(TxnCommit{Txn: 1})
	if err := l.FlushTo(lsn); err != nil {
		t.Fatal(err)
	}
	if err := l.FlushTo(lsn); err != nil {
		t.Fatal(err)
	}
	if got := l.ForcedWrites(); got != 1 {
		t.Errorf("forced writes = %d, want 1 (second flush already durable)", got)
	}
	if err := l.FlushTo(l.Tail() + 100); err == nil {
		t.Error("flush beyond tail did not error")
	}
}
