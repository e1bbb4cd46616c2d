package wal

import (
	"sync"
	"testing"
)

// TestGroupForceCoalesces has K goroutines append a record each and
// force it: every record must be durable and the saved/performed
// accounting must cover all K requests. (That a force rides a sync in
// flight is pinned by TestConcurrentCommittersShareSyncs.)
func TestGroupForceCoalesces(t *testing.T) {
	l := NewLog()

	const K = 12
	var wg sync.WaitGroup
	errs := make([]error, K)
	start := make(chan struct{})
	for i := 0; i < K; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			<-start
			lsn := l.Append(TxnCommit{Txn: uint64(i + 1)})
			errs[i] = l.FlushTo(lsn)
		}(i)
	}
	close(start)
	wg.Wait()
	for i, err := range errs {
		if err != nil {
			t.Fatalf("FlushTo %d: %v", i, err)
		}
	}

	if f, s := l.ForcedWrites(), l.ForcesSaved(); f+s < K {
		t.Errorf("forces %d + saved %d < %d requests", f, s, K)
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
}

// TestFlushToSingleThreadedUnchanged pins the single-caller semantics
// group commit must not disturb: double flush of the same LSN is one
// force, flush beyond the tail errors, LSN 0 is a no-op.
func TestFlushToSingleThreadedUnchanged(t *testing.T) {
	l := NewLog()
	if err := l.FlushTo(0); err != nil {
		t.Fatal(err)
	}
	lsn := l.Append(TxnBegin{Txn: 1})
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
