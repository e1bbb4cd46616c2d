package wal

import (
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/fault"
)

// eachDevice runs fn against a fresh log on the in-memory and on the
// file device.
func eachDevice(t *testing.T, fn func(t *testing.T, l *Log)) {
	t.Run("mem", func(t *testing.T) { fn(t, NewLog()) })
	t.Run("file", func(t *testing.T) {
		l := openSeg(t, t.TempDir(), SegmentOptions{})
		defer l.Close()
		fn(t, l)
	})
}

// stallFirstSync makes the first device sync after the call block,
// between the write and the sync, until the returned release function
// is called; entered is closed once that sync is stalled. abort makes
// the stalled sync die with a crash panic instead of running.
func stallFirstSync(l *Log) (entered chan struct{}, release func(abort bool)) {
	entered = make(chan struct{})
	gate := make(chan bool)
	var used atomic.Bool
	l.mu.Lock()
	l.syncStall = func() {
		if used.Swap(true) {
			return
		}
		close(entered)
		if <-gate {
			panic(&fault.Crash{Point: fault.WALForce})
		}
	}
	l.mu.Unlock()
	return entered, func(abort bool) { gate <- abort }
}

// awaitWaiters blocks until n goroutines wait on the log's condition.
func awaitWaiters(t *testing.T, l *Log, n int) {
	t.Helper()
	deadline := time.Now().Add(10 * time.Second)
	for {
		l.mu.Lock()
		w := l.waiters
		l.mu.Unlock()
		if w == n {
			return
		}
		if time.Now().After(deadline) {
			t.Fatalf("%d goroutines waiting on the log, want %d", w, n)
		}
		time.Sleep(50 * time.Microsecond)
	}
}

// TestForceDoesNotHoldMutexAcrossSync stalls a committer's device sync
// and checks what the rest of the system sees meanwhile: appends and
// the accessors return at once, and a second committer whose record the
// first one wrote waits for that sync instead of forcing again.
func TestForceDoesNotHoldMutexAcrossSync(t *testing.T) {
	eachDevice(t, func(t *testing.T, l *Log) {
		fsyncs0 := l.Fsyncs()
		a := l.Append(TxnCommit{Txn: 1})
		b := l.Append(TxnCommit{Txn: 2})
		entered, release := stallFirstSync(l)
		errs := make(chan error, 2)
		go func() { errs <- l.FlushTo(a) }()
		<-entered

		// The slowest of these would be the whole stall if the mutex were
		// held; the fastest of five is what a mutex handoff costs.
		var c LSN
		best := time.Hour
		for i := 0; i < 5; i++ {
			t0 := time.Now()
			c = l.Append(TxnCommit{Txn: uint64(10 + i)})
			if d := l.DurableLSN(); d >= a {
				t.Fatalf("DurableLSN = %d during the stall, want below %d", d, a)
			}
			l.Tail()
			l.Fsyncs()
			l.SegmentCounts()
			if _, _, err := l.Read(a); err != nil {
				t.Fatalf("Read during the stall: %v", err)
			}
			best = min(best, time.Since(t0))
		}
		if best > time.Millisecond {
			t.Errorf("append + accessors took %v beside a stalled sync, want < 1ms", best)
		}

		go func() { errs <- l.FlushTo(b) }()
		awaitWaiters(t, l, 1)
		release(false)
		for i := 0; i < 2; i++ {
			if err := <-errs; err != nil {
				t.Fatalf("FlushTo: %v", err)
			}
		}
		if f, s := l.ForcedWrites(), l.ForcesSaved(); f != 1 || s != 1 {
			t.Errorf("forced writes %d, saved %d; want 1 and 1", f, s)
		}
		if l.seg != nil {
			if n := l.Fsyncs() - fsyncs0; n != 1 {
				t.Errorf("%d fsyncs for two commits sharing a sync, want 1", n)
			}
		}
		if d := l.DurableLSN(); d < b || d >= c {
			t.Errorf("DurableLSN = %d, want it to cover %d and not %d (appended after the write)", d, b, c)
		}
	})
}

// TestConcurrentCommittersShareSyncs runs 8 closed-loop committers on
// the file device, with the sync slowed to a spinning disk's so that
// groups form on any file system: fewer fsyncs than commits, every
// force accounted for, every acknowledged record there after a crash.
func TestConcurrentCommittersShareSyncs(t *testing.T) {
	l := openSeg(t, t.TempDir(), SegmentOptions{SegmentBytes: 4096})
	defer l.Close()
	l.syncStall = func() { time.Sleep(200 * time.Microsecond) }
	fsyncs0 := l.Fsyncs()
	const committers, each = 8, 40
	var wg sync.WaitGroup
	for g := 0; g < committers; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < each; i++ {
				id := uint64(g*each + i + 1)
				prev := l.Append(Update{Txn: id, Page: 1, Op: OpInsert, Key: []byte("k")})
				if err := l.FlushTo(l.Append(TxnCommit{Txn: id, PrevLSN: prev})); err != nil {
					t.Errorf("FlushTo: %v", err)
					return
				}
			}
		}(g)
	}
	wg.Wait()
	created, _, _ := l.SegmentCounts()
	// A rotation costs two fsyncs that no commit asked for.
	fsyncs := l.Fsyncs() - fsyncs0 - 2*(created-1)
	if fsyncs >= committers*each {
		t.Errorf("%d fsyncs for %d commits, want fewer", fsyncs, committers*each)
	}
	// (A commit whose record was durable before it asked is neither a
	// force nor a saved one, so the two need not add up to the commits.)
	if l.ForcesSaved() == 0 {
		t.Errorf("no commit waited for another one's sync")
	}
	l.Crash()
	seen := 0
	if err := l.Iterate(1, func(_ LSN, r Record) error {
		if _, ok := r.(TxnCommit); ok {
			seen++
		}
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	if seen != committers*each {
		t.Errorf("%d commits after the crash, want %d", seen, committers*each)
	}
	t.Logf("%d commits -> %d forces, %d saved, %d fsyncs, %d segments",
		committers*each, l.ForcedWrites(), l.ForcesSaved(), fsyncs, created)
}

// TestCrashBetweenWriteAndSync lands a crash while one committer sits
// between its write and its sync. What was acknowledged before is
// there afterwards; the committer's own record was never acknowledged
// and the device decides: the in-memory device never had it, the file
// device's page cache still does.
func TestCrashBetweenWriteAndSync(t *testing.T) {
	eachDevice(t, func(t *testing.T, l *Log) {
		l.Append(TxnCommit{Txn: 1})
		acked := l.Append(TxnCommit{Txn: 1})
		if err := l.FlushTo(acked); err != nil {
			t.Fatal(err)
		}
		entered, release := stallFirstSync(l)
		inDoubt := l.Append(TxnCommit{Txn: 2})
		died := make(chan any)
		go func() {
			defer func() { died <- recover() }()
			_ = l.FlushTo(inDoubt)
		}()
		<-entered
		unwritten := l.Append(TxnCommit{Txn: 3})
		release(true)
		if _, ok := (<-died).(*fault.Crash); !ok {
			t.Fatal("stalled committer did not die with the crash")
		}
		l.Crash()

		got := map[LSN]bool{}
		if err := l.Iterate(1, func(lsn LSN, _ Record) error { got[lsn] = true; return nil }); err != nil {
			t.Fatal(err)
		}
		if !got[acked] {
			t.Errorf("acknowledged commit at LSN %d lost", acked)
		}
		if want := l.seg != nil; got[inDoubt] != want {
			t.Errorf("written-but-unsynced record present = %v, want %v on this device", got[inDoubt], want)
		}
		if got[unwritten] {
			t.Errorf("record at LSN %d was never written and survived", unwritten)
		}
		// The crash left no sync count behind: the log forces again.
		if err := l.FlushTo(l.Append(TxnCommit{Txn: 4})); err != nil {
			t.Fatalf("FlushTo after the crash: %v", err)
		}
	})
}
