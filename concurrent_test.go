package repro

import (
	"fmt"
	"math/rand"
	"runtime"
	"sync"
	"testing"
	"time"

	"repro/internal/workload"
)

// TestStressConcurrentOpsDuringReorganize hammers the sharded hot path
// from explicit Get/Insert/Delete/Scan goroutines while a full
// three-pass Reorganize runs, with a bounded buffer pool so CLOCK
// eviction, careful-write flushes and the loading protocol all fire
// concurrently. Its real assertions are the race detector (CI runs it
// with -race) plus tree invariants and key presence afterwards.
func TestStressConcurrentOpsDuringReorganize(t *testing.T) {
	db, err := Open(Options{PageSize: 1024, BufferPoolPages: 64})
	if err != nil {
		t.Fatal(err)
	}
	const n = 2000
	if err := workload.Load(db, n, 24, "random", 7); err != nil {
		t.Fatal(err)
	}
	if _, err := workload.Sparsify(db, n, 0.3); err != nil {
		t.Fatal(err)
	}

	stop := make(chan struct{})
	errc := make(chan error, 16)
	var wg sync.WaitGroup
	worker := func(id int, fn func(rng *rand.Rand) error) {
		defer wg.Done()
		rng := rand.New(rand.NewSource(int64(id)*101 + 5))
		for {
			select {
			case <-stop:
				return
			default:
			}
			if err := fn(rng); err != nil {
				select {
				case errc <- err:
				default:
				}
				return
			}
		}
	}

	// Readers: point gets over the loaded key space (missing keys are
	// expected after sparsification).
	for i := 0; i < 3; i++ {
		wg.Add(1)
		go worker(i, func(rng *rand.Rand) error {
			_, err := db.Get(workload.Key(rng.Intn(n)))
			if err != nil && IsRetryable(err) {
				return err
			}
			return nil // ErrNotFound is fine
		})
	}
	// Writers: inserts of fresh keys, deletes of earlier fresh inserts.
	var freshMu sync.Mutex
	fresh := []int{}
	next := n + 1_000_000
	for i := 0; i < 2; i++ {
		wg.Add(1)
		go worker(10+i, func(rng *rand.Rand) error {
			freshMu.Lock()
			next++
			id := next
			fresh = append(fresh, id)
			freshMu.Unlock()
			return db.Insert(workload.Key(id), workload.Value(id, 24))
		})
	}
	wg.Add(1)
	go worker(20, func(rng *rand.Rand) error {
		freshMu.Lock()
		var id int
		if len(fresh) > 4 {
			id, fresh = fresh[0], fresh[1:]
		}
		freshMu.Unlock()
		if id == 0 {
			time.Sleep(100 * time.Microsecond)
			return nil
		}
		err := db.Delete(workload.Key(id))
		if err != nil && IsRetryable(err) {
			return err
		}
		return nil // a not-yet-visible or reorganized-away key is fine
	})
	// Scanner: short range scans.
	wg.Add(1)
	go worker(30, func(rng *rand.Rand) error {
		lo := rng.Intn(n)
		count := 0
		return db.Scan(workload.Key(lo), workload.Key(lo+50),
			func(_, _ []byte) bool { count++; return count < 50 })
	})

	if _, err := db.Reorganize(DefaultReorgConfig()); err != nil {
		close(stop)
		waitOrDump(t, &wg, 30*time.Second)
		t.Fatalf("reorganize under load: %v", err)
	}
	time.Sleep(50 * time.Millisecond) // keep traffic running post-switch
	close(stop)
	waitOrDump(t, &wg, 30*time.Second)
	select {
	case err := <-errc:
		t.Fatalf("worker: %v", err)
	default:
	}
	if err := db.Check(); err != nil {
		t.Fatal(err)
	}
	// Every fresh key not deleted must be present.
	freshMu.Lock()
	remaining := append([]int(nil), fresh...)
	freshMu.Unlock()
	for _, id := range remaining {
		if _, err := db.Get(workload.Key(id)); err != nil {
			t.Fatalf("fresh key %d lost: %v", id, err)
		}
	}
}

// waitOrDump waits for wg, failing the test with every goroutine's
// stack if that takes longer than d: a worker wedged on a lock shows
// where it waits, instead of the run hitting go test's timeout.
func waitOrDump(t *testing.T, wg *sync.WaitGroup, d time.Duration) {
	t.Helper()
	done := make(chan struct{})
	go func() {
		wg.Wait()
		close(done)
	}()
	select {
	case <-done:
	case <-time.After(d):
		buf := make([]byte, 1<<22)
		buf = buf[:runtime.Stack(buf, true)]
		t.Fatalf("workers still running %v after stop:\n%s", d, buf)
	}
}

// TestGroupCommitCoalescesAndIsDurable commits K transactions
// concurrently and asserts (a) every commit's force is accounted for,
// performed or saved by riding another commit's sync, and (b) every
// committed key survives Crash()/Restart(), i.e. riding another
// leader's forced write still means durable.
func TestGroupCommitCoalescesAndIsDurable(t *testing.T) {
	db, err := Open(Options{PageSize: 1024})
	if err != nil {
		t.Fatal(err)
	}
	const K = 16
	forcesBefore := db.log.ForcedWrites()

	start := make(chan struct{})
	errs := make([]error, K)
	var wg sync.WaitGroup
	for i := 0; i < K; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			<-start
			errs[i] = db.Insert([]byte(fmt.Sprintf("gc-key-%02d", i)),
				[]byte(fmt.Sprintf("gc-val-%02d", i)))
		}(i)
	}
	close(start)
	wg.Wait()
	for i, err := range errs {
		if err != nil {
			t.Fatalf("insert %d: %v", i, err)
		}
	}

	forces := db.log.ForcedWrites() - forcesBefore
	if saved := db.log.ForcesSaved(); forces+saved < K {
		t.Errorf("accounting: %d forces + %d saved < %d commits", forces, saved, K)
	}
	t.Logf("%d commits -> %d forced writes (%d saved)", K, forces, db.log.ForcesSaved())

	// A commit that coalesced must still be durable.
	db.Crash()
	if _, err := db.Restart(); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < K; i++ {
		v, err := db.Get([]byte(fmt.Sprintf("gc-key-%02d", i)))
		if err != nil {
			t.Fatalf("key %d lost after crash: %v", i, err)
		}
		if want := fmt.Sprintf("gc-val-%02d", i); string(v) != want {
			t.Fatalf("key %d = %q, want %q", i, v, want)
		}
	}
}
