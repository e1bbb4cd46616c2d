package lock

import (
	"errors"
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

// TestTable1Compatibility is experiment E1: it pins the lock
// compatibility matrix to the paper's Table 1 (prose-constrained cells)
// and to the conservative fill of the blank cells documented in
// DESIGN.md.
func TestTable1Compatibility(t *testing.T) {
	type row struct {
		granted Mode
		want    map[Mode]bool // requested -> compatible
	}
	rows := []row{
		{IS, map[Mode]bool{IS: true, IX: true, S: true, X: false, R: false, RX: false, RS: true}},
		{IX, map[Mode]bool{IS: true, IX: true, S: false, X: false, R: false, RX: false, RS: true}},
		{S, map[Mode]bool{IS: true, IX: false, S: true, X: false, R: true, RX: false, RS: false}},
		{X, map[Mode]bool{IS: false, IX: false, S: false, X: false, R: false, RX: false, RS: false}},
		{R, map[Mode]bool{IS: false, IX: false, S: true, X: false, R: true, RX: false, RS: false}},
		{RX, map[Mode]bool{IS: false, IX: false, S: false, X: false, R: false, RX: false, RS: false}},
	}
	for _, r := range rows {
		for req, want := range r.want {
			if got := Compatible(r.granted, req); got != want {
				t.Errorf("Compatible(%v, %v) = %v, want %v", r.granted, req, got, want)
			}
		}
	}
	// Paper prose invariants, stated directly:
	if !Compatible(R, S) || !Compatible(S, R) {
		t.Error("R must be compatible with S in both directions")
	}
	if Compatible(R, RS) {
		t.Error("RS must not be compatible with R")
	}
	for _, g := range []Mode{IS, IX, S, X, R, RX} {
		if Compatible(g, RX) || Compatible(RX, g) {
			t.Errorf("RX must conflict with %v", g)
		}
	}
}

func TestCoversAndCombine(t *testing.T) {
	if !Covers(X, S) || !Covers(S, S) || !Covers(R, S) {
		t.Error("stronger modes must cover weaker requests")
	}
	if Covers(S, X) || Covers(R, X) || Covers(IS, S) {
		t.Error("weaker modes must not cover stronger requests")
	}
	if combine(S, X) != X || combine(R, X) != X || combine(IS, IX) != IX {
		t.Error("combine lattice wrong")
	}
	if combine(S, R) != R || combine(R, S) != R {
		t.Error("combine(S,R) should be R")
	}
}

func TestBasicLockUnlock(t *testing.T) {
	m := NewManager()
	res := PageRes(7)
	if err := m.Lock(1, res, S); err != nil {
		t.Fatal(err)
	}
	if err := m.Lock(2, res, S); err != nil {
		t.Fatal(err) // S+S compatible
	}
	if got := m.Held(1, res); got != S {
		t.Errorf("Held = %v", got)
	}
	m.Unlock(1, res)
	m.Unlock(2, res)
	if got := m.Held(1, res); got != None {
		t.Errorf("after unlock Held = %v", got)
	}
}

func TestConflictBlocksUntilRelease(t *testing.T) {
	m := NewManager()
	res := PageRes(1)
	if err := m.Lock(1, res, X); err != nil {
		t.Fatal(err)
	}
	done := make(chan error, 1)
	go func() { done <- m.Lock(2, res, S) }()
	select {
	case err := <-done:
		t.Fatalf("S granted while X held: %v", err)
	case <-time.After(30 * time.Millisecond):
	}
	m.Unlock(1, res)
	if err := <-done; err != nil {
		t.Fatal(err)
	}
}

func TestReentrantAndCoveredRequests(t *testing.T) {
	m := NewManager()
	res := PageRes(2)
	if err := m.Lock(1, res, X); err != nil {
		t.Fatal(err)
	}
	if err := m.Lock(1, res, S); err != nil {
		t.Fatal(err) // covered by X
	}
	if err := m.Lock(1, res, X); err != nil {
		t.Fatal(err) // re-request
	}
	if got := m.Held(1, res); got != X {
		t.Errorf("Held = %v", got)
	}
}

func TestUpgradeSToX(t *testing.T) {
	m := NewManager()
	res := PageRes(3)
	if err := m.Lock(1, res, S); err != nil {
		t.Fatal(err)
	}
	if err := m.Lock(2, res, S); err != nil {
		t.Fatal(err)
	}
	done := make(chan error, 1)
	go func() { done <- m.Lock(1, res, X) }()
	select {
	case <-done:
		t.Fatal("upgrade granted while another S holder exists")
	case <-time.After(30 * time.Millisecond):
	}
	m.Unlock(2, res)
	if err := <-done; err != nil {
		t.Fatal(err)
	}
	if got := m.Held(1, res); got != X {
		t.Errorf("after upgrade Held = %v", got)
	}
}

func TestUpgradeJumpsQueue(t *testing.T) {
	m := NewManager()
	res := PageRes(4)
	if err := m.Lock(1, res, S); err != nil {
		t.Fatal(err)
	}
	// Owner 2 queues for X (blocked by owner 1's S).
	blocked := make(chan error, 1)
	go func() { blocked <- m.Lock(2, res, X) }()
	time.Sleep(20 * time.Millisecond)
	// Owner 1 upgrades to X: must jump ahead of owner 2 and be granted
	// the moment it is compatible (it already holds the only lock).
	if err := m.Lock(1, res, X); err != nil {
		t.Fatal(err)
	}
	m.Unlock(1, res)
	if err := <-blocked; err != nil {
		t.Fatal(err)
	}
}

// TestReorganizerProtocolRXForgo verifies §4.1.2: a reader hitting an
// RX lock forgoes, then waits with an instant-duration RS on the base
// page, and proceeds after the reorganizer releases.
func TestReorganizerProtocolRXForgo(t *testing.T) {
	m := NewManager()
	reorg, reader := uint64(100), uint64(1)
	m.SetReorg(reorg, true)
	base, leaf := PageRes(10), PageRes(20)

	// Reorganizer: R on base, RX on leaf.
	if err := m.Lock(reorg, base, R); err != nil {
		t.Fatal(err)
	}
	if err := m.Lock(reorg, leaf, RX); err != nil {
		t.Fatal(err)
	}

	// Reader holds S on base (compatible with R), then hits the leaf.
	if err := m.Lock(reader, base, S); err != nil {
		t.Fatal(err)
	}
	err := m.LockOpts(reader, leaf, S, Opt{ForgoOnRX: true})
	if !errors.Is(err, ErrReorgConflict) {
		t.Fatalf("leaf S error = %v, want ErrReorgConflict", err)
	}
	// Forgo: release base S, request instant RS on base.
	m.Unlock(reader, base)
	rsDone := make(chan error, 1)
	go func() { rsDone <- m.LockInstant(reader, base, RS) }()
	select {
	case <-rsDone:
		t.Fatal("instant RS granted while reorganizer holds R")
	case <-time.After(30 * time.Millisecond):
	}

	// Reorganizer finishes: upgrade base R->X (modify keys), release.
	if err := m.Lock(reorg, base, X); err != nil {
		t.Fatal(err)
	}
	m.Unlock(reorg, leaf)
	m.Unlock(reorg, base)

	if err := <-rsDone; err != nil {
		t.Fatal(err)
	}
	// RS was instant: nothing held; reader re-requests S then the leaf.
	if got := m.Held(reader, base); got != None {
		t.Errorf("instant RS left a held lock: %v", got)
	}
	if err := m.Lock(reader, base, S); err != nil {
		t.Fatal(err)
	}
	if err := m.LockOpts(reader, leaf, S, Opt{ForgoOnRX: true}); err != nil {
		t.Fatal(err)
	}
	if m.Stats().Forgoes.Load() == 0 {
		t.Error("forgo counter not incremented")
	}
}

// TestRSWaitsForUpgradedX: the instant RS must also wait while the
// reorganizer holds the upgraded X on the base page.
func TestRSWaitsForUpgradedX(t *testing.T) {
	m := NewManager()
	base := PageRes(11)
	if err := m.Lock(100, base, R); err != nil {
		t.Fatal(err)
	}
	if err := m.Lock(100, base, X); err != nil { // upgrade
		t.Fatal(err)
	}
	done := make(chan error, 1)
	go func() { done <- m.LockInstant(1, base, RS) }()
	select {
	case <-done:
		t.Fatal("RS granted while upgraded X held")
	case <-time.After(30 * time.Millisecond):
	}
	m.Unlock(100, base)
	if err := <-done; err != nil {
		t.Fatal(err)
	}
}

// TestDeadlockVictimIsReorganizer reproduces the §4.1 scenario: the
// reorganizer and a reader block each other; the reorganizer must be
// chosen as the victim.
func TestDeadlockVictimIsReorganizer(t *testing.T) {
	m := NewManager()
	reorg, reader := uint64(100), uint64(1)
	m.SetReorg(reorg, true)
	a, b := PageRes(30), PageRes(31)

	if err := m.Lock(reader, a, S); err != nil { // reader has A
		t.Fatal(err)
	}
	if err := m.Lock(reorg, b, RX); err != nil { // reorganizer has B
		t.Fatal(err)
	}
	// Reader blocks on B (ordinary wait — e.g. side-pointer X case).
	readerDone := make(chan error, 1)
	go func() { readerDone <- m.Lock(reader, b, S) }()
	time.Sleep(20 * time.Millisecond)
	// Reorganizer blocks on A -> cycle -> reorganizer is the victim.
	err := m.Lock(reorg, a, RX)
	if !errors.Is(err, ErrDeadlock) {
		t.Fatalf("reorganizer lock error = %v, want ErrDeadlock", err)
	}
	// Reorganizer gives up its locks; reader proceeds.
	m.ReleaseAll(reorg)
	if err := <-readerDone; err != nil {
		t.Fatal(err)
	}
	if m.Stats().Deadlocks.Load() != 1 {
		t.Errorf("deadlocks = %d, want 1", m.Stats().Deadlocks.Load())
	}
}

func TestDeadlockAmongUsersPicksYoungest(t *testing.T) {
	m := NewManager()
	a, b := PageRes(40), PageRes(41)
	if err := m.Lock(1, a, X); err != nil {
		t.Fatal(err)
	}
	if err := m.Lock(2, b, X); err != nil {
		t.Fatal(err)
	}
	oldDone := make(chan error, 1)
	go func() { oldDone <- m.Lock(1, b, X) }()
	time.Sleep(20 * time.Millisecond)
	err := m.Lock(2, a, X) // youngest (2) blocks, forming the cycle
	if !errors.Is(err, ErrDeadlock) {
		t.Fatalf("err = %v, want deadlock for owner 2", err)
	}
	m.ReleaseAll(2)
	if err := <-oldDone; err != nil {
		t.Fatal(err)
	}
}

func TestDeadlockSparesAbortingOwner(t *testing.T) {
	// Owner 2 is younger (would normally be the victim) but is rolling
	// back: the detector must victimise the forward-running owner 1
	// instead, so the rollback's undo descent can finish and release
	// the locks it holds.
	m := NewManager()
	a, b := PageRes(60), PageRes(61)
	if err := m.Lock(1, a, X); err != nil {
		t.Fatal(err)
	}
	if err := m.Lock(2, b, X); err != nil {
		t.Fatal(err)
	}
	m.SetAborting(2, true)
	abortDone := make(chan error, 1)
	go func() { abortDone <- m.Lock(2, a, S) }() // undo descent wait
	time.Sleep(20 * time.Millisecond)
	err := m.Lock(1, b, X) // forward op closes the cycle
	if !errors.Is(err, ErrDeadlock) {
		t.Fatalf("forward owner lock error = %v, want ErrDeadlock", err)
	}
	m.ReleaseAll(1)
	if err := <-abortDone; err != nil {
		t.Fatalf("aborting owner's wait = %v, want grant", err)
	}
	m.ReleaseAll(2)
	// ReleaseAll clears the flag: owner 2 is victimisable again.
	if flagged(&m.aborting, 2) {
		t.Error("aborting flag survived ReleaseAll")
	}
}

func TestReleaseAllWakesWaiters(t *testing.T) {
	m := NewManager()
	res1, res2 := PageRes(50), PageRes(51)
	if err := m.Lock(1, res1, X); err != nil {
		t.Fatal(err)
	}
	if err := m.Lock(1, res2, X); err != nil {
		t.Fatal(err)
	}
	// One waiter per resource, each its own owner: an owner's calls come
	// from one goroutine at a time.
	var wg sync.WaitGroup
	errs := make(chan error, 2)
	for i, r := range []Resource{res1, res2} {
		wg.Add(1)
		go func(owner uint64, r Resource) {
			defer wg.Done()
			errs <- m.Lock(owner, r, S)
		}(uint64(2+i), r)
	}
	time.Sleep(20 * time.Millisecond)
	m.ReleaseAll(1)
	wg.Wait()
	close(errs)
	for err := range errs {
		if err != nil {
			t.Fatal(err)
		}
	}
	if len(m.HeldResources(1)) != 0 {
		t.Error("ReleaseAll left locks")
	}
}

func TestNoWaitOption(t *testing.T) {
	m := NewManager()
	res := PageRes(60)
	if err := m.Lock(1, res, X); err != nil {
		t.Fatal(err)
	}
	err := m.LockOpts(2, res, S, Opt{NoWait: true})
	if !errors.Is(err, ErrWouldBlock) {
		t.Fatalf("err = %v, want ErrWouldBlock", err)
	}
}

func TestInstantLockGrantedImmediatelyWhenFree(t *testing.T) {
	m := NewManager()
	res := PageRes(61)
	if err := m.LockInstant(1, res, RS); err != nil {
		t.Fatal(err)
	}
	if got := m.Held(1, res); got != None {
		t.Errorf("instant lock held: %v", got)
	}
}

// TestFIFOOrdering: strict FIFO means a queued X blocks later S
// requests until served, preventing writer starvation.
func TestFIFOOrdering(t *testing.T) {
	m := NewManager()
	res := PageRes(70)
	if err := m.Lock(1, res, S); err != nil {
		t.Fatal(err)
	}
	xDone := make(chan error, 1)
	go func() { xDone <- m.Lock(2, res, X) }()
	time.Sleep(20 * time.Millisecond)
	sDone := make(chan error, 1)
	go func() { sDone <- m.Lock(3, res, S) }()
	select {
	case <-sDone:
		t.Fatal("later S overtook queued X")
	case <-time.After(30 * time.Millisecond):
	}
	m.Unlock(1, res)
	if err := <-xDone; err != nil {
		t.Fatal(err)
	}
	m.Unlock(2, res)
	if err := <-sDone; err != nil {
		t.Fatal(err)
	}
}

func TestWaitTimeoutWatchdog(t *testing.T) {
	m := NewManager()
	m.Timeout = 50 * time.Millisecond
	res := PageRes(80)
	if err := m.Lock(1, res, X); err != nil {
		t.Fatal(err)
	}
	err := m.Lock(2, res, X)
	if !errors.Is(err, ErrTimeout) {
		t.Fatalf("err = %v, want ErrTimeout", err)
	}
	// The timed-out waiter must be gone: unlocking should leave the
	// resource free for a third owner.
	m.Unlock(1, res)
	if err := m.Lock(3, res, X); err != nil {
		t.Fatal(err)
	}
}

// TestConcurrentStress hammers the manager with many goroutines and
// verifies mutual exclusion of X locks via a protected counter.
func TestConcurrentStress(t *testing.T) {
	m := NewManager()
	res := PageRes(90)
	var counter, max int64
	var mu sync.Mutex
	var wg sync.WaitGroup
	for i := 0; i < 16; i++ {
		wg.Add(1)
		go func(owner uint64) {
			defer wg.Done()
			for j := 0; j < 50; j++ {
				if err := m.Lock(owner, res, X); err != nil {
					t.Errorf("lock: %v", err)
					return
				}
				mu.Lock()
				counter++
				if counter > max {
					max = counter
				}
				mu.Unlock()
				mu.Lock()
				counter--
				mu.Unlock()
				m.Unlock(owner, res)
			}
		}(uint64(i + 1))
	}
	wg.Wait()
	if max > 1 {
		t.Errorf("X mutual exclusion violated: max concurrent = %d", max)
	}
}

func BenchmarkLockManager(b *testing.B) {
	m := NewManager()
	res := PageRes(1)
	b.RunParallel(func(pb *testing.PB) {
		owner := uint64(time.Now().UnixNano())
		for pb.Next() {
			if err := m.Lock(owner, res, S); err != nil {
				b.Fatal(err)
			}
			m.Unlock(owner, res)
		}
	})
}

// BenchmarkGetLockPath replays a point Get's lock calls on a tree whose
// root is at level 2 (TestLockTripsPerOp's Get): tree IS, root S, an
// S-couple to the base page, an IS-couple to the leaf, record S and
// ReleaseAll. Each op is a fresh owner, as each Get is a fresh
// transaction. The goroutines share the tree and the root and each
// takes its own base page, leaf and records, so the only conflicts are
// on the manager's own state: run it at -cpu 1,2 to see whether a
// second client adds throughput.
func BenchmarkGetLockPath(b *testing.B) {
	m := NewManager()
	var owners, workers atomic.Uint64
	tree, root := TreeRes(1), PageRes(1)
	b.RunParallel(func(pb *testing.PB) {
		g := workers.Add(1)
		base, leaf := PageRes(1000+g), PageRes(1000000+g)
		for i := uint64(0); pb.Next(); i++ {
			owner := owners.Add(1)
			err := m.Lock(owner, tree, IS)
			if err == nil {
				err = m.Lock(owner, root, S)
			}
			if err == nil {
				err = m.Couple(owner, base, S, Opt{}, root, None)
			}
			if err == nil {
				err = m.Couple(owner, leaf, IS, Opt{}, base, None)
			}
			if err == nil {
				err = m.Lock(owner, RecordRes(g<<32|i&0xffff), S)
			}
			m.ReleaseAll(owner)
			if err != nil {
				b.Error(err)
				return
			}
		}
	})
}
