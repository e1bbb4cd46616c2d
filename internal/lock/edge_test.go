package lock

import (
	"errors"
	"testing"
	"time"
)

// TestDowngradeWakesWaiters: releasing strength must re-scan the queue.
func TestDowngradeWakesWaiters(t *testing.T) {
	m := NewManager()
	res := PageRes(200)
	if err := m.Lock(1, res, X); err != nil {
		t.Fatal(err)
	}
	done := make(chan error, 1)
	go func() { done <- m.Lock(2, res, S) }()
	select {
	case <-done:
		t.Fatal("S granted under X")
	case <-time.After(20 * time.Millisecond):
	}
	// X -> IS: now compatible with the queued S.
	m.Downgrade(1, res, IS)
	if err := <-done; err != nil {
		t.Fatal(err)
	}
}

// TestForgoOnQueuedRX: the forgo protocol also triggers when the RX is
// still waiting in the queue (the reorganizer acquired the base R and
// is queued behind a reader on the leaf).
func TestForgoOnQueuedRX(t *testing.T) {
	m := NewManager()
	leaf := PageRes(201)
	if err := m.Lock(1, leaf, IS); err != nil { // record-locking reader
		t.Fatal(err)
	}
	// Reorganizer queues RX behind the IS.
	rxDone := make(chan error, 1)
	go func() { rxDone <- m.Lock(100, leaf, RX) }()
	time.Sleep(20 * time.Millisecond)
	// A second reader must forgo rather than queue behind the RX.
	err := m.LockOpts(2, leaf, S, Opt{ForgoOnRX: true})
	if !errors.Is(err, ErrReorgConflict) {
		t.Fatalf("err = %v, want ErrReorgConflict", err)
	}
	m.Unlock(1, leaf)
	if err := <-rxDone; err != nil {
		t.Fatal(err)
	}
}

// TestHeldResourcesSnapshot verifies the per-owner index.
func TestHeldResourcesSnapshot(t *testing.T) {
	m := NewManager()
	if err := m.Lock(1, PageRes(1), S); err != nil {
		t.Fatal(err)
	}
	if err := m.Lock(1, TreeRes(1), IX); err != nil {
		t.Fatal(err)
	}
	held := m.HeldResources(1)
	if len(held) != 2 || held[PageRes(1)] != S || held[TreeRes(1)] != IX {
		t.Errorf("held = %v", held)
	}
	m.ReleaseAll(1)
	if len(m.HeldResources(1)) != 0 {
		t.Error("locks remain after ReleaseAll")
	}
}

// TestReorganizerCouplingUpgrade: the reorganizer S-couples to a base
// page then takes R; the lattice must upgrade S -> R while a concurrent
// reader's S stays compatible.
func TestReorganizerCouplingUpgrade(t *testing.T) {
	m := NewManager()
	base := PageRes(202)
	if err := m.Lock(1, base, S); err != nil { // concurrent reader
		t.Fatal(err)
	}
	if err := m.Lock(100, base, S); err != nil { // reorganizer couples
		t.Fatal(err)
	}
	if err := m.Lock(100, base, R); err != nil { // and takes R
		t.Fatal(err)
	}
	if got := m.Held(100, base); got != R {
		t.Errorf("reorganizer holds %v, want R", got)
	}
	// Reader's S coexists with R; an updater's X must wait.
	blocked := make(chan error, 1)
	go func() { blocked <- m.Lock(2, base, X) }()
	select {
	case <-blocked:
		t.Fatal("X granted under R+S")
	case <-time.After(20 * time.Millisecond):
	}
	m.Unlock(1, base)
	m.Unlock(100, base)
	if err := <-blocked; err != nil {
		t.Fatal(err)
	}
}

// TestInstantRSNotGrantedEver: even when it must wait, RS never appears
// as a holder afterwards.
func TestInstantRSNotGrantedEver(t *testing.T) {
	m := NewManager()
	base := PageRes(203)
	if err := m.Lock(100, base, R); err != nil {
		t.Fatal(err)
	}
	done := make(chan error, 1)
	go func() { done <- m.LockInstant(1, base, RS) }()
	time.Sleep(20 * time.Millisecond)
	m.Unlock(100, base)
	if err := <-done; err != nil {
		t.Fatal(err)
	}
	if got := m.Held(1, base); got != None {
		t.Errorf("RS left a holder: %v", got)
	}
	// The resource must be fully free.
	if err := m.Lock(3, base, X); err != nil {
		t.Fatal(err)
	}
}

// TestUpgradeThatConflictsLessWakesQueue: the lattice's supremum of IS
// and R is R, which conflicts with less than IS does. An owner whose IS
// blocks a queued R and who then asks for R itself is granted at once;
// the queued R is compatible with the new mode and must be granted too,
// not left for the watchdog.
func TestUpgradeThatConflictsLessWakesQueue(t *testing.T) {
	m := NewManager()
	m.Timeout = time.Second
	base := PageRes(204)
	if err := m.Lock(1, base, IS); err != nil {
		t.Fatal(err)
	}
	done := make(chan error, 1)
	go func() { done <- m.Lock(2, base, R) }()
	time.Sleep(20 * time.Millisecond)
	if err := m.Lock(1, base, R); err != nil {
		t.Fatal(err)
	}
	if err := <-done; err != nil {
		t.Fatalf("queued R: %v", err)
	}
}
