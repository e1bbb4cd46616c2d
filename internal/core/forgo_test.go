package core

import (
	"fmt"
	"sync"
	"testing"
	"time"

	"repro/internal/kv"
	"repro/internal/lock"
	"repro/internal/metrics"
	"repro/internal/storage"
)

// leafFirstKey returns a copy of the first record key stored on a leaf.
func leafFirstKey(t *testing.T, e *env, id storage.PageID) []byte {
	t.Helper()
	f, err := e.pager.Fix(id)
	if err != nil {
		t.Fatal(err)
	}
	defer e.pager.Unfix(f)
	f.RLock()
	defer f.RUnlock()
	if f.Data().NumSlots() == 0 {
		t.Fatalf("leaf %d is empty", id)
	}
	return append([]byte(nil), kv.SlotKey(f.Data(), 0)...)
}

// TestForgoAndWaitReaderDuringCompaction pins the full forgo-and-wait
// sequence end to end (§4.1, Table 1): a reader whose descent hits an
// RX-locked leaf forgoes the leaf lock (Forgoes counter), issues an
// instant-duration RS request on the parent base page, stays parked
// while the reorganizer holds R there, and completes with the correct
// value once the unit finishes.
func TestForgoAndWaitReaderDuringCompaction(t *testing.T) {
	e := newEnv(t, 1024)
	makeSparse(t, e, 2000, 6)

	entered := make(chan struct{})
	release := make(chan struct{})
	var once sync.Once
	r := New(e.tree, Config{SwapPass: false, InternalPass: false,
		OnEvent: func(stage string) error {
			if stage == "compact.begin" {
				once.Do(func() {
					close(entered)
					<-release
				})
			}
			return nil
		}})

	done := make(chan error, 1)
	go func() { done <- r.CompactLeaves() }()
	<-entered

	// Parked at compact.begin the reorganizer holds R on the base and
	// RX on the unit's leaves. Pick a record inside an RX-locked leaf
	// (the fresh destination page has no records yet and is skipped).
	var target []byte
	for res, mode := range e.locks.HeldResources(r.owner) {
		if mode != lock.RX || res.Space != lock.SpacePage {
			continue
		}
		f, err := e.pager.Fix(storage.PageID(res.ID))
		if err != nil {
			t.Fatal(err)
		}
		f.RLock()
		if f.Data().NumSlots() > 0 {
			target = append([]byte(nil), kv.SlotKey(f.Data(), 0)...)
		}
		f.RUnlock()
		e.pager.Unfix(f)
		if target != nil {
			break
		}
	}
	if target == nil {
		t.Fatal("no populated RX-locked leaf while parked at compact.begin")
	}
	var ki int
	if _, err := fmt.Sscanf(string(target), "key%06d", &ki); err != nil {
		t.Fatalf("unparseable leaf key %q: %v", target, err)
	}

	forgoesBefore := e.locks.Stats().Forgoes.Load()
	readerDone := make(chan error, 1)
	var got []byte
	go func() {
		tx := e.txns.Begin()
		v, ok, err := e.tree.Get(tx, target)
		if err != nil {
			_ = e.tree.Abort(tx)
			readerDone <- err
			return
		}
		if !ok {
			_ = e.tree.Abort(tx)
			readerDone <- fmt.Errorf("record %q not found", target)
			return
		}
		got = v
		readerDone <- e.tree.Commit(tx)
	}()

	// The reader must forgo and park on the base's RS request, not
	// complete while the unit is in flight.
	select {
	case err := <-readerDone:
		t.Fatalf("reader completed through an RX-locked leaf: %v", err)
	case <-time.After(80 * time.Millisecond):
	}
	if e.locks.Stats().Forgoes.Load() <= forgoesBefore {
		t.Fatal("reader is blocked but never forwent the RX-locked leaf")
	}

	close(release)
	if err := <-readerDone; err != nil {
		t.Fatalf("reader after reorganizer released: %v", err)
	}
	if string(got) != string(val(ki)) {
		t.Fatalf("reader saw %q for record %d, want %q", got, ki, val(ki))
	}
	if err := <-done; err != nil {
		t.Fatal(err)
	}
	checkRecords(t, e, sparsePresent(6), 2000)
}

// TestForgoDeadlockVictimIsReorganizerEndToEnd builds the paper's §5.2
// cycle through the real descent path: a user transaction holds X on a
// leaf the reorganizer wants, then reads from a leaf the reorganizer
// has RX-locked (forgo, then RS-wait on the base the reorganizer holds
// R on). The deadlock detector must always victimise the reorganizer —
// the user transaction completes undisturbed and the reorganizer's
// unit is undone and retried.
func TestForgoDeadlockVictimIsReorganizerEndToEnd(t *testing.T) {
	e := newEnv(t, 1024)
	makeSparse(t, e, 2000, 6)

	r := New(e.tree, Config{SwapPass: false, InternalPass: false})
	h := e.tree.NewHold(r.owner)
	leaves, err := r.collectLeaves(&h)
	h.Release()
	if err != nil {
		t.Fatal(err)
	}
	if len(leaves) < 3 {
		t.Fatalf("only %d leaves; need several to form a unit", len(leaves))
	}
	leaf1 := leaves[0].Leaf
	k1 := leafFirstKey(t, e, leaf1)

	// Park an uncommitted X on leaf2 by inserting a key routed there.
	txA := e.txns.Begin()
	hot := append(append([]byte(nil), leaves[1].Key...), 'a')
	if err := e.tree.Insert(txA, hot, []byte("parked")); err != nil {
		t.Fatal(err)
	}

	done := make(chan error, 1)
	go func() { done <- r.CompactLeaves() }()

	// Wait for the reorganizer to RX-lock leaf1; it then blocks on
	// leaf2 (either grouping it or chain-locking it as a neighbour).
	deadline := time.Now().Add(5 * time.Second)
	for e.locks.Held(r.owner, pageRes(leaf1)) != lock.RX {
		if time.Now().After(deadline) {
			t.Fatal("reorganizer never RX-locked the first leaf")
		}
		time.Sleep(time.Millisecond)
	}

	// Close the cycle from the same transaction. The user side must
	// never see ErrDeadlock.
	v, ok, err := e.tree.Get(txA, k1)
	if err != nil {
		t.Fatalf("user transaction aborted in the cycle: %v", err)
	}
	if !ok {
		t.Fatalf("record %q vanished during compaction", k1)
	}
	var ki int
	if _, serr := fmt.Sscanf(string(k1), "key%06d", &ki); serr == nil {
		if string(v) != string(val(ki)) {
			t.Fatalf("record %d read %q, want %q", ki, v, val(ki))
		}
	}
	if err := e.tree.Commit(txA); err != nil {
		t.Fatal(err)
	}
	if err := <-done; err != nil {
		t.Fatal(err)
	}

	if n := r.Metrics().Get(metrics.UnitsDeadlocked); n == 0 {
		t.Fatal("cycle resolved without victimising the reorganizer")
	}
	if err := e.tree.Check(); err != nil {
		t.Fatal(err)
	}
	tx := e.txns.Begin()
	v, ok, err = e.tree.Get(tx, hot)
	if err != nil || !ok || string(v) != "parked" {
		t.Fatalf("parked insert lost after reorg: %q %v %v", v, ok, err)
	}
	if err := e.tree.Commit(tx); err != nil {
		t.Fatal(err)
	}
}
