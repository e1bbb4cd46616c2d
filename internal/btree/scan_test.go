package btree

import (
	"errors"
	"testing"
	"time"

	"repro/internal/lock"
	"repro/internal/storage"
)

// firstTwoLeaves returns the ids of the leftmost leaf and its right
// neighbour.
func firstTwoLeaves(t *testing.T, e *env) (first, second storage.PageID) {
	t.Helper()
	tx := e.txns.Begin()
	h := e.tree.NewHold(tx.ID())
	leaf, err := e.tree.descendToLeaf(&h, key(0), lock.IS, nil)
	if err != nil {
		t.Fatal(err)
	}
	leaf.RLock()
	first, second = leaf.ID(), leaf.Data().Next()
	leaf.RUnlock()
	h.Release()
	if err := e.tree.Commit(tx); err != nil {
		t.Fatal(err)
	}
	if second == storage.InvalidPage {
		t.Fatal("tree has a single leaf")
	}
	return first, second
}

// TestScanForgoWaitsForReorganizer forces the interleaving behind
// "btree: scan did not terminate": a compaction unit holds RX on the
// scan's next leaf and then asks for X on that leaf's predecessor — the
// leaf the scan has just finished and keeps IS-locked until end of
// transaction. The scan must wait in the lock manager (so the cycle is
// detected and the reorganizer, never the reader, is the victim) rather
// than burn its hop budget re-seeking into the same RX lock.
func TestScanForgoWaitsForReorganizer(t *testing.T) {
	e := newEnv(t, 512)
	const n = 100
	for i := 0; i < n; i++ {
		e.put(t, i)
	}
	first, second := firstTwoLeaves(t, e)

	const reorg = uint64(1) << 40
	e.locks.SetReorg(reorg, true)
	if err := e.locks.Lock(reorg, pageRes(second), lock.RX); err != nil {
		t.Fatal(err)
	}

	var got []string
	scanDone := make(chan error, 1)
	go func() {
		tx := e.txns.Begin()
		err := e.tree.Scan(tx, nil, nil, func(k, _ []byte) bool {
			got = append(got, string(k))
			return true
		})
		if err != nil {
			_ = e.tree.Abort(tx)
		} else {
			err = e.tree.Commit(tx)
		}
		scanDone <- err
	}()

	deadline := time.Now().Add(30 * time.Second)
	for e.locks.Stats().Forgoes.Load() == 0 {
		if time.Now().After(deadline) {
			t.Fatal("scan never reached the RX-locked leaf")
		}
		time.Sleep(100 * time.Microsecond)
	}

	err := e.locks.Lock(reorg, pageRes(first), lock.X)
	if !errors.Is(err, lock.ErrDeadlock) {
		t.Errorf("reorganizer's predecessor lock: got %v, want ErrDeadlock (the scan must be waiting, not spinning)", err)
	}
	e.locks.ReleaseAll(reorg) // the aborted unit backs off

	if err := <-scanDone; err != nil {
		t.Fatalf("scan: %v", err)
	}
	if len(got) != n {
		t.Fatalf("scan returned %d records, want %d", len(got), n)
	}
	for i, k := range got {
		if k != string(key(i)) {
			t.Fatalf("scan[%d] = %q, want %q", i, k, key(i))
		}
	}
}

// TestScanCallbackAppendIsolated checks the callback contract: key and
// val alias the scan's buffer only up to their own ends, so an append
// to either inside fn changes neither the other field nor the next row.
// It also starts between two stored keys, where the first leaf's
// search must land on the next one.
func TestScanCallbackAppendIsolated(t *testing.T) {
	e := newEnv(t, 512)
	const n = 200
	for i := 0; i < n; i++ {
		e.put(t, i)
	}
	tx := e.txns.Begin()
	i := 51
	err := e.tree.Scan(tx, append(key(50), 'x'), nil, func(k, v []byte) bool {
		if string(k) != string(key(i)) || string(v) != string(val(i)) {
			t.Fatalf("row %d: got (%q, %q)", i, k, v)
		}
		k2 := append(k, "-clobber"...)
		if string(v) != string(val(i)) {
			t.Fatalf("row %d: append to key changed value to %q", i, v)
		}
		_ = append(v, "-clobber"...)
		k2[0] = '!'
		if string(k) != string(key(i)) {
			t.Fatalf("row %d: append to key wrote into it: %q", i, k)
		}
		i++
		return true
	})
	if err != nil {
		t.Fatal(err)
	}
	if i != n {
		t.Fatalf("scan stopped at row %d, want %d", i, n)
	}
	if err := e.tree.Commit(tx); err != nil {
		t.Fatal(err)
	}
}
