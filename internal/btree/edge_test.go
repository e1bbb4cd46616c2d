package btree

import (
	"bytes"
	"errors"
	"testing"

	"repro/internal/kv"
	"repro/internal/lock"
)

// TestUpdateGrowingValueAcrossSplit: replacing a value with a much
// larger one on a full page must escalate to the split path and keep
// every record.
func TestUpdateGrowingValueAcrossSplit(t *testing.T) {
	e := newEnv(t, 1024)
	for i := 0; i < 200; i++ {
		e.put(t, i)
	}
	big := bytes.Repeat([]byte{'G'}, 150)
	for i := 0; i < 200; i += 3 {
		tx := e.txns.Begin()
		if err := e.tree.Update(tx, key(i), big); err != nil {
			t.Fatalf("grow %d: %v", i, err)
		}
		if err := e.tree.Commit(tx); err != nil {
			t.Fatal(err)
		}
	}
	if err := e.tree.Check(); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 200; i++ {
		v, ok := e.get(t, i)
		if !ok {
			t.Fatalf("record %d lost", i)
		}
		if i%3 == 0 {
			if !bytes.Equal(v, big) {
				t.Fatalf("record %d not grown", i)
			}
		} else if !bytes.Equal(v, val(i)) {
			t.Fatalf("record %d corrupted", i)
		}
	}
}

// TestEmptyTreeOperations: lookups, scans and deletes on a fresh tree.
func TestEmptyTreeOperations(t *testing.T) {
	e := newEnv(t, 512)
	if _, ok := e.get(t, 1); ok {
		t.Error("found record in empty tree")
	}
	tx := e.txns.Begin()
	if err := e.tree.Delete(tx, key(1)); !errors.Is(err, kv.ErrNotFound) {
		t.Errorf("delete on empty tree: %v", err)
	}
	n, err := e.tree.Count(tx, nil, nil)
	if err != nil || n != 0 {
		t.Errorf("count = %d, %v", n, err)
	}
	if err := e.tree.Abort(tx); err != nil {
		t.Fatal(err)
	}
	if err := e.tree.Check(); err != nil {
		t.Fatal(err)
	}
}

// TestScanWithNilBounds covers open-ended scans in both directions.
func TestScanWithNilBounds(t *testing.T) {
	e := newEnv(t, 512)
	for i := 0; i < 50; i++ {
		e.put(t, i)
	}
	tx := e.txns.Begin()
	defer func() { _ = e.tree.Commit(tx) }()
	n, err := e.tree.Count(tx, nil, nil)
	if err != nil || n != 50 {
		t.Fatalf("full count = %d, %v", n, err)
	}
	n, err = e.tree.Count(tx, nil, key(24))
	if err != nil || n != 25 {
		t.Fatalf("half count = %d, %v", n, err)
	}
}

// TestRepeatedDeleteInsertCycles stresses free-at-empty and page reuse.
func TestRepeatedDeleteInsertCycles(t *testing.T) {
	e := newEnv(t, 512)
	for cycle := 0; cycle < 5; cycle++ {
		for i := 0; i < 300; i++ {
			e.put(t, i)
		}
		if err := e.tree.Check(); err != nil {
			t.Fatalf("cycle %d after inserts: %v", cycle, err)
		}
		for i := 0; i < 300; i++ {
			e.del(t, i)
		}
		if err := e.tree.Check(); err != nil {
			t.Fatalf("cycle %d after deletes: %v", cycle, err)
		}
		s, _ := e.tree.GatherStats()
		if s.Records != 0 {
			t.Fatalf("cycle %d left %d records", cycle, s.Records)
		}
	}
	// Page reuse should keep the disk extent bounded.
	if hw := e.pager.FreeMap().HighWater(); hw > 200 {
		t.Errorf("high water %d after 5 cycles: pages are leaking", hw)
	}
}

// TestGetNextBaseAfterAllKeys: NextBase walks every base exactly once
// and returns nil past the last one.
func TestGetNextBaseAfterAllKeys(t *testing.T) {
	e := newEnv(t, 512)
	for i := 0; i < 400; i++ {
		e.put(t, i)
	}
	h := e.tree.NewHold(e.txns.NextOwnerID())
	defer h.Release()
	base, err := e.tree.DescendToBase(&h, 0, nil, lock.S)
	if err != nil {
		t.Fatal(err)
	}
	steps := 0
	for base != nil {
		base.RLock()
		lowMark := append([]byte(nil), kv.SlotKey(base.Data(), 0)...)
		base.RUnlock()
		h.Drop(base)
		base, err = e.tree.NextBase(&h, 0, lowMark, lock.S)
		if err != nil {
			t.Fatal(err)
		}
		steps++
		if steps > 1000 {
			t.Fatal("NextBase did not terminate")
		}
	}
	if steps < 2 {
		t.Skip("tree too small for multiple bases")
	}
}
