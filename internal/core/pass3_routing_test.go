package core

import (
	"testing"

	"repro/internal/btree"
	"repro/internal/kv"
	"repro/internal/storage"
)

// firstLeafBelowEntry loads the even keys below 1600 into 512-byte
// pages and frees the first leaf of the third base page, so that the
// base's first entry, now the second leaf's, is stored above the base's
// low routing bound. A key of the freed range then arrives: the
// leftmost-child rule routes it to that leaf, below its entry key. It
// returns the keys of the freed range, all absent now but for the one
// inserted, and the leaf's entry key.
func firstLeafBelowEntry(t *testing.T, e *env) (gap []int, entryKey []byte) {
	t.Helper()
	for i := 0; i < 800; i++ {
		e.put(t, 2*i)
	}
	root, _ := e.tree.Root()
	var bases [][][]byte
	err := btree.Walk(e.pager, root, func(n *btree.Node) (btree.Step, error) {
		if n.Level > 1 {
			return btree.Descend, nil
		}
		var keys [][]byte
		for i := 0; i < n.Page.NumSlots(); i++ {
			keys = append(keys, append([]byte(nil), kv.SlotKey(n.Page, i)...))
		}
		bases = append(bases, keys)
		return btree.SkipChildren, nil
	})
	if err != nil || len(bases) < 4 || len(bases[2]) < 3 {
		t.Fatalf("want four base pages, the third with three entries: %v", err)
	}
	k0, k1 := bases[2][0], bases[2][1]
	for i := 0; i < 1600; i++ {
		if kv.Compare(key(i), k0) >= 0 && kv.Compare(key(i), k1) < 0 {
			gap = append(gap, i)
			if i%2 == 0 {
				e.del(t, i)
			}
		}
	}
	e.put(t, gap[len(gap)-1])
	if err := e.tree.Check(); err != nil {
		t.Fatalf("before pass 3: %v", err)
	}
	return gap, k1
}

// TestPass3FirstLeafBelowItsEntry: a base's first leaf holds keys below
// its stored entry key, which the old tree never routes by. Pass 3 must
// not post that key as the leaf's separator in the new tree, or the
// keys below it are routed to the leaf before (ROADMAP item 23's
// "bounds: first key below separator").
func TestPass3FirstLeafBelowItsEntry(t *testing.T) {
	e := newEnv(t, 512)
	gap, _ := firstLeafBelowEntry(t, e)
	if err := New(e.tree, DefaultConfig()).RebuildInternal(); err != nil {
		t.Fatal(err)
	}
	if err := e.tree.Check(); err != nil {
		t.Fatalf("after pass 3: %v", err)
	}
	last := gap[len(gap)-1]
	checkRecords(t, e, func(i int) bool { return i%2 == 0 && (i < gap[0] || i > last) || i == last }, 1600)
}

// TestPass3SideFileLowersFirstEntry: the same leaf splits after pass 3
// read its base, lowering the entry it is stored under. The side file
// carries the entry's delete under the stored key, which the new tree
// does not hold (pass 3 handed the leaf under its base's low bound):
// the delete must still find the leaf's entry, and the tree after the
// switch must hold every key. The keys arriving stop short of the base's
// low bound, so the leaf's lowered entry differs from the one pass 3
// handed.
func TestPass3SideFileLowersFirstEntry(t *testing.T) {
	e := newEnv(t, 512)
	gap, entryKey := firstLeafBelowEntry(t, e)
	bases, split := 0, false
	cfg := DefaultConfig()
	cfg.OnEvent = func(stage string) error {
		if stage != "pass3.base" {
			return nil
		}
		if bases++; bases == 3 {
			for _, i := range gap[1 : len(gap)-1] {
				e.put(t, i)
			}
			split = true
		}
		return nil
	}
	r := New(e.tree, cfg)
	if err := r.RebuildInternal(); err != nil {
		t.Fatal(err)
	}
	if !split {
		t.Fatal("pass 3 read fewer than three bases")
	}
	if n := r.Metrics().Get("pass3.side.applied"); n < 2 {
		t.Fatalf("%d side-file entries applied, want the split's lowered entry and separator", n)
	}
	if err := e.tree.Check(); err != nil {
		t.Fatalf("after pass 3: %v", err)
	}
	if kv.Compare(key(gap[0]), entryKey) >= 0 {
		t.Fatalf("freed range starts at %q, not below the entry key %q", key(gap[0]), entryKey)
	}
	checkRecords(t, e, func(i int) bool {
		return i%2 == 0 && i < gap[0] || i > gap[0] && i <= gap[len(gap)-1] || i%2 == 0 && i > gap[len(gap)-1] && i < 1600
	}, 1600)
}

// TestPass3SideFileEmptiesNewBase: every leaf of a wide key range goes
// after pass 3 read it, so the side file's deletes empty whole base
// pages of the new tree. Each emptied page leaves its parent and is
// freed, as free-at-empty does in the old tree: no empty internal page
// in the switched tree (ROADMAP item 23's "empty-internal") and none
// left unreachable.
func TestPass3SideFileEmptiesNewBase(t *testing.T) {
	e := newEnv(t, 512)
	for i := 0; i < 1600; i++ {
		e.put(t, i)
	}
	bases := 0
	cfg := DefaultConfig()
	cfg.OnEvent = func(stage string) error {
		if stage == "pass3.base" {
			if bases++; bases == 8 {
				for i := 0; i < 600; i++ {
					e.del(t, i)
				}
			}
		}
		return nil
	}
	r := New(e.tree, cfg)
	if err := r.RebuildInternal(); err != nil {
		t.Fatal(err)
	}
	if n := r.Metrics().Get("pass3.side.applied"); n < 20 {
		t.Fatalf("%d side-file entries applied, want the range's leaf deletes", n)
	}
	if err := e.tree.Check(); err != nil {
		t.Fatalf("after pass 3: %v", err)
	}
	checkRecords(t, e, func(i int) bool { return i >= 600 }, 1600)
	if err := e.pager.FlushAll(); err != nil {
		t.Fatal(err)
	}
	root, _ := e.tree.Root()
	live, err := internalsUnder(e.pager, root)
	if err != nil {
		t.Fatal(err)
	}
	reach := map[storage.PageID]bool{}
	for _, id := range live {
		reach[id] = true
	}
	for i, typ := range e.disk.ScanTypes() {
		if typ == storage.PageInternal && !reach[storage.PageID(i)] {
			t.Errorf("internal page %d is unreachable after pass 3", i)
		}
	}
}
