package btree

import (
	"testing"

	"repro/internal/kv"
	"repro/internal/lock"
	"repro/internal/storage"
)

// treeBaseEntries lists the quiescent tree's base entries in key order.
func treeBaseEntries(t *testing.T, e *env) []BaseEntry {
	t.Helper()
	var out []BaseEntry
	root, _ := e.tree.Root()
	err := Walk(e.pager, root, func(n *Node) (Step, error) {
		if n.Level > 1 {
			return Descend, nil
		}
		for i := 0; i < n.Page.NumSlots(); i++ {
			k, leaf := kv.DecodeIndexCell(n.Page.Cell(i))
			out = append(out, BaseEntry{Key: append([]byte(nil), k...), Leaf: leaf})
		}
		return SkipChildren, nil
	})
	if err != nil {
		t.Fatal(err)
	}
	return out
}

// baseBounds lists the quiescent tree's base pages with their routing
// bounds, left to right.
func baseBounds(t *testing.T, e *env) []Node {
	t.Helper()
	var out []Node
	root, _ := e.tree.Root()
	err := Walk(e.pager, root, func(n *Node) (Step, error) {
		if n.Level > 1 {
			return Descend, nil
		}
		out = append(out, Node{ID: n.ID, Low: n.Low, High: n.High})
		return SkipChildren, nil
	})
	if err != nil {
		t.Fatal(err)
	}
	return out
}

// sparseEnv loads every tenth key of [0, 10n), so that keys in between
// can later be inserted into any leaf's range.
func sparseEnv(t *testing.T, n int) *env {
	e := newEnv(t, 512)
	for i := 0; i < n; i++ {
		e.put(t, 10*i)
	}
	return e
}

// walkWithChange walks the tree with a base cursor and runs change
// (given the frontier) once, between the Next calls after the base
// numbered at. It then checks what pass 3 relies on: the leaves the
// cursor handed, with every change to an entry below the frontier
// applied as the side file would apply it, are the tree's leaves at the
// end, each handed once and under its key.
func walkWithChange(t *testing.T, e *env, at int, change func(f []byte)) {
	t.Helper()
	h := e.tree.NewHold(e.txns.NextOwnerID())
	defer h.Release()
	c := e.tree.NewCursor(0, nil)
	got := map[storage.PageID]string{}
	for step := 0; ; step++ {
		base, entries, err := c.Next(&h, lock.S)
		if err != nil {
			t.Fatal(err)
		}
		if base == nil {
			break
		}
		for _, en := range entries {
			if _, dup := got[en.Leaf]; dup {
				t.Fatalf("leaf %d handed twice", en.Leaf)
			}
			got[en.Leaf] = string(en.Key)
		}
		h.Drop(base)
		if step != at {
			continue
		}
		if c.Done {
			t.Fatalf("the walk ended at base %d, before the change", step)
		}
		before := entryMap(treeBaseEntries(t, e))
		change(c.F)
		after := entryMap(treeBaseEntries(t, e))
		for leaf, k := range before {
			if k2, ok := after[leaf]; (!ok || k2 != k) && kv.Compare([]byte(k), c.F) < 0 {
				delete(got, leaf) // side-filed delete
			}
		}
		for leaf, k := range after {
			if k0, ok := before[leaf]; (!ok || k0 != k) && kv.Compare([]byte(k), c.F) < 0 {
				got[leaf] = k // side-filed insert
			}
		}
	}
	want := entryMap(treeBaseEntries(t, e))
	for leaf, k := range want {
		if g, ok := got[leaf]; !ok || g != k {
			t.Errorf("tree entry (%q, %d): cursor and side file give (%q, %v)", k, leaf, g, ok)
		}
	}
	for leaf, k := range got {
		if _, ok := want[leaf]; !ok {
			t.Errorf("entry (%q, %d) handed but not in the tree", k, leaf)
		}
	}
	if err := e.tree.Check(); err != nil {
		t.Fatal(err)
	}
}

func entryMap(entries []BaseEntry) map[storage.PageID]string {
	m := make(map[storage.PageID]string, len(entries))
	for _, en := range entries {
		m[en.Leaf] = string(en.Key)
	}
	return m
}

// keysIn lists the sparse env's loaded keys (multiples of ten below
// 10n) that fall in [lo, hi); nil bounds are open.
func keysIn(n int, lo, hi []byte) []int {
	var out []int
	for i := 0; i < n; i++ {
		k := key(10 * i)
		if (lo == nil || kv.Compare(k, lo) >= 0) && (hi == nil || kv.Compare(k, hi) < 0) {
			out = append(out, 10*i)
		}
	}
	return out
}

// TestCursorNextBaseFreed: the base after the frontier is freed between
// two Next calls (its leaves emptied, free-at-empty cascading to it),
// then keys of its old range arrive again and land in the base already
// read. The next Next resumes by key, not by the freed page: it hands
// the read base's new entries at or above F and nothing twice.
func TestCursorNextBaseFreed(t *testing.T) {
	const n = 800
	e := sparseEnv(t, n)
	walkWithChange(t, e, 0, func(f []byte) {
		var next Node
		for _, b := range baseBounds(t, e) {
			if kv.Compare(b.Low, f) == 0 {
				next = b
			}
		}
		if next.ID == storage.InvalidPage {
			t.Fatalf("no base starts at the frontier %q", f)
		}
		keys := keysIn(n, next.Low, next.High)
		for _, k := range keys {
			e.del(t, k)
		}
		if typ := storagePageType(t, e, next.ID); typ != storage.PageFree {
			t.Fatalf("base %d is %v after its keys went, want free", next.ID, typ)
		}
		if hi := baseBounds(t, e)[0].High; hi != nil && kv.Compare(hi, f) <= 0 {
			t.Fatal("the freed base's range did not pass to the base already read")
		}
		for _, k := range keys {
			e.put(t, k)
			e.put(t, k+1)
		}
	})
}

// TestCursorLeafSplitBelowF: leaves of a base already read split (new
// entries below the frontier, which pass 3 side-files); the walk goes
// on and hands every other entry once.
func TestCursorLeafSplitBelowF(t *testing.T) {
	const n = 800
	e := sparseEnv(t, n)
	walkWithChange(t, e, 1, func(f []byte) {
		before := len(treeBaseEntries(t, e))
		for _, k := range keysIn(n, nil, f) {
			e.put(t, k+1)
			e.put(t, k+2)
		}
		if len(treeBaseEntries(t, e)) == before {
			t.Fatal("no leaf split below the frontier")
		}
	})
}

// TestCursorBaseSplitBelowF: the first base, already read, splits: a
// new base appears below the frontier, and it moves no entry across it.
func TestCursorBaseSplitBelowF(t *testing.T) {
	const n = 800
	e := sparseEnv(t, n)
	walkWithChange(t, e, 2, func(f []byte) {
		first := baseBounds(t, e)[0]
		for _, k := range keysIn(n, nil, first.High) {
			for j := 1; j < 10; j++ {
				e.put(t, k+j)
			}
		}
		if bb := baseBounds(t, e); len(bb) < 2 || bb[1].High == nil || kv.Compare(bb[1].High, first.High) > 0 {
			t.Fatal("the first base did not split")
		}
	})
}

func storagePageType(t *testing.T, e *env, id storage.PageID) storage.PageType {
	t.Helper()
	f, err := e.pager.Fix(id)
	if err != nil {
		t.Fatal(err)
	}
	defer e.pager.Unfix(f)
	f.RLock()
	defer f.RUnlock()
	return f.Data().Type()
}
