package pageops

import (
	"testing"

	"repro/internal/kv"
	"repro/internal/storage"
	"repro/internal/wal"
)

func newPager() *storage.Pager {
	return storage.NewPager(storage.NewDisk(512), 0, nil)
}

func allocLeaf(t *testing.T, pg *storage.Pager) storage.PageID {
	t.Helper()
	f, err := pg.Allocate(storage.PageLeaf)
	if err != nil {
		t.Fatal(err)
	}
	id := f.ID()
	pg.Unfix(f)
	return id
}

func leafGet(t *testing.T, pg *storage.Pager, id storage.PageID, key string) (string, bool) {
	t.Helper()
	f, err := pg.Fix(id)
	if err != nil {
		t.Fatal(err)
	}
	defer pg.Unfix(f)
	f.RLock()
	defer f.RUnlock()
	v, ok := kv.LeafGet(f.Data(), []byte(key))
	return string(v), ok
}

func TestChildCodecRoundTrip(t *testing.T) {
	for _, id := range []storage.PageID{0, 1, 77, 1 << 20, 1<<31 - 1} {
		if got := DecodeChild(EncodeChild(id)); got != id {
			t.Errorf("child %d -> %d", id, got)
		}
	}
}

func TestFormatCodecRoundTrip(t *testing.T) {
	typ, aux := DecodeFormat(EncodeFormat(storage.PageInternal, 3))
	if typ != storage.PageInternal || aux != 3 {
		t.Errorf("format round trip: %v %d", typ, aux)
	}
}

func TestApplyAndRedoIdempotence(t *testing.T) {
	pg := newPager()
	id := allocLeaf(t, pg)
	u := wal.Update{Page: id, Op: wal.OpInsert, Key: []byte("k"), NewVal: []byte("v")}
	if err := Apply(pg, u, 10); err != nil {
		t.Fatal(err)
	}
	// Redo at the same LSN is a no-op (pageLSN test).
	if err := Redo(pg, id, wal.OpInsert, []byte("k"), []byte("v"), 10); err != nil {
		t.Fatal(err)
	}
	// Redo at a later LSN of a delete applies.
	if err := Redo(pg, id, wal.OpDelete, []byte("k"), nil, 20); err != nil {
		t.Fatal(err)
	}
	if _, ok := leafGet(t, pg, id, "k"); ok {
		t.Error("redo delete did not apply")
	}
	// Redo with stale LSN must be skipped.
	if err := Redo(pg, id, wal.OpInsert, []byte("k"), []byte("v"), 15); err != nil {
		t.Fatal(err)
	}
	if _, ok := leafGet(t, pg, id, "k"); ok {
		t.Error("stale redo applied")
	}
}

func TestInverseMappings(t *testing.T) {
	cases := []struct {
		in      wal.Update
		wantOp  wal.Op
		wantVal string
	}{
		{wal.Update{Op: wal.OpInsert, Key: []byte("k")}, wal.OpDelete, ""},
		{wal.Update{Op: wal.OpDelete, Key: []byte("k"), OldVal: []byte("old")}, wal.OpInsert, "old"},
		{wal.Update{Op: wal.OpReplace, Key: []byte("k"), OldVal: []byte("old"), NewVal: []byte("new")}, wal.OpReplace, "old"},
		{wal.Update{Op: wal.OpSetNext, OldVal: EncodeChild(4), NewVal: EncodeChild(9)}, wal.OpSetNext, string(EncodeChild(4))},
	}
	for _, c := range cases {
		op, _, val, err := Inverse(c.in)
		if err != nil {
			t.Fatalf("%v: %v", c.in.Op, err)
		}
		if op != c.wantOp || string(val) != c.wantVal {
			t.Errorf("inverse of %v = %v %q, want %v %q", c.in.Op, op, val, c.wantOp, c.wantVal)
		}
	}
	if _, _, _, err := Inverse(wal.Update{Op: wal.OpFormat}); err == nil {
		t.Error("OpFormat must not be undoable")
	}
}

func TestUndoWritesCLRAndApplies(t *testing.T) {
	pg := newPager()
	log := wal.NewLog()
	id := allocLeaf(t, pg)
	u := wal.Update{Txn: 5, PrevLSN: 3, Page: id, Op: wal.OpInsert,
		Key: []byte("k"), NewVal: []byte("v")}
	if err := Apply(pg, u, log.Append(u)); err != nil {
		t.Fatal(err)
	}
	clrLSN, err := Undo(pg, log, u)
	if err != nil {
		t.Fatal(err)
	}
	if _, ok := leafGet(t, pg, id, "k"); ok {
		t.Error("undo did not remove the insert")
	}
	rec, _, err := log.Read(clrLSN)
	if err != nil {
		t.Fatal(err)
	}
	clr, ok := rec.(wal.CLR)
	if !ok || clr.Txn != 5 || clr.UndoNext != 3 || clr.Op != wal.OpDelete {
		t.Errorf("CLR = %#v", rec)
	}
}

func TestApplySplitIdempotentPerPage(t *testing.T) {
	pg := newPager()
	left := allocLeaf(t, pg)
	rightF, _ := pg.Allocate(storage.PageLeaf)
	right := rightF.ID()
	pg.Unfix(rightF)
	base, _ := pg.Allocate(storage.PageInternal)
	baseID := base.ID()
	base.Lock()
	base.Data().SetAux(1)
	_ = kv.IndexInsert(base.Data(), []byte("a"), left)
	base.Unlock()
	pg.Unfix(base)

	// Fill left with 4 records.
	lf, _ := pg.Fix(left)
	lf.Lock()
	for _, k := range []string{"a", "b", "m", "z"} {
		if err := kv.LeafInsert(lf.Data(), []byte(k), []byte("v-"+k)); err != nil {
			t.Fatal(err)
		}
	}
	lf.Unlock()
	pg.Unfix(lf)

	s := wal.Split{Left: left, Right: right, Level: 0, Sep: []byte("m"),
		Base: baseID}
	if err := ApplySplit(pg, s, 50); err != nil {
		t.Fatal(err)
	}
	// Applying again at the same LSN must be a no-op.
	if err := ApplySplit(pg, s, 50); err != nil {
		t.Fatal(err)
	}
	if v, ok := leafGet(t, pg, right, "z"); !ok || v != "v-z" {
		t.Errorf("right z = %q %v", v, ok)
	}
	if _, ok := leafGet(t, pg, left, "z"); ok {
		t.Error("left still has z")
	}
	if v, ok := leafGet(t, pg, left, "b"); !ok || v != "v-b" {
		t.Errorf("left b = %q %v", v, ok)
	}
	// Base has the new entry exactly once.
	bf, _ := pg.Fix(baseID)
	bf.RLock()
	n := bf.Data().NumSlots()
	bf.RUnlock()
	pg.Unfix(bf)
	if n != 2 {
		t.Errorf("base has %d entries, want 2", n)
	}
}

func TestApplyFreeChainAndDeallocGate(t *testing.T) {
	pg := newPager()
	a := allocLeaf(t, pg)
	b := allocLeaf(t, pg)
	c := allocLeaf(t, pg)
	base, _ := pg.Allocate(storage.PageInternal)
	baseID := base.ID()
	base.Lock()
	base.Data().SetAux(1)
	for k, child := range map[string]storage.PageID{"a": a, "b": b, "c": c} {
		_ = kv.IndexInsert(base.Data(), []byte(k), child)
	}
	base.Unlock()
	pg.Unfix(base)
	// chain a <-> b <-> c
	for _, link := range []struct {
		page       storage.PageID
		prev, next storage.PageID
	}{{a, 0, b}, {b, a, c}, {c, b, 0}} {
		f, _ := pg.Fix(link.page)
		f.Lock()
		f.Data().SetPrev(link.prev)
		f.Data().SetNext(link.next)
		f.Unlock()
		pg.MarkDirty(f, 1)
		pg.Unfix(f)
	}
	fc := wal.FreeChain{Survivor: baseID, EntryKey: []byte("b"),
		Dealloc: []storage.PageID{b}, Leaf: b, PrevLeaf: a, NextLeaf: c}
	if err := ApplyFreeChain(pg, fc, 30); err != nil {
		t.Fatal(err)
	}
	af, _ := pg.Fix(a)
	af.RLock()
	next := af.Data().Next()
	af.RUnlock()
	pg.Unfix(af)
	if next != c {
		t.Errorf("a.next = %d, want %d", next, c)
	}
	pg.RebuildFreeMap()
	if pg.FreeMap().IsAllocated(b) {
		t.Error("b not freed")
	}
	// DeallocateIfUnseen must skip pages with a later LSN (reuse case).
	d2 := allocLeaf(t, pg)
	f, _ := pg.Fix(d2)
	f.Lock()
	f.Data().SetLSN(100)
	f.Unlock()
	pg.MarkDirty(f, 100)
	pg.Unfix(f)
	if err := DeallocateIfUnseen(pg, d2, 50); err != nil {
		t.Fatal(err)
	}
	if !pg.FreeMap().IsAllocated(d2) {
		t.Error("page with later LSN was wrongly deallocated")
	}
}

// TestApplyImages: a page takes its image under the pageLSN gate, a
// freed page is deallocated rather than imaged, and a record whose
// image count does not match its page count is refused.
func TestApplyImages(t *testing.T) {
	pg := newPager()
	a := allocLeaf(t, pg)
	b := allocLeaf(t, pg)
	img := make(storage.Page, 512)
	storage.FormatPage(img, storage.PageLeaf, a)
	if err := kv.LeafInsert(img, []byte("k"), []byte("v")); err != nil {
		t.Fatal(err)
	}
	rec := wal.PageImages{Pages: []storage.PageID{a, b},
		Images: [][]byte{img, make([]byte, 512)}, Dealloc: []storage.PageID{b}}
	if err := ApplyImages(pg, rec, 20); err != nil {
		t.Fatal(err)
	}
	if v, ok := leafGet(t, pg, a, "k"); !ok || v != "v" {
		t.Errorf("page %d after its image: k = %q, %v", a, v, ok)
	}
	if pg.FreeMap().IsAllocated(b) {
		t.Errorf("freed page %d still allocated", b)
	}
	// Redo below the page's LSN leaves it alone.
	stale := wal.PageImages{Pages: []storage.PageID{a}, Images: [][]byte{make([]byte, 512)}}
	if err := ApplyImages(pg, stale, 10); err != nil {
		t.Fatal(err)
	}
	if _, ok := leafGet(t, pg, a, "k"); !ok {
		t.Error("an older image overwrote a newer page")
	}
	if err := ApplyImages(pg, wal.PageImages{Pages: []storage.PageID{a}}, 30); err == nil {
		t.Error("a record with no image for its page was applied")
	}
}
