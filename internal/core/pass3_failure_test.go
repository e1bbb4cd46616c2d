package core

import (
	"errors"
	"fmt"
	"strings"
	"testing"
	"time"

	"repro/internal/btree"
	"repro/internal/fault"
	"repro/internal/kv"
	"repro/internal/sidefile"
	"repro/internal/storage"
	"repro/internal/wal"
)

// failPass3OnRead runs a pass 3 over a tree larger than its 24-page pool
// and, from the first base page read on, makes every disk read fail for
// longer than the pager retries it. It returns the reorganizer, the
// error the pass returned, and the side file the pass had created.
func failPass3OnRead(t *testing.T) (*env, *Reorganizer, *sidefile.SideFile, error) {
	t.Helper()
	e := newEnvPool(t, 512, 24)
	for i := 0; i < 4000; i++ {
		e.put(t, i)
	}
	in := fault.New(1)
	e.disk.SetInjector(in)
	r := New(e.tree, DefaultConfig())
	var sf *sidefile.SideFile
	r.cfg.OnEvent = func(stage string) error {
		if stage == "pass3.base" && sf == nil {
			sf = r.pass3.sf
			in.Arm(fault.DiskRead, fault.Schedule{Kind: fault.KindError,
				OnHit: in.HitCounts()[fault.DiskRead] + 1, MaxFires: 100})
		}
		return nil
	}
	err := r.RebuildInternal()
	in.Disarm()
	if sf == nil {
		t.Fatal("pass 3 never read a base page")
	}
	return e, r, sf, err
}

// TestPass3FailureReleasesEverything: a pass 3 that fails without a
// crash gives back every lock it holds, removes its hook, and frees the
// side file and the half-built tree, so the next pass runs.
func TestPass3FailureReleasesEverything(t *testing.T) {
	e, r, sf, err := failPass3OnRead(t)
	if !errors.Is(err, storage.ErrIO) {
		t.Fatalf("pass 3 returned %v, want an I/O failure", err)
	}
	if held := e.locks.HeldResources(r.owner); len(held) != 0 {
		t.Errorf("reorganizer still holds %v after a failed pass 3", held)
	}
	if bit, head := e.tree.ReorgState(); bit || head != storage.InvalidPage {
		t.Errorf("reorg bit %v, side-file head %d after a failed pass 3", bit, head)
	}
	if err := e.tree.Check(); err != nil {
		t.Fatalf("tree after failed pass 3: %v", err)
	}
	if err := e.pager.FlushAll(); err != nil {
		t.Fatal(err)
	}
	for id, typ := range e.disk.ScanTypes() {
		if typ == storage.PageSideFile {
			t.Errorf("side-file page %d survives the failed pass", id)
		}
	}

	// Updates below CK: the hook is gone, so nothing reaches a side file.
	for i := 0; i < 200; i++ {
		e.put(t, -1-i)
	}
	if n := sf.Pending(); n != 0 {
		t.Errorf("%d base updates appended to the failed pass's side file", n)
	}

	done := make(chan error, 1)
	go func() { done <- New(e.tree, DefaultConfig()).RebuildInternal() }()
	select {
	case err := <-done:
		if err != nil {
			t.Fatalf("second pass 3: %v", err)
		}
	case <-time.After(10 * time.Second):
		t.Fatalf("second pass 3 still running after 10 s; failed reorganizer holds %v",
			e.locks.HeldResources(r.owner))
	}
	if err := e.tree.Check(); err != nil {
		t.Fatalf("tree after second pass 3: %v", err)
	}
	keys, _, err := e.tree.CollectAll()
	if err != nil || len(keys) != 4200 {
		t.Fatalf("tree holds %d records (%v), want 4200", len(keys), err)
	}
}

// TestPass3FailureFreesWhatItBuilt: the live cleanup deallocates every
// new-tree page with a logged Dealloc, so the failed pass leaves no
// internal page the root does not reach.
func TestPass3FailureFreesWhatItBuilt(t *testing.T) {
	e, _, _, err := failPass3OnRead(t)
	if err == nil {
		t.Fatal("pass 3 did not fail")
	}
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
			t.Errorf("internal page %d is unreachable after the failed pass", i)
		}
	}
	freed := 0
	if err := e.log.Iterate(1, func(_ wal.LSN, rec wal.Record) error {
		if _, ok := rec.(wal.Dealloc); ok {
			freed++
		}
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	if freed == 0 {
		t.Error("no Dealloc logged for the failed pass's pages")
	}
}

// TestPass3NamesOutOfOrderBaseKey: a base page whose low mark sits
// below the previous base page's last key (hand-corrupted here) stops
// pass 3 with an error naming the base page, its page LSN and CK,
// before the builder places the key below a separator it posted; the
// failed pass cleans up after itself.
func TestPass3NamesOutOfOrderBaseKey(t *testing.T) {
	e := newEnv(t, 512)
	for i := 0; i < 4000; i++ {
		e.put(t, i)
	}
	root, _ := e.tree.Root()
	var bases []storage.PageID
	err := btree.Walk(e.pager, root, func(n *btree.Node) (btree.Step, error) {
		if n.Level > 1 {
			return btree.Descend, nil
		}
		bases = append(bases, n.ID)
		return btree.SkipChildren, nil
	})
	if err != nil || len(bases) < 2 {
		t.Fatalf("want two base pages, have %d (%v)", len(bases), err)
	}
	edit := func(id storage.PageID, fn func(p storage.Page)) {
		f, err := e.pager.Fix(id)
		if err != nil {
			t.Fatal(err)
		}
		f.Lock()
		fn(f.Data())
		f.Unlock()
		e.pager.MarkDirty(f, 0)
		e.pager.Unfix(f)
	}
	// lower sits strictly between the first base's last two keys.
	var lower, lowMark []byte
	var child storage.PageID
	edit(bases[0], func(p storage.Page) {
		n := p.NumSlots()
		if n < 2 {
			t.Fatalf("base %d has %d entries", bases[0], n)
		}
		lower = append(append([]byte(nil), kv.SlotKey(p, n-2)...), 0)
	})
	edit(bases[1], func(p storage.Page) {
		k, c := kv.DecodeIndexCell(p.Cell(0))
		lowMark, child = append([]byte(nil), k...), c
		if err := kv.IndexReplace(p, lowMark, lower, child); err != nil {
			t.Fatal(err)
		}
	})

	err = New(e.tree, DefaultConfig()).RebuildInternal()
	want := fmt.Sprintf("pass3: base %d (page LSN ", bases[1])
	if err == nil || !strings.Contains(err.Error(), want) || !strings.Contains(err.Error(), fmt.Sprintf("CK %q", lower)) {
		t.Fatalf("pass 3 over out-of-order bases returned %v, want an error naming base %d and CK %q",
			err, bases[1], lower)
	}
	if bit, head := e.tree.ReorgState(); bit || head != storage.InvalidPage {
		t.Errorf("reorg bit %v, side-file head %d after the failed pass", bit, head)
	}
	if r, _ := e.tree.Root(); r != root {
		t.Errorf("root moved %d -> %d", root, r)
	}
	edit(bases[1], func(p storage.Page) {
		if err := kv.IndexReplace(p, lower, lowMark, child); err != nil {
			t.Fatal(err)
		}
	})
	if err := e.tree.Check(); err != nil {
		t.Fatalf("tree after the failed pass: %v", err)
	}
	if err := New(e.tree, DefaultConfig()).RebuildInternal(); err != nil {
		t.Fatalf("pass 3 over the repaired tree: %v", err)
	}
	if err := e.tree.Check(); err != nil {
		t.Fatal(err)
	}
}
