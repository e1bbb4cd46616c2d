package core

import (
	"errors"
	"fmt"
	"slices"

	"repro/internal/kv"
	"repro/internal/storage"
	"repro/internal/wal"
)

// builder bulk-loads the new internal levels bottom-up from sorted
// (key, child) entries, the classic construction from sorted records
// [Sal88, ch. 5.5]: each level's current page is filled to the target
// fill factor, then closed, promoting its (low key, page) pair to the
// level above. All pages are allocated past the high-water mark (the
// new tree lives in its own region) and each allocation is logged so an
// interrupted pass 3 can be reclaimed at restart.
type builder struct {
	pg   *storage.Pager
	log  *wal.Log
	fill float64

	levels []*builderLevel
	// allocated is every page of the new tree, the catch-up's splits
	// included, in allocation order.
	allocated []storage.PageID
}

type builderLevel struct {
	frame    *storage.Frame
	firstKey []byte
}

func newBuilder(pg *storage.Pager, log *wal.Log, fill float64) *builder {
	return &builder{pg: pg, log: log, fill: fill}
}

// add appends one base-level entry (level 0 of the builder = the new
// base pages, tree level 1).
func (b *builder) add(key []byte, child storage.PageID) error {
	return b.addAt(0, key, child)
}

func (b *builder) addAt(level int, key []byte, child storage.PageID) error {
	for len(b.levels) <= level {
		b.levels = append(b.levels, &builderLevel{})
	}
	ls := b.levels[level]
	cell := kv.EncodeIndexCell(key, child)
	if ls.frame != nil && b.pastFill(ls.frame, len(cell)) {
		if err := b.closeLevel(level); err != nil {
			return err
		}
	}
	if ls.frame == nil {
		f, err := b.allocPage(level)
		if err != nil {
			return err
		}
		ls.frame = f
		ls.firstKey = append([]byte(nil), key...)
	}
	ls.frame.Lock()
	err := kv.IndexInsert(ls.frame.Data(), key, child)
	ls.frame.Unlock()
	if err != nil {
		return fmt.Errorf("core: builder insert at level %d: %w", level, err)
	}
	b.pg.MarkDirty(ls.frame, 0)
	return nil
}

// pastFill reports whether adding one more cell would exceed the target
// fill fraction (always allowing at least two entries per page).
func (b *builder) pastFill(f *storage.Frame, cellLen int) bool {
	f.RLock()
	defer f.RUnlock()
	p := f.Data()
	if p.NumSlots() < 2 {
		return false
	}
	usable := len(p) - storage.HeaderSize
	budget := int(float64(usable) * b.fill)
	return usedPayload(p)+cellLen+storage.SlotSize > budget || p.FreeSpace() < cellLen
}

// closeLevel finishes the current page at level, promoting its (low
// key, id) to the level above.
func (b *builder) closeLevel(level int) error {
	ls := b.levels[level]
	if ls.frame == nil {
		return nil
	}
	f := ls.frame
	key := ls.firstKey
	ls.frame = nil
	ls.firstKey = nil
	id := f.ID()
	b.pg.Unfix(f)
	return b.addAt(level+1, key, id)
}

// allocPage creates one new-tree page at the given builder level (tree
// level = builder level + 1), logging the allocation.
func (b *builder) allocPage(level int) (*storage.Frame, error) {
	f, err := b.pg.AllocateEnd(storage.PageInternal)
	if err != nil {
		return nil, err
	}
	lsn := b.log.Append(wal.Alloc{Page: f.ID(),
		Typ: storage.PageInternal, Aux: uint32(level + 1)})
	f.Lock()
	f.Data().SetAux(uint32(level + 1))
	// Stamp the allocation LSN so redo of the Alloc record does not
	// wipe flushed builder content.
	f.Data().SetLSN(lsn)
	f.Unlock()
	b.pg.MarkDirty(f, lsn)
	b.allocated = append(b.allocated, f.ID())
	return f, nil
}

// finish closes every level bottom-up and returns the new root page.
func (b *builder) finish() (storage.PageID, error) {
	if len(b.levels) == 0 {
		return storage.InvalidPage, fmt.Errorf("core: builder got no entries")
	}
	for level := 0; level < len(b.levels); level++ {
		ls := b.levels[level]
		// The topmost level with a single page and no level above is
		// the root; anything else closes upward.
		if level == len(b.levels)-1 && ls.frame != nil {
			id := ls.frame.ID()
			b.pg.Unfix(ls.frame)
			ls.frame = nil
			return id, nil
		}
		if err := b.closeLevel(level); err != nil {
			return storage.InvalidPage, err
		}
	}
	return storage.InvalidPage, fmt.Errorf("core: builder did not converge to a root")
}

// topPage returns the highest allocated page so far (progress marker
// for stable-point records).
func (b *builder) topPage() storage.PageID {
	if len(b.allocated) == 0 {
		return storage.InvalidPage
	}
	return b.allocated[len(b.allocated)-1]
}

// flushAll forces every page allocated so far to disk (stable points).
func (b *builder) flushAll() error {
	for _, id := range b.allocated {
		if err := b.pg.FlushPage(id); err != nil {
			return err
		}
	}
	return nil
}

// discard frees the whole new tree of a pass 3 abandoned before its
// switch, newest page first, each with a logged Dealloc. The order does
// not matter: a crash part way leaves the rest to restart's
// ReclaimPass3, which finds new-tree pages by their type.
func (b *builder) discard() error {
	for _, ls := range b.levels {
		if ls.frame != nil {
			b.pg.Unfix(ls.frame)
			ls.frame = nil
		}
	}
	for i := len(b.allocated) - 1; i >= 0; i-- {
		lsn := b.log.Append(wal.Dealloc{Page: b.allocated[i]})
		if err := b.pg.Deallocate(b.allocated[i], lsn); err != nil {
			return err
		}
	}
	return nil
}

// --- private new-tree maintenance (pre-switch catch-up) ---

// insert adds a (key, child) entry to the private new tree rooted at
// root, splitting pages as needed. It returns the (possibly new) root.
func (b *builder) insert(root storage.PageID, key []byte, child storage.PageID) (storage.PageID, error) {
	sepKey, sepChild, err := b.insertAt(root, key, child)
	if err != nil || sepChild == storage.InvalidPage {
		return root, err
	}
	// The root split: make a new root above it.
	f, err := b.pg.AllocateEnd(storage.PageInternal)
	if err != nil {
		return root, err
	}
	rf, err := b.pg.Fix(root)
	if err != nil {
		b.pg.Unfix(f)
		return root, err
	}
	rf.RLock()
	rootLevel := rf.Data().Aux()
	rootLow := append([]byte(nil), kv.LowMark(rf.Data())...)
	rf.RUnlock()
	b.pg.Unfix(rf)
	b.allocated = append(b.allocated, f.ID())
	f.Lock()
	f.Data().SetAux(rootLevel + 1)
	err = kv.IndexInsert(f.Data(), rootLow, root)
	if err == nil {
		err = kv.IndexInsert(f.Data(), sepKey, sepChild)
	}
	f.Unlock()
	b.pg.MarkDirty(f, 0)
	id := f.ID()
	b.pg.Unfix(f)
	if err != nil {
		return root, err
	}
	return id, nil
}

// insertAt inserts into the subtree at id; when the page splits it
// returns the new sibling's (sepKey, sepChild) for the caller to post.
func (b *builder) insertAt(id storage.PageID, key []byte, child storage.PageID) ([]byte, storage.PageID, error) {
	f, err := b.pg.Fix(id)
	if err != nil {
		return nil, storage.InvalidPage, err
	}
	f.RLock()
	level := f.Data().Aux()
	var downChild storage.PageID
	if level > 1 {
		downChild, _ = kv.ChildFor(f.Data(), key)
	}
	f.RUnlock()

	if level > 1 {
		if downChild == storage.InvalidPage {
			b.pg.Unfix(f)
			return nil, storage.InvalidPage, fmt.Errorf("core: empty new-tree internal %d", id)
		}
		sepKey, sepChild, err := b.insertAt(downChild, key, child)
		if err != nil || sepChild == storage.InvalidPage {
			b.pg.Unfix(f)
			return nil, storage.InvalidPage, err
		}
		// Post the child split into this page (may split us in turn).
		key, child = sepKey, sepChild
	}

	f.Lock()
	var ierr error
	if _, found := kv.Search(f.Data(), key); found {
		// Re-applied entry: update the child pointer in place.
		ierr = kv.IndexReplace(f.Data(), key, key, child)
	} else {
		ierr = kv.IndexInsert(f.Data(), key, child)
	}
	f.Unlock()
	if ierr == nil {
		b.pg.MarkDirty(f, 0)
		b.pg.Unfix(f)
		return nil, storage.InvalidPage, nil
	}
	if !isFullErr(ierr) {
		b.pg.Unfix(f)
		return nil, storage.InvalidPage, ierr
	}
	// Split this new-tree page.
	sib, err := b.pg.AllocateEnd(storage.PageInternal)
	if err != nil {
		b.pg.Unfix(f)
		return nil, storage.InvalidPage, err
	}
	b.allocated = append(b.allocated, sib.ID())
	f.Lock()
	sib.Lock()
	p := f.Data()
	n := p.NumSlots()
	mid := n / 2
	sep := append([]byte(nil), kv.SlotKey(p, mid)...)
	sib.Data().SetAux(p.Aux())
	for i := mid; i < n; i++ {
		cell := append([]byte(nil), p.Cell(i)...)
		if err := sib.Data().InsertCell(i-mid, cell); err != nil {
			sib.Unlock()
			f.Unlock()
			b.pg.Unfix(sib)
			b.pg.Unfix(f)
			return nil, storage.InvalidPage, err
		}
	}
	p.TruncateCells(mid)
	// Insert the pending entry into the correct half.
	target := p
	if kv.Compare(key, sep) >= 0 {
		target = sib.Data()
	}
	ierr = kv.IndexInsert(target, key, child)
	sib.Unlock()
	f.Unlock()
	b.pg.MarkDirty(f, 0)
	b.pg.MarkDirty(sib, 0)
	sibID := sib.ID()
	b.pg.Unfix(sib)
	b.pg.Unfix(f)
	if ierr != nil {
		return nil, storage.InvalidPage, ierr
	}
	return sep, sibID, nil
}

func isFullErr(err error) bool {
	return errors.Is(err, storage.ErrPageFull)
}

// delete removes leaf child's entry from the private new tree rooted at
// root: the entry key routes to. That is the entry with exactly this
// key, or, when pass 3 handed a base's first entry under the bound its
// base routes it from, the entry under that bound, which the stored key
// still routes to. Any other entry there means the side
// file and the new tree disagree. A page the delete empties is freed
// with a logged Dealloc and leaves its parent in turn, as free-at-empty
// cascades in the old tree; the root keeps its last entry.
func (b *builder) delete(root storage.PageID, key []byte, child storage.PageID) error {
	var path []storage.PageID // root to base
	for id := root; id != storage.InvalidPage; {
		path = append(path, id)
		f, err := b.pg.Fix(id)
		if err != nil {
			return err
		}
		f.RLock()
		if f.Data().Aux() > 1 {
			id, _ = kv.ChildFor(f.Data(), key)
		} else {
			id = storage.InvalidPage
		}
		f.RUnlock()
		b.pg.Unfix(f)
	}
	for i := len(path) - 1; i >= 0; i-- {
		f, err := b.pg.Fix(path[i])
		if err != nil {
			return err
		}
		f.Lock()
		got, slot := kv.ChildFor(f.Data(), key)
		emptied := got == child && f.Data().NumSlots() == 1 && i > 0
		if got == child && !emptied {
			_ = f.Data().DeleteCell(slot)
		}
		f.Unlock()
		b.pg.MarkDirty(f, 0)
		b.pg.Unfix(f)
		if got != child {
			return fmt.Errorf("core: side-file delete of %q (page %d): new-tree page %d routes it to page %d",
				key, child, path[i], got)
		}
		if !emptied {
			return nil
		}
		lsn := b.log.Append(wal.Dealloc{Page: path[i]})
		if err := b.pg.Deallocate(path[i], lsn); err != nil {
			return err
		}
		b.allocated = slices.DeleteFunc(b.allocated, func(id storage.PageID) bool { return id == path[i] })
		child = path[i]
	}
	return nil
}
