package pageops

import (
	"fmt"
	"slices"

	"repro/internal/kv"
	"repro/internal/storage"
	"repro/internal/wal"
)

// ApplyToPage performs op on the latched page without LSN bookkeeping.
// It is exported so callers holding their own latch (the tree's logged
// write path) share one operation interpreter with redo.
func ApplyToPage(p storage.Page, op wal.Op, key, newVal []byte) error {
	return apply(p, op, key, newVal)
}

// withPage runs fn on page id under its write latch if the page's LSN
// is below lsn, then stamps lsn. This is the per-page idempotent-redo
// wrapper shared by the structure modifications and the reorganization
// records redone under a plain pageLSN gate.
func withPage(pg *storage.Pager, id storage.PageID, lsn uint64, fn func(p storage.Page) error) error {
	if id == storage.InvalidPage {
		return nil
	}
	f, err := pg.Fix(id)
	if err != nil {
		return err
	}
	defer pg.Unfix(f)
	f.Lock()
	defer f.Unlock()
	if f.Data().LSN() >= lsn {
		return nil
	}
	if err := fn(f.Data()); err != nil {
		return err
	}
	f.Data().SetLSN(lsn)
	pg.MarkDirty(f, lsn)
	return nil
}

// ApplySplit applies a Split record at lsn, live and at redo. Each
// affected page is handled under its own pageLSN test, so replaying it
// any number of times from any partial state converges. The record
// carries no cells: Right is built from Left's cells at or above Sep in
// Left's current image, and Left then waits on disk for Right's image
// (careful writing, paper §5; see fillFrom).
func ApplySplit(pg *storage.Pager, s wal.Split, lsn uint64) error {
	pageType := storage.PageLeaf
	if s.Level > 0 {
		pageType = storage.PageInternal
	}
	err := fillFrom(pg, s.Left, s.Right, lsn, func(lp, rp storage.Page) error {
		cut, _ := kv.Search(lp, s.Sep)
		if err := buildFrom(rp, pageType, s.Right, s.Level, lp, cut, lp.NumSlots()); err != nil {
			return fmt.Errorf("pageops: split right insert: %w", err)
		}
		if s.Level == 0 {
			rp.SetNext(s.RightNext)
			rp.SetPrev(s.Left)
		}
		return nil
	})
	if err != nil {
		return err
	}
	// Left: drop cells >= Sep; rewire the forward side pointer.
	err = withPage(pg, s.Left, lsn, func(p storage.Page) error {
		cut, _ := kv.Search(p, s.Sep)
		p.TruncateCells(cut)
		if s.Level == 0 {
			p.SetNext(s.Right)
		}
		return nil
	})
	if err != nil {
		return err
	}
	// Old right neighbour: back pointer.
	if s.Level == 0 && s.NextPage != storage.InvalidPage {
		err = withPage(pg, s.NextPage, lsn, func(p storage.Page) error {
			p.SetPrev(s.Right)
			return nil
		})
		if err != nil {
			return err
		}
	}
	// Parent: lower the left child's stale routing key if needed, then
	// post the new entry (skip when posting is deferred).
	if s.Base != storage.InvalidPage {
		err = withPage(pg, s.Base, lsn, func(p storage.Page) error {
			if len(s.BaseOldKey) > 0 {
				if slot, found := kv.Search(p, s.BaseOldKey); found {
					_, child := kv.DecodeIndexCell(p.Cell(slot))
					if child == s.Left {
						if err := kv.IndexReplace(p, s.BaseOldKey, s.BaseNewKey, child); err != nil {
							return err
						}
					}
				}
			}
			if _, found := kv.Search(p, s.Sep); found {
				return nil
			}
			return kv.IndexInsert(p, s.Sep, s.Right)
		})
		if err != nil {
			return err
		}
	}
	return nil
}

// ApplyRootSplit applies a RootSplit record at lsn: Low and High are
// built from the root's cells below and at or above Sep, each one
// waited on by the root (see fillFrom), then the root becomes their
// parent.
func ApplyRootSplit(pg *storage.Pager, s wal.RootSplit, lsn uint64) error {
	childType := storage.PageLeaf
	if s.Level > 0 {
		childType = storage.PageInternal
	}
	err := fillFrom(pg, s.Root, s.Low, lsn, func(rp, p storage.Page) error {
		cut, _ := kv.Search(rp, s.Sep)
		return buildFrom(p, childType, s.Low, s.Level, rp, 0, cut)
	})
	if err != nil {
		return fmt.Errorf("pageops: root split child %d: %w", s.Low, err)
	}
	err = fillFrom(pg, s.Root, s.High, lsn, func(rp, p storage.Page) error {
		cut, _ := kv.Search(rp, s.Sep)
		return buildFrom(p, childType, s.High, s.Level, rp, cut, rp.NumSlots())
	})
	if err != nil {
		return fmt.Errorf("pageops: root split child %d: %w", s.High, err)
	}
	return withPage(pg, s.Root, lsn, func(p storage.Page) error {
		var lowMark []byte
		if p.NumSlots() > 0 {
			lowMark = append(lowMark, kv.SlotKey(p, 0)...)
		}
		storage.FormatPage(p, storage.PageInternal, s.Root)
		p.SetAux(s.Level + 1)
		if err := kv.IndexInsert(p, lowMark, s.Low); err != nil {
			return err
		}
		return kv.IndexInsert(p, s.Sep, s.High)
	})
}

// fillFrom builds page to at lsn from cells of page from, under both
// write latches, if to's pageLSN shows it still needs it, and makes from
// wait on disk for to's image: from gives those cells away after, and
// under careful writing its image without them never reaches disk
// before to's image with them. So whenever to still needs building,
// from still holds the cells — unless from's pageLSN is past lsn too,
// which only a write that broke that order leaves: a careful-writing
// violation, reported rather than redone from cells that are gone.
func fillFrom(pg *storage.Pager, from, to storage.PageID, lsn uint64,
	build func(from, to storage.Page) error) error {
	ff, err := pg.Fix(from)
	if err != nil {
		return err
	}
	defer pg.Unfix(ff)
	tf, err := pg.Fix(to)
	if err != nil {
		return err
	}
	defer pg.Unfix(tf)
	ff.Lock()
	defer ff.Unlock()
	tf.Lock()
	defer tf.Unlock()
	if tf.Data().LSN() >= lsn {
		return nil
	}
	if ff.Data().LSN() >= lsn {
		return fmt.Errorf("pageops: careful-writing violation on split of %d: it reached disk before new page %d",
			from, to)
	}
	if err := build(ff.Data(), tf.Data()); err != nil {
		return err
	}
	tf.Data().SetLSN(lsn)
	pg.MarkDirty(tf, lsn)
	pg.AddWriteDep(from, to)
	return nil
}

// buildFrom formats p as page id of the given type and level and fills
// it with src's cells [from, to).
func buildFrom(p storage.Page, typ storage.PageType, id storage.PageID, level uint32,
	src storage.Page, from, to int) error {
	storage.FormatPage(p, typ, id)
	p.SetAux(level)
	for i := from; i < to; i++ {
		if err := p.InsertCell(i-from, src.Cell(i)); err != nil {
			return err
		}
	}
	return nil
}

// ApplyFreeChain applies a FreeChain record at lsn: unlink the entry
// from the survivor, rewire the leaf chain, and deallocate the emptied
// pages.
func ApplyFreeChain(pg *storage.Pager, fc wal.FreeChain, lsn uint64) error {
	err := withPage(pg, fc.Survivor, lsn, func(p storage.Page) error {
		if slot, found := kv.Search(p, fc.EntryKey); found {
			return p.DeleteCell(slot)
		}
		return nil
	})
	if err != nil {
		return err
	}
	if fc.PrevLeaf != storage.InvalidPage {
		if err := withPage(pg, fc.PrevLeaf, lsn, func(p storage.Page) error {
			p.SetNext(fc.NextLeaf)
			return nil
		}); err != nil {
			return err
		}
	}
	if fc.NextLeaf != storage.InvalidPage {
		if err := withPage(pg, fc.NextLeaf, lsn, func(p storage.Page) error {
			p.SetPrev(fc.PrevLeaf)
			return nil
		}); err != nil {
			return err
		}
	}
	for _, id := range fc.Dealloc {
		if err := DeallocateIfUnseen(pg, id, lsn); err != nil {
			return err
		}
	}
	return nil
}

// ApplyImages applies a PageImages record at lsn: every page that is
// not being freed takes its logged image, then the freed pages are
// deallocated (a freed page's image is logged, not installed). Like the
// other structure modifications it runs both live and at redo.
func ApplyImages(pg *storage.Pager, r wal.PageImages, lsn uint64) error {
	if len(r.Images) != len(r.Pages) {
		return fmt.Errorf("pageops: %d images for %d pages", len(r.Images), len(r.Pages))
	}
	for i, id := range r.Pages {
		if slices.Contains(r.Dealloc, id) {
			continue
		}
		if err := withPage(pg, id, lsn, func(p storage.Page) error {
			copy(p, r.Images[i])
			return nil
		}); err != nil {
			return err
		}
	}
	for _, id := range r.Dealloc {
		if err := DeallocateIfUnseen(pg, id, lsn); err != nil {
			return err
		}
	}
	return nil
}

// RedoAlloc reformats an allocated page (pass-3 builder and side-file
// pages). The allocation stamped the page with this LSN at run time, so
// a flushed page (holding later content) is left alone.
func RedoAlloc(pg *storage.Pager, r wal.Alloc, lsn uint64) error {
	return withPage(pg, r.Page, lsn, func(p storage.Page) error {
		storage.FormatPage(p, r.Typ, r.Page)
		p.SetAux(r.Aux)
		return nil
	})
}

// RedoReorgBegin formats a new-place destination leaf (the unit
// stamped it with the BEGIN LSN at run time).
func RedoReorgBegin(pg *storage.Pager, r wal.ReorgBegin, lsn uint64) error {
	if !r.NewPlace {
		return nil
	}
	return withPage(pg, r.Dest, lsn, func(p storage.Page) error {
		storage.FormatPage(p, storage.PageLeaf, r.Dest)
		return nil
	})
}

// RedoModify re-applies a MODIFY's base-page entry edits.
func RedoModify(pg *storage.Pager, r wal.ReorgModify, lsn uint64) error {
	return withPage(pg, r.Base, lsn, func(p storage.Page) error {
		return ApplyModifyToPage(p, r)
	})
}

// ApplyModifyToPage performs a MODIFY's entry edits on a latched base
// page, idempotently (presence-checked) so the live unit, redo and
// forward recovery share it.
func ApplyModifyToPage(p storage.Page, m wal.ReorgModify) error {
	for _, key := range m.Removes {
		if slot, found := kv.Search(p, key); found {
			if err := p.DeleteCell(slot); err != nil {
				return err
			}
		}
	}
	for _, rep := range m.Replaces {
		if _, found := kv.Search(p, rep.OldKey); found {
			if err := kv.IndexReplace(p, rep.OldKey, rep.NewKey, rep.NewChild); err != nil {
				return err
			}
		} else if _, found := kv.Search(p, rep.NewKey); !found {
			if err := kv.IndexInsert(p, rep.NewKey, rep.NewChild); err != nil {
				return err
			}
		} else {
			// Entry already at the new key: ensure the child is right.
			if err := kv.IndexReplace(p, rep.NewKey, rep.NewKey, rep.NewChild); err != nil {
				return err
			}
		}
	}
	for _, ins := range m.Inserts {
		if _, found := kv.Search(p, ins.Key); !found {
			if err := kv.IndexInsert(p, ins.Key, ins.Child); err != nil {
				return err
			}
		}
	}
	return nil
}

// DeallocateIfUnseen deallocates id unless its pageLSN shows it already
// observed this or a later operation (the page may have been freed and
// reused before the crash; wiping it here would lose the reuse).
func DeallocateIfUnseen(pg *storage.Pager, id storage.PageID, lsn uint64) error {
	f, err := pg.Fix(id)
	if err != nil {
		return err
	}
	f.RLock()
	seen := f.Data().LSN() >= lsn
	f.RUnlock()
	pg.Unfix(f)
	if seen {
		return nil
	}
	return pg.Deallocate(id, lsn)
}
