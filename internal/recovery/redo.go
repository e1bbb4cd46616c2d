package recovery

import (
	"fmt"

	"repro/internal/core"
	"repro/internal/kv"
	"repro/internal/storage"
	"repro/internal/wal"
)

// redoMove logically replays a reorganization MOVE. Under careful
// writing the record carries only keys and the values come from the
// source page's disk state — the write-ordering dependency guarantees
// the source cannot have overtaken the destination, so exactly the
// cases below can occur.
func redoMove(pg *storage.Pager, r wal.ReorgMove, lsn uint64) error {
	org, err := pg.Fix(r.Org)
	if err != nil {
		return err
	}
	defer pg.Unfix(org)
	dest, err := pg.Fix(r.Dest)
	if err != nil {
		return err
	}
	defer pg.Unfix(dest)

	org.Lock()
	defer org.Unlock()
	dest.Lock()
	defer dest.Unlock()
	orgDone := org.Data().LSN() >= lsn
	destDone := dest.Data().LSN() >= lsn

	if !r.Full && orgDone && !destDone {
		return fmt.Errorf("recovery: careful-writing violation on move %d->%d (source overtook destination)",
			r.Org, r.Dest)
	}
	if !destDone {
		for _, rec := range r.Records {
			var k, v []byte
			if r.Full {
				k, v = kv.DecodeLeafCell(rec)
			} else {
				k = rec
				var ok bool
				v, ok = kv.LeafGet(org.Data(), k)
				if !ok {
					// The record is already gone from the source and
					// (per the check above) must be in the destination.
					continue
				}
			}
			if _, found := kv.Search(dest.Data(), k); !found {
				if err := kv.LeafInsert(dest.Data(), k, v); err != nil {
					return fmt.Errorf("recovery: redo move into %d: %w", r.Dest, err)
				}
			}
		}
		dest.Data().SetLSN(lsn)
		pg.MarkDirty(dest, lsn)
	}
	if !orgDone {
		for _, rec := range r.Records {
			k := rec
			if r.Full {
				k, _ = kv.DecodeLeafCell(rec)
			}
			if slot, found := kv.Search(org.Data(), k); found {
				if err := org.Data().DeleteCell(slot); err != nil {
					return err
				}
			}
		}
		org.Data().SetLSN(lsn)
		pg.MarkDirty(org, lsn)
	}
	return nil
}

// redoSwap replays a page-content swap. The careful-writing dependency
// (B may not reach disk before A) leaves three reachable disk states.
func redoSwap(pg *storage.Pager, r wal.ReorgSwap, lsn uint64) error {
	fa, err := pg.Fix(r.PageA)
	if err != nil {
		return err
	}
	defer pg.Unfix(fa)
	fb, err := pg.Fix(r.PageB)
	if err != nil {
		return err
	}
	defer pg.Unfix(fb)

	fa.RLock()
	aDone := fa.Data().LSN() >= lsn
	fa.RUnlock()
	fb.RLock()
	bDone := fb.Data().LSN() >= lsn
	fb.RUnlock()

	switch {
	case aDone && bDone:
		return nil
	case !aDone && !bDone:
		core.SwapPages(pg, fa, fb, lsn)
		return nil
	case aDone && !bDone:
		// A already holds B's old content; rebuild B from the logged
		// image of A's old content, flipping self-references.
		img := storage.Page(r.ImageA)
		fb.Lock()
		p := fb.Data()
		p.TruncateCells(0)
		p.Compact()
		for i := 0; i < img.NumSlots(); i++ {
			if err := p.InsertCell(i, img.Cell(i)); err != nil {
				fb.Unlock()
				return err
			}
		}
		next, prev := img.Next(), img.Prev()
		if next == r.PageB {
			next = r.PageA
		}
		if prev == r.PageB {
			prev = r.PageA
		}
		p.SetNext(next)
		p.SetPrev(prev)
		p.SetLSN(lsn)
		fb.Unlock()
		pg.MarkDirty(fb, lsn)
		return nil
	default:
		return fmt.Errorf("recovery: swap %d/%d: destination overtook source on disk",
			r.PageA, r.PageB)
	}
}
