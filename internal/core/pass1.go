package core

import (
	"bytes"
	"errors"
	"fmt"
	"slices"

	"repro/internal/btree"
	"repro/internal/kv"
	"repro/internal/lock"
	"repro/internal/storage"
	"repro/internal/wal"
)

// CompactLeaves is pass 1: walk the base pages left to right (R lock on
// one base at a time), grouping consecutive sparse leaves whose records
// fit one page at the target fill, and compacting each group in one
// reorganization unit — in-place into the group's first leaf, or
// new-place into an empty page chosen by Find-Free-Space.
func (r *Reorganizer) CompactLeaves() error {
	r.unitsRun = 0
	r.stopped = false
	h := r.tree.NewHold(r.owner)
	defer h.Release()
	_, epoch := r.tree.Root()
	if err := h.Lock(lock.TreeRes(epoch), lock.IX); err != nil {
		return fmt.Errorf("pass1 tree IX: %w", err)
	}

	// Start from the leftmost base, or resume from LK: the base
	// covering the largest finished key.
	cur := r.tree.NewCursor(0, r.cfg.StartKey)
	for {
		base, entries, err := nextBase(cur, &h, lock.R, r.c.pass1Retries)
		if err != nil {
			return fmt.Errorf("pass1 next base: %w", err)
		}
		if base == nil {
			return nil
		}
		err = r.compactBase(base, entries)
		h.Drop(base)
		if err != nil || r.stopped {
			return err
		}
	}
}

// maxUnitRetries bounds the deadlock retries of one unit position.
const maxUnitRetries = 3

// compactBase forms and executes compaction units under one base page.
// The caller holds R on the base.
func (r *Reorganizer) compactBase(base *storage.Frame, entries []btree.BaseEntry) error {
	capacity := r.leafCapacity()
	i := 0
	retries := 0
	for i < len(entries) {
		// Unit boundary: stop cleanly when the increment's key range,
		// unit budget, or yield hook says so. No unit is in flight here.
		if len(r.cfg.EndKey) > 0 && bytes.Compare(entries[i].Key, r.cfg.EndKey) >= 0 {
			r.stopped = true
			return nil
		}
		if r.stopHere() {
			r.stopped = true
			return nil
		}
		n, err := r.compactUnit(base, entries, i, capacity)
		switch {
		case err == nil && n >= 2:
			r.unitsRun++
		case errors.Is(err, errUnitAborted) && retries < maxUnitRetries:
			// Deadlock victim: retry the position a few times (the winning
			// transaction needs a moment to finish), then move past it.
			retries++
			retryBackoff(retries)
			continue
		case err != nil && !errors.Is(err, errUnitAborted):
			return err
		}
		retries = 0
		i += max(n, 1)
	}
	return nil
}

// compactUnit runs one compaction unit over the group of leaves that
// starts at entries[i] — acquire, BEGIN, body, END — and reports how
// many entries the group covered. A leaf that fills a page by itself is
// a group of one: no unit runs. The caller holds R on the base.
func (r *Reorganizer) compactUnit(base *storage.Frame, entries []btree.BaseEntry, i, capacity int) (int, error) {
	u := &unit{Hold: r.tree.NewHold(r.owner), r: r}
	n, err := r.compactGroup(u, base, entries, i, capacity)
	u.release()
	if err != nil || n < 2 {
		return n, err
	}
	return n, r.event("compact.end")
}

// compactGroup is compactUnit up to END: whatever it locks and pins is
// recorded in u, on every way out.
func (r *Reorganizer) compactGroup(u *unit, base *storage.Frame, entries []btree.BaseEntry, i, capacity int) (int, error) {
	frames, err := r.acquireGroup(u, entries[i:], capacity)
	n := len(frames)
	if err != nil || n < 2 {
		if n == 1 {
			r.noteFinished(frames[0].ID())
		}
		return n, err
	}

	// Lock the chain neighbours before any record moves (§4.3): RX for
	// children of the same base page, X otherwise.
	frames[0].RLock()
	pred := frames[0].Data().Prev()
	frames[0].RUnlock()
	frames[n-1].RLock()
	succ := frames[n-1].Data().Next()
	frames[n-1].RUnlock()
	neighbourMode := func(sameBase bool) lock.Mode {
		if sameBase {
			return lock.RX
		}
		return lock.X
	}
	if err := u.lock(pred, neighbourMode(i > 0)); err != nil {
		return n, err
	}
	if err := u.lock(succ, neighbourMode(i+n < len(entries))); err != nil {
		return n, err
	}

	// Find-Free-Space: choose a destination page (§6.1).
	dest, newPlace, err := r.chooseDest(frames[0])
	if err != nil {
		return n, err
	}
	srcs := frames[1:] // an in-place destination keeps its records
	if newPlace {
		srcs = frames
		u.Pin(dest)
		if err := u.lock(dest.ID(), lock.RX); err != nil {
			_ = u.dealloc(dest) // best effort: what fails to free is a leaked page
			return n, err
		}
	}

	leafIDs := make([]storage.PageID, 0, n)
	for _, f := range frames {
		leafIDs = append(leafIDs, f.ID())
	}
	b := r.beginUnit(wal.ReorgBegin{RType: wal.RCompact,
		BasePages: []storage.PageID{base.ID()}, LeafPages: leafIDs,
		Dest: dest.ID(), NewPlace: newPlace,
		Preds: []storage.PageID{pred}, Succs: []storage.PageID{succ}}, dest)
	if err := r.event("compact.begin"); err != nil {
		return n, err
	}
	return n, r.finishCompact(u, b, base, dest, srcs)
}

// acquireGroup RX-locks and pins consecutive leaves, first entry on,
// while their combined payload fits the target capacity, and returns
// the frames of those that do; the leaf that no longer fits is dropped
// again.
func (r *Reorganizer) acquireGroup(u *unit, entries []btree.BaseEntry, capacity int) ([]*storage.Frame, error) {
	var frames []*storage.Frame
	total := 0
	for _, e := range entries {
		if err := u.lock(e.Leaf, lock.RX); err != nil {
			return nil, err
		}
		f, err := u.Fix(e.Leaf)
		if err != nil {
			return nil, err
		}
		f.RLock()
		used := usedPayload(f.Data())
		f.RUnlock()
		if len(frames) > 0 && total+used > capacity {
			u.Drop(f)
			break
		}
		frames = append(frames, f)
		total += used
	}
	return frames, nil
}

// noteFinished records that a leaf's final position is known (L of the
// Find-Free-Space heuristic).
func (r *Reorganizer) noteFinished(id storage.PageID) {
	if id > r.largestFinished {
		r.largestFinished = id
	}
}

// finishCompact is the body of a compaction unit (pass 1) and of a
// move unit (pass 2: a compaction of one leaf into a chosen page),
// written the way the paper describes forward recovery (§5.1): from the
// BEGIN record and the pages as they stand, bring the unit to its END
// state. Live, it runs right after BEGIN; at restart CompleteUnit
// enters it with whatever the crashed run left to do. The unit holds R
// on base, RX on the members and the destination, and the locks on the
// chain neighbours; srcs are the members other than the destination.
func (r *Reorganizer) finishCompact(u *unit, b wal.ReorgBegin, base, dest *storage.Frame, srcs []*storage.Frame) error {
	movedStage, modifiedStage := "compact.moved", "compact.modified"
	if b.RType == wal.RMove {
		movedStage, modifiedStage = "move.moved", "move.modified"
	}

	// Move whatever the sources still hold (remembered for §5.2 undo).
	moved := make([]movedSet, 0, len(srcs))
	for _, f := range srcs {
		cells := leafCells(f)
		if err := r.moveRecords(b.Unit, f, dest, cells); err != nil {
			return err
		}
		moved = append(moved, movedSet{org: f, cells: cells})
		if err := r.event(movedStage); err != nil {
			return err
		}
	}

	// Rewire the leaf chain around the destination.
	if err := r.setChainPointers(dest.ID(), b.Preds[0], b.Succs[0]); err != nil {
		return err
	}

	// Upgrade the base lock R -> X to post the new keys (§4.1.1). A
	// deadlock here undoes the unit's moves (§5.2) and ends the unit
	// with no LK.
	owner, locks := r.owner, r.tree.Locks()
	if err := locks.Lock(owner, pageRes(base.ID()), lock.X); err != nil {
		r.undoUnitMoves(b, moved, dest)
		r.endUnit(b.Unit, nil)
		r.c.unitsDeadlocked.Add(1)
		if b.NewPlace {
			_ = u.dealloc(dest) // best effort, as above
		}
		return errUnitAborted
	}
	var err error
	if m := modifyFor(base, b); len(m.Removes)+len(m.Replaces) > 0 {
		err = r.applyModify(m, base)
	}
	locks.Downgrade(owner, pageRes(base.ID()), lock.R)
	if err != nil {
		return fmt.Errorf("core: modify base %d: %w", base.ID(), err)
	}
	if err := r.event(modifiedStage); err != nil {
		return err
	}

	// LK is pass 1's restart position (§5): pass 2 does not advance it.
	var largest []byte
	if b.RType == wal.RCompact {
		dest.RLock()
		if n := dest.Data().NumSlots(); n > 0 {
			largest = append(largest, kv.SlotKey(dest.Data(), n-1)...)
		}
		dest.RUnlock()
	}

	// Deallocate the emptied sources (careful-writing dependencies force
	// the destination to disk first). END is logged even when a free
	// fails: the unit's changes are all made, and a unit left open would
	// be finished a second time by a later restart.
	for _, f := range srcs {
		f.RLock()
		freed := f.Data().Type() == storage.PageFree // by the crashed run
		f.RUnlock()
		if freed {
			continue
		}
		if err = u.dealloc(f); err != nil {
			break
		}
	}
	r.endUnit(b.Unit, largest)
	if err != nil {
		return err
	}
	if b.RType == wal.RMove {
		r.c.unitsMove.Add(1)
		r.c.pass2Moves.Add(1)
		return nil
	}
	r.noteFinished(dest.ID())
	r.c.unitsCompact.Add(1)
	if b.NewPlace {
		r.c.pagesAllocated.Add(1)
	}
	return nil
}

// modifyFor derives a compaction unit's MODIFY from the base page as it
// stands: of the entries that point at a member of the unit, the first
// is the compacted leaf's and must point at the destination; the rest
// go. Empty when the base page already shows the unit's END state.
func modifyFor(base *storage.Frame, b wal.ReorgBegin) wal.ReorgModify {
	m := wal.ReorgModify{Unit: b.Unit, Base: base.ID()}
	base.RLock()
	defer base.RUnlock()
	p := base.Data()
	first := true
	for i := 0; i < p.NumSlots(); i++ {
		k, c := kv.DecodeIndexCell(p.Cell(i))
		if c != b.Dest && !slices.Contains(b.LeafPages, c) {
			continue
		}
		key := append([]byte(nil), k...)
		switch {
		case !first:
			m.Removes = append(m.Removes, key)
		case c != b.Dest:
			m.Replaces = []wal.IndexReplace{{OldKey: key, NewKey: key, NewChild: b.Dest}}
		}
		first = false
	}
	return m
}

// chooseDest implements Find-Free-Space: a "good" empty page per the
// configured policy, or in-place (dest = the group's first leaf).
// A new-place destination is returned pinned and formatted as a leaf.
func (r *Reorganizer) chooseDest(first *storage.Frame) (*storage.Frame, bool, error) {
	pg := r.tree.Pager()
	switch r.cfg.Placement {
	case PlacementInPlace:
		return first, false, nil
	case PlacementFirstFit:
		f, err := pg.AllocateIn(0, storage.PageID(1<<30), storage.PageLeaf)
		if err != nil {
			return nil, false, err
		}
		if f == nil {
			return first, false, nil
		}
		return f, true, nil
	default: // PlacementHeuristic: first free page in (L, C)
		c := first.ID()
		f, err := pg.AllocateIn(r.largestFinished, c, storage.PageLeaf)
		if err != nil {
			return nil, false, err
		}
		if f == nil {
			return first, false, nil
		}
		return f, true, nil
	}
}

// movedSet remembers what one MOVE took from a source page, for §5.2
// deadlock undo.
type movedSet struct {
	org   *storage.Frame
	cells [][]byte
}

// undoUnitMoves reverses a unit's record moves and chain rewiring after
// a deadlock at the base-lock upgrade (§5.2). Each reversal is logged
// as a full-content MOVE so recovery can redo it.
func (r *Reorganizer) undoUnitMoves(b wal.ReorgBegin, moved []movedSet, dest *storage.Frame) {
	pg := r.tree.Pager()
	for i := len(moved) - 1; i >= 0; i-- {
		ms := moved[i]
		mv := wal.ReorgMove{Unit: b.Unit, PrevLSN: r.table.prevLSN(),
			Org: dest.ID(), Dest: ms.org.ID(), Full: true, Records: ms.cells}
		lsn := r.tree.Log().Append(mv)
		r.table.record(lsn)
		dest.Lock()
		for _, c := range ms.cells {
			k, _ := kv.DecodeLeafCell(c)
			if slot, found := kv.Search(dest.Data(), k); found {
				_ = dest.Data().DeleteCell(slot)
			}
		}
		dest.Data().SetLSN(lsn)
		dest.Unlock()
		pg.MarkDirty(dest, lsn)
		ms.org.Lock()
		for _, c := range ms.cells {
			k, v := kv.DecodeLeafCell(c)
			if _, found := kv.Search(ms.org.Data(), k); !found {
				_ = kv.LeafInsert(ms.org.Data(), k, v)
			}
		}
		ms.org.Data().SetLSN(lsn)
		ms.org.Unlock()
		pg.MarkDirty(ms.org, lsn)
	}
	// Restore the original chain: pred -> members in order -> succ.
	chain := append(append([]storage.PageID{b.Preds[0]}, b.LeafPages...), b.Succs[0])
	for idx := 1; idx < len(chain)-1; idx++ {
		_ = r.setPtr(chain[idx], wal.OpSetPrev, chain[idx-1])
		_ = r.setPtr(chain[idx], wal.OpSetNext, chain[idx+1])
	}
	_ = r.setPtr(chain[0], wal.OpSetNext, chain[1])
	_ = r.setPtr(chain[len(chain)-1], wal.OpSetPrev, chain[len(chain)-2])
}
