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

// SwapLeaves is pass 2: put the (compacted) leaves into key order on
// disk. For each out-of-place leaf it prefers a Move to a well-placed
// empty page (cheaper logging, one base page) and otherwise Swaps with
// the occupant of the target position. The pass is optional and best
// effort: units that hit conflicts are skipped.
func (r *Reorganizer) SwapLeaves() error {
	h := r.tree.NewHold(r.owner)
	defer h.Release()
	_, epoch := r.tree.Root()
	if err := h.Lock(lock.TreeRes(epoch), lock.IX); err != nil {
		return err
	}

	leaves, err := r.collectLeaves(&h)
	if err != nil {
		return fmt.Errorf("pass2 collect: %w", err)
	}
	n := len(leaves)
	if n < 2 {
		return nil
	}

	// cur[k] = page currently holding the k-th leaf; pos[p] = which
	// key-order leaf page p currently holds.
	cur := make([]storage.PageID, n)
	pos := make(map[storage.PageID]int, n)
	maxID := storage.PageID(0)
	for k, l := range leaves {
		cur[k] = l.Leaf
		pos[l.Leaf] = k
		if l.Leaf > maxID {
			maxID = l.Leaf
		}
	}

	// Greedy placement: leaf k goes to the smallest id greater than the
	// previous placement that is either free (Move: cheaper logging,
	// one base page, §6.1) or occupied by a later leaf (Swap).
	prevAssigned := storage.PageID(0)
	for k := 0; k < n; k++ {
		// Smallest remaining occupied id.
		minOcc := storage.PageID(0)
		for j := k; j < n; j++ {
			if cur[j] > prevAssigned && (minOcc == 0 || cur[j] < minOcc) {
				minOcc = cur[j]
			}
		}
		free := r.tree.Pager().FirstFreeIn(prevAssigned, maxID+1)
		if free != storage.InvalidPage && (minOcc == 0 || free < minOcc) && free != cur[k] {
			moved, err := r.moveUnit(leaves[k].Key, cur[k], free)
			if err != nil {
				return fmt.Errorf("pass2 move: %w", err)
			}
			if moved {
				delete(pos, cur[k])
				cur[k] = free
				pos[free] = k
				prevAssigned = free
				continue
			}
			// fall through to swap on conflict
		}
		if minOcc == 0 {
			// Everything remaining sits at ids <= prevAssigned and no
			// free slot above it exists: leave the residue (best
			// effort; only reachable under concurrent churn).
			prevAssigned = cur[k]
			continue
		}
		if cur[k] == minOcc {
			prevAssigned = cur[k]
			continue
		}
		m, ok := pos[minOcc]
		if !ok || m == k {
			prevAssigned = cur[k]
			continue
		}
		swapped, err := r.swapUnit(leaves[k].Key, cur[k], leaves[m].Key, minOcc)
		if err != nil {
			return fmt.Errorf("pass2 swap: %w", err)
		}
		if swapped {
			pos[cur[k]], pos[minOcc] = m, k
			cur[m] = cur[k]
			cur[k] = minOcc
		}
		prevAssigned = cur[k]
	}
	return nil
}

// collectLeaves gathers the base entries in key order, walking the
// base pages under R locks, one at a time, in h.
func (r *Reorganizer) collectLeaves(h *btree.Hold) ([]btree.BaseEntry, error) {
	var out []btree.BaseEntry
	cur := r.tree.NewCursor(0, nil)
	for {
		base, entries, err := nextBase(cur, h, lock.R, r.c.pass2Retries)
		if base == nil || err != nil {
			return out, err
		}
		out = append(out, entries...)
		h.Drop(base)
	}
}

// verifyEntry checks, under the held base lock, that the base routes
// key to the expected leaf (concurrent activity may have restructured).
func verifyEntry(base *storage.Frame, key []byte, want storage.PageID) bool {
	base.RLock()
	defer base.RUnlock()
	child, _ := kv.ChildFor(base.Data(), key)
	return child == want
}

// moveUnit moves one leaf to the chosen empty page: a Move-type unit
// (one base page, new-place), which is a compaction of a single leaf
// into a destination pass 2 picked — the same body finishes it.
// Returns false when the unit was skipped.
func (r *Reorganizer) moveUnit(key []byte, from, to storage.PageID) (bool, error) {
	u := &unit{Hold: r.tree.NewHold(r.owner), r: r}
	err := r.moveLeaf(u, key, from, to)
	u.release()
	if err != nil {
		return false, skipAborted(err)
	}
	return true, r.event("move.end")
}

// moveLeaf is moveUnit up to END; a skip comes back as errUnitAborted.
func (r *Reorganizer) moveLeaf(u *unit, key []byte, from, to storage.PageID) error {
	base, err := retryWalk(r.c.pass2Retries, func() (*storage.Frame, error) {
		return r.tree.DescendToBase(&u.Hold, 0, key, lock.R, nil)
	})
	if err != nil {
		return err
	}
	if !verifyEntry(base, key, from) {
		return errUnitAborted
	}
	if err := u.lock(from, lock.RX); err != nil {
		return err
	}
	leaf, err := u.Fix(from)
	if err != nil {
		return err
	}
	leaf.RLock()
	pred, succ := leaf.Data().Prev(), leaf.Data().Next()
	leaf.RUnlock()
	for _, nb := range []storage.PageID{pred, succ} {
		if err := u.lock(nb, lock.X); err != nil {
			return err
		}
	}
	dest, err := r.tree.Pager().AllocateAt(to, storage.PageLeaf)
	if err != nil {
		return errUnitAborted // the page was taken meanwhile
	}
	u.Pin(dest)
	if err := u.lock(to, lock.RX); err != nil {
		_ = u.dealloc(dest) // best effort: what fails to free is a leaked page
		return err
	}
	b := r.beginUnit(wal.ReorgBegin{RType: wal.RMove,
		BasePages: []storage.PageID{base.ID()},
		LeafPages: []storage.PageID{from}, Dest: to, NewPlace: true,
		Preds: []storage.PageID{pred}, Succs: []storage.PageID{succ}}, dest)
	if err := r.event("move.begin"); err != nil {
		return err
	}
	return r.finishCompact(u, b, base, dest, []*storage.Frame{leaf})
}

// swapUnit exchanges the contents of pages pa and pb (leaves keyed ka
// and kb), updating both parents (a Swap-type unit, §4.1). Returns
// false when skipped due to conflicts.
func (r *Reorganizer) swapUnit(ka []byte, pa storage.PageID, kb []byte, pb storage.PageID) (bool, error) {
	u := &unit{Hold: r.tree.NewHold(r.owner), r: r}
	err := r.swapPair(u, ka, pa, kb, pb)
	u.release()
	if err != nil {
		return false, skipAborted(err)
	}
	return true, r.event("swap.end")
}

// swapPair is swapUnit up to END; a skip comes back as errUnitAborted.
func (r *Reorganizer) swapPair(u *unit, ka []byte, pa storage.PageID, kb []byte, pb storage.PageID) error {
	owner := r.owner
	locks := r.tree.Locks()
	pg := r.tree.Pager()

	baseA, err := retryWalk(r.c.pass2Retries, func() (*storage.Frame, error) {
		return r.tree.DescendToBase(&u.Hold, 0, ka, lock.R, nil)
	})
	if err != nil {
		return err
	}
	// The second descent can deadlock against updaters while R is held
	// on baseA; skip the unit in that case rather than retrying under
	// the held lock.
	baseB, err := r.tree.DescendToBase(&u.Hold, 0, kb, lock.R, nil)
	if isTransient(err) {
		return errUnitAborted
	}
	if err != nil {
		return err
	}
	bases := []*storage.Frame{baseA}
	if baseB.ID() != baseA.ID() {
		bases = append(bases, baseB)
	}
	if !verifyEntry(baseA, ka, pa) || !verifyEntry(baseB, kb, pb) {
		return errUnitAborted
	}

	// RX both leaves, then X their chain neighbours (excluding each
	// other), all before any data moves (§4.3).
	for _, id := range []storage.PageID{pa, pb} {
		if err := u.lock(id, lock.RX); err != nil {
			return err
		}
	}
	fa, err := u.Fix(pa)
	if err != nil {
		return err
	}
	fb, err := u.Fix(pb)
	if err != nil {
		return err
	}
	fa.RLock()
	predA, succA := fa.Data().Prev(), fa.Data().Next()
	fa.RUnlock()
	fb.RLock()
	predB, succB := fb.Data().Prev(), fb.Data().Next()
	fb.RUnlock()
	for _, nb := range []storage.PageID{predA, succA, predB, succB} {
		if err := u.lock(nb, lock.X); err != nil {
			return err
		}
	}

	b := wal.ReorgBegin{RType: wal.RSwap, LeafPages: []storage.PageID{pa, pb},
		Preds: []storage.PageID{predA, predB},
		Succs: []storage.PageID{succA, succB}}
	for _, base := range bases {
		b.BasePages = append(b.BasePages, base.ID())
	}
	b = r.beginUnit(b, nil)
	if err := r.event("swap.begin"); err != nil {
		return err
	}

	// Log the full pre-swap image of page A (§5: "no way to avoid
	// logging at least one of the full page contents"); SwapPages installs
	// the write-ordering dependency with the exchange: B (then holding A's
	// content) must not reach disk before A does, or the old B would be
	// unrecoverable.
	fa.RLock()
	imgA := append([]byte(nil), fa.Data()...)
	fa.RUnlock()
	// A may still wait on B (B is the page a split of A filled): B's
	// image goes to disk first, or the two would wait on each other.
	if err := pg.PrepareWriteDep(pb, pa); err != nil {
		return err
	}
	sw := wal.ReorgSwap{Unit: b.Unit, PrevLSN: r.table.prevLSN(),
		PageA: pa, PageB: pb, ImageA: imgA}
	lsn := r.tree.Log().Append(sw)
	r.table.record(lsn)
	// Between the SWAP record and the in-memory exchange: a crash here
	// must redo the whole swap from ImageA.
	if err := r.event("swap.logged"); err != nil {
		return err
	}

	SwapPages(pg, fa, fb, lsn)
	if err := r.event("swap.moved"); err != nil {
		return err
	}

	// Neighbour pointer fixes: whoever pointed at pa now points at pb
	// and vice versa.
	if err := r.pointNeighbours(b, pb, pa); err != nil {
		return err
	}

	// Upgrade both parents and post the pointer changes. A deadlock
	// here undoes the swap (§5.2) and ends the unit with no LK.
	for _, base := range bases {
		if err := locks.Lock(owner, pageRes(base.ID()), lock.X); err != nil {
			r.undoSwap(b, fa, fb)
			r.endUnit(b.Unit, nil)
			r.c.unitsDeadlocked.Add(1)
			return errUnitAborted
		}
	}
	ma := wal.ReorgModify{Unit: b.Unit, Base: baseA.ID(),
		Replaces: []wal.IndexReplace{{OldKey: ka, NewKey: ka, NewChild: pb}}}
	mb := wal.ReorgModify{Unit: b.Unit, Base: baseB.ID(),
		Replaces: []wal.IndexReplace{{OldKey: kb, NewKey: kb, NewChild: pa}}}
	if len(bases) == 1 {
		ma.Replaces = append(ma.Replaces, mb.Replaces...)
	}
	if err := r.applyModify(ma, baseA); err != nil {
		return err
	}
	if len(bases) == 2 {
		if err := r.applyModify(mb, baseB); err != nil {
			return err
		}
		locks.Downgrade(owner, pageRes(baseB.ID()), lock.R)
	}
	locks.Downgrade(owner, pageRes(baseA.ID()), lock.R)

	r.endUnit(b.Unit, nil)
	r.c.unitsSwap.Add(1)
	r.c.pass2Swaps.Add(1)
	return nil
}

// pointNeighbours makes the chain neighbours the swap's BEGIN record
// names — other than the swapped pair itself, whose own pointers
// travelled with their contents — point at toA where they pointed at
// page A and at toB where they pointed at page B.
func (r *Reorganizer) pointNeighbours(b wal.ReorgBegin, toA, toB storage.PageID) error {
	fix := func(nb storage.PageID, op wal.Op, to storage.PageID) error {
		if slices.Contains(b.LeafPages, nb) {
			return nil
		}
		return r.setPtr(nb, op, to)
	}
	return errFirst(
		fix(b.Preds[0], wal.OpSetNext, toA),
		fix(b.Succs[0], wal.OpSetPrev, toA),
		fix(b.Preds[1], wal.OpSetNext, toB),
		fix(b.Succs[1], wal.OpSetPrev, toB))
}

// undoSwap reverses a swap after a deadlock at the upgrade (§5.2): a
// swap is its own inverse, so it is re-logged and re-applied, and the
// neighbour pointers are restored.
func (r *Reorganizer) undoSwap(b wal.ReorgBegin, fa, fb *storage.Frame) {
	fa.RLock()
	imgA := append([]byte(nil), fa.Data()...)
	fa.RUnlock()
	sw := wal.ReorgSwap{Unit: b.Unit, PrevLSN: r.table.prevLSN(),
		PageA: fa.ID(), PageB: fb.ID(), ImageA: imgA}
	lsn := r.tree.Log().Append(sw)
	r.table.record(lsn)
	SwapPages(r.tree.Pager(), fa, fb, lsn)
	_ = r.pointNeighbours(b, fa.ID(), fb.ID())
}

// healSwap finishes a swap unit at restart. The post-redo page contents
// are ground truth (their own side pointers travelled with them), so
// the chain neighbours and parent entries are healed to match wherever
// the contents ended up — correct regardless of how far the swap, or a
// deadlock-undo re-swap, had progressed.
func (r *Reorganizer) healSwap(b wal.ReorgBegin, leaves, bases []*storage.Frame) error {
	lowMarks := make(map[storage.PageID][]byte, 2)
	for _, f := range leaves {
		f.RLock()
		prev, next := f.Data().Prev(), f.Data().Next()
		if f.Data().NumSlots() > 0 {
			lowMarks[f.ID()] = append([]byte(nil), kv.SlotKey(f.Data(), 0)...)
		}
		f.RUnlock()
		if err := errFirst(r.setPtr(prev, wal.OpSetNext, f.ID()),
			r.setPtr(next, wal.OpSetPrev, f.ID())); err != nil {
			return err
		}
	}
	// Heal parent entries: an entry must point at the page whose low
	// record key lies within the entry's key range.
	for _, base := range bases {
		m := wal.ReorgModify{Unit: b.Unit, Base: base.ID()}
		base.RLock()
		p := base.Data()
		n := p.NumSlots()
		for i := 0; i < n; i++ {
			k, c := kv.DecodeIndexCell(p.Cell(i))
			if !slices.Contains(b.LeafPages, c) {
				continue
			}
			var hi []byte
			if i+1 < n {
				hi = kv.SlotKey(p, i+1)
			}
			// Both members can qualify when the entry is the last on its
			// base page: hi is unknown there, but the entry's true range
			// ends at the next separator in the level, and the content
			// belonging to that later separator has the larger low mark —
			// so the smaller qualifying low mark is the one this entry
			// routes to.
			correct := c
			var correctLow []byte
			for _, page := range b.LeafPages {
				lm := lowMarks[page]
				if lm == nil || bytes.Compare(lm, k) < 0 || (hi != nil && bytes.Compare(lm, hi) >= 0) {
					continue
				}
				if correctLow == nil || bytes.Compare(lm, correctLow) < 0 {
					correct, correctLow = page, lm
				}
			}
			if correct != c {
				key := append([]byte(nil), k...)
				m.Replaces = append(m.Replaces,
					wal.IndexReplace{OldKey: key, NewKey: key, NewChild: correct})
			}
		}
		base.RUnlock()
		if len(m.Replaces) > 0 {
			if err := r.applyModify(m, base); err != nil {
				return err
			}
		}
	}
	r.endUnit(b.Unit, nil)
	return nil
}

// SwapPages exchanges the record contents and side pointers of two
// pages, fixing self-references for adjacent leaves, as the SWAP record
// at lsn (which logs A's old image) describes. Under both write latches
// (taken in id order) it also marks both pages dirty and makes B's image
// wait for A's on disk: a flush that passes the latches sees the
// exchange and its write-ordering dependency together, never one
// without the other. Exported for redo.
func SwapPages(pg *storage.Pager, fa, fb *storage.Frame, lsn uint64) {
	first, second := fa, fb
	if first.ID() > second.ID() {
		first, second = second, first
	}
	first.Lock()
	second.Lock()
	defer second.Unlock()
	defer first.Unlock()

	pa, pb := fa.Data(), fb.Data()
	collect := func(p storage.Page) (cells [][]byte, next, prev storage.PageID) {
		for i := 0; i < p.NumSlots(); i++ {
			cells = append(cells, append([]byte(nil), p.Cell(i)...))
		}
		return cells, p.Next(), p.Prev()
	}
	cellsA, nextA, prevA := collect(pa)
	cellsB, nextB, prevB := collect(pb)
	idA, idB := fa.ID(), fb.ID()

	write := func(p storage.Page, cells [][]byte, next, prev storage.PageID) {
		p.TruncateCells(0)
		p.Compact()
		for i, c := range cells {
			if err := p.InsertCell(i, c); err != nil {
				panic(fmt.Sprintf("core: swap re-insert into %d: %v", p.ID(), err))
			}
		}
		p.SetNext(next)
		p.SetPrev(prev)
		p.SetLSN(lsn)
	}
	// A receives B's content; self-references (adjacency) flip.
	fixRef := func(ref, self, other storage.PageID) storage.PageID {
		if ref == self {
			return other
		}
		return ref
	}
	write(pa, cellsB, fixRef(nextB, idA, idB), fixRef(prevB, idA, idB))
	write(pb, cellsA, fixRef(nextA, idB, idA), fixRef(prevA, idB, idA))
	pg.MarkDirty(fa, lsn)
	pg.MarkDirty(fb, lsn)
	pg.AddWriteDep(idB, idA)
}

func errFirst(errs ...error) error {
	for _, err := range errs {
		if err != nil {
			return err
		}
	}
	return nil
}

func skipAborted(err error) error {
	if errors.Is(err, errUnitAborted) {
		return nil
	}
	return err
}
