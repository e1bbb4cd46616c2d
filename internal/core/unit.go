package core

import (
	"errors"
	"fmt"
	"slices"
	"sync/atomic"
	"time"

	"repro/internal/btree"
	"repro/internal/kv"
	"repro/internal/lock"
	"repro/internal/obs"
	"repro/internal/pageops"
	"repro/internal/storage"
	"repro/internal/wal"
)

// errUnitAborted reports that a unit gave up its locks (deadlock
// victim, §4.1) and should be retried or skipped.
var errUnitAborted = fmt.Errorf("core: reorganization unit aborted")

func pageRes(id storage.PageID) lock.Resource {
	return lock.PageRes(uint64(id))
}

// isTransient reports lock-manager outcomes the reorganizer absorbs by
// retrying: it is always the deadlock victim (§4.1), so victimisation
// during a descent just means "try again".
func isTransient(err error) bool {
	return errors.Is(err, lock.ErrDeadlock) || errors.Is(err, lock.ErrTimeout)
}

// retryBackoff sleeps briefly before the reorganizer retries after
// being victimised: the user transaction that won the deadlock needs
// time to finish, or the same cycle re-forms immediately.
func retryBackoff(tries int) {
	d := time.Duration(tries) * time.Millisecond
	if d > 20*time.Millisecond {
		d = 20 * time.Millisecond
	}
	time.Sleep(d)
}

// retryWalk runs walk, a descent to a base page, retrying the transient
// lock failures of a reorganizer that is always the deadlock victim
// (§4.1), and counts each retry in retries. A failed descent leaves its
// hold as it found it, so a retry starts clean.
func retryWalk[T any](retries *atomic.Int64, walk func() (T, error)) (T, error) {
	for tries := 0; ; tries++ {
		v, err := walk()
		if err == nil || !isTransient(err) || tries >= 1000 {
			return v, err
		}
		retries.Add(1)
		retryBackoff(tries)
	}
}

// nextBase is cur.Next under retryWalk: the next base page, locked in
// mode and held in h, with its entries; nil when the walk is over.
func nextBase(cur *btree.Cursor, h *btree.Hold, mode lock.Mode, retries *atomic.Int64) (*storage.Frame, []btree.BaseEntry, error) {
	var entries []btree.BaseEntry
	base, err := retryWalk(retries, func() (base *storage.Frame, err error) {
		base, entries, err = cur.Next(h, mode)
		return base, err
	})
	return base, entries, err
}

// unit is one reorganization unit's hold on the system: the page locks
// it took and the frames it pinned, recorded in its btree.Hold as they
// are acquired so that the unit lets go of all of them in one place
// (release).
type unit struct {
	btree.Hold
	r *Reorganizer
}

// lock acquires mode on a page for the unit (a deadlock victimisation
// comes back as errUnitAborted). No page and a page the unit already
// holds — swapped leaves can be each other's neighbours — are skipped.
func (u *unit) lock(id storage.PageID, mode lock.Mode) error {
	if id == storage.InvalidPage {
		return nil
	}
	err := u.Lock(pageRes(id), mode)
	if isTransient(err) {
		u.r.c.unitsDeadlocked.Add(1)
		return errUnitAborted
	}
	return err
}

// dealloc logs and performs the deallocation of a page the unit holds
// pinned.
func (u *unit) dealloc(f *storage.Frame) error {
	r := u.r
	u.Unpin(f)
	lsn := r.tree.Log().Append(wal.Dealloc{Page: f.ID()})
	r.table.record(lsn)
	r.c.pagesFreed.Add(1)
	return r.tree.Pager().Deallocate(f.ID(), lsn)
}

// release is the one place a unit lets go of what it holds, on every
// way out: skipped, aborted, failed or finished. The exception is
// an event error, which is a simulated crash: past the first physical
// change of a unit a reader must never see it half-done, so whatever
// the unit holds stays held until Crash() discards the lock table and
// the pool (an injected crash panics straight past this call).
func (u *unit) release() {
	if !u.r.crashed {
		u.Release()
	}
}

// usedPayload is the byte budget a leaf's records consume in a
// destination page (cells plus slot entries).
func usedPayload(p storage.Page) int {
	return p.UsedBytes() + storage.SlotSize*p.NumSlots()
}

// leafCells copies out every record of a leaf; nil for a page that is
// no longer one (forward recovery can meet a source the interrupted run
// had already freed).
func leafCells(f *storage.Frame) [][]byte {
	f.RLock()
	defer f.RUnlock()
	p := f.Data()
	if p.Type() != storage.PageLeaf {
		return nil
	}
	out := make([][]byte, 0, p.NumSlots())
	for i := 0; i < p.NumSlots(); i++ {
		out = append(out, append([]byte(nil), p.Cell(i)...))
	}
	return out
}

// setPtr points one side pointer of page at to (no page: nothing to
// do), logged as a system update that generic recovery redoes.
func (r *Reorganizer) setPtr(page storage.PageID, op wal.Op, to storage.PageID) error {
	if page == storage.InvalidPage {
		return nil
	}
	u := wal.Update{Page: page, Op: op, NewVal: pageops.EncodeChild(to)}
	return pageops.Apply(r.tree.Pager(), u, r.tree.Log().Append(u))
}

// setChainPointers rewires dest's own side pointers and its neighbours'
// (idempotent at redo).
func (r *Reorganizer) setChainPointers(dest, pred, succ storage.PageID) error {
	return errFirst(
		r.setPtr(dest, wal.OpSetPrev, pred),
		r.setPtr(dest, wal.OpSetNext, succ),
		r.setPtr(pred, wal.OpSetNext, dest),
		r.setPtr(succ, wal.OpSetPrev, dest))
}

// moveRecords moves cells, every record of org, into dest inside the
// current unit: one MOVE log record (keys only under careful writing,
// full cells otherwise), chained through the reorg table, then the
// physical move. Under careful writing an org->dest write-ordering
// dependency is installed so the source image can never overtake the
// destination. A record dest already holds is left alone.
func (r *Reorganizer) moveRecords(unit uint64, org, dest *storage.Frame, cells [][]byte) error {
	if len(cells) == 0 {
		return nil
	}
	recs := cells
	if r.cfg.CarefulWriting {
		// dest may still wait on org (org is the page a split of dest
		// filled): org's image goes to disk first, or the two would wait
		// on each other.
		if err := r.tree.Pager().PrepareWriteDep(org.ID(), dest.ID()); err != nil {
			return err
		}
		recs = make([][]byte, 0, len(cells))
		for _, c := range cells {
			k, _ := kv.DecodeLeafCell(c)
			recs = append(recs, k)
		}
	}
	mv := wal.ReorgMove{Unit: unit, PrevLSN: r.table.prevLSN(),
		Org: org.ID(), Dest: dest.ID(), Full: !r.cfg.CarefulWriting,
		Records: recs}
	lsn := r.tree.Log().Append(mv)
	r.table.record(lsn)

	dest.Lock()
	var err error
	for _, c := range cells {
		k, v := kv.DecodeLeafCell(c)
		if ierr := kv.LeafInsert(dest.Data(), k, v); ierr != nil && !errors.Is(ierr, kv.ErrExists) {
			err = fmt.Errorf("core: move into %d: %w", dest.ID(), ierr)
			break
		}
	}
	dest.Data().SetLSN(lsn)
	r.tree.Pager().MarkDirty(dest, lsn)
	// Under careful writing the source waits for the destination's next
	// image, registered under the destination's latch so that image is
	// one that holds the moved records; the source empties only after,
	// so a concurrent flush — a checkpoint's — never writes the emptied
	// source without the dependency in force.
	if r.cfg.CarefulWriting {
		r.tree.Pager().AddWriteDep(org.ID(), dest.ID())
	}
	dest.Unlock()
	if err != nil {
		return err
	}

	org.Lock()
	org.Data().TruncateCells(0)
	org.Data().SetLSN(lsn)
	r.tree.Pager().MarkDirty(org, lsn)
	org.Unlock()
	r.c.recordsMoved.Add(int64(len(cells)))
	return nil
}

// applyModify logs a MODIFY record (chained) and applies the base-page
// entry changes under the base's write latch. The caller holds X on the
// base page.
func (r *Reorganizer) applyModify(m wal.ReorgModify, base *storage.Frame) error {
	m.PrevLSN = r.table.prevLSN()
	lsn := r.tree.Log().Append(m)
	r.table.record(lsn)
	base.Lock()
	err := pageops.ApplyModifyToPage(base.Data(), m)
	base.Data().SetLSN(lsn)
	base.Unlock()
	r.tree.Pager().MarkDirty(base, lsn)
	return err
}

// beginUnit gives the unit its id, logs BEGIN (only after every lock is
// held, §5) and records it in the reorg table in the same step. dest is
// the unit's pinned destination (nil for a swap).
func (r *Reorganizer) beginUnit(b wal.ReorgBegin, dest *storage.Frame) wal.ReorgBegin {
	b.Unit = r.nextUnit
	r.nextUnit++
	lsn := r.table.logBegin(r.tree.Log(), b)
	r.unitStart = time.Now()
	if r.ring != nil {
		newPlace := uint64(0)
		if b.NewPlace {
			newPlace = 1
		}
		r.ring.Emit(obs.EvReorgUnitStart, b.Unit, newPlace)
	}
	if b.NewPlace {
		// Stamp the fresh destination page with the BEGIN LSN so its
		// formatting is ordered against redo.
		dest.Lock()
		dest.Data().SetLSN(lsn)
		dest.Unlock()
		r.tree.Pager().MarkDirty(dest, lsn)
	}
	return b
}

// endUnit logs END and updates LK. The record is not forced: a unit
// whose END is lost is finished again, forward, at restart.
func (r *Reorganizer) endUnit(unit uint64, largestKey []byte) {
	e := wal.ReorgEnd{Unit: unit, PrevLSN: r.table.prevLSN(),
		LargestKey: append([]byte(nil), largestKey...)}
	lsn := r.tree.Log().Append(e)
	r.table.record(lsn)
	r.table.endUnit(largestKey)
	d := time.Since(r.unitStart)
	if r.hUnit != nil {
		r.hUnit.Record(d)
	}
	if r.ring != nil {
		r.ring.Emit(obs.EvReorgUnitEnd, unit, uint64(d.Nanoseconds()))
	}
}

// CompleteUnit is forward recovery (§5.1). Restart calls it, after redo
// and undo, for the one unit whose BEGIN has no END: the locks the
// BEGIN record names are re-acquired — uncontended, the database is not
// open for traffic yet — and the unit is carried to its END by the code
// that runs it live. r is built without CarefulWriting, so what is
// still to move is logged as full-content MOVEs (a second crash has no
// source pre-state to read values from); the log is forced at the end.
func (r *Reorganizer) CompleteUnit(b wal.ReorgBegin, beginLSN uint64) error {
	r.table.beginUnit(b.Unit, beginLSN)
	u := &unit{Hold: r.tree.NewHold(r.owner), r: r}
	err := r.resumeUnit(u, b)
	u.release()
	if err != nil {
		return err
	}
	return r.tree.Log().Flush()
}

// resumeUnit re-acquires what the BEGIN record names, in the live
// unit's order, and enters the unit's body.
func (r *Reorganizer) resumeUnit(u *unit, b wal.ReorgBegin) error {
	swap := b.RType == wal.RSwap
	switch {
	case swap && len(b.LeafPages) == 2 && len(b.BasePages) > 0:
	case (b.RType == wal.RCompact || b.RType == wal.RMove) &&
		len(b.BasePages) == 1 && len(b.Preds) == 1 && len(b.Succs) == 1:
	default:
		return fmt.Errorf("core: malformed BEGIN of unit %d (type %v)", b.Unit, b.RType)
	}
	lockFix := func(ids []storage.PageID, mode lock.Mode) ([]*storage.Frame, error) {
		frames := make([]*storage.Frame, 0, len(ids))
		for _, id := range ids {
			if err := u.lock(id, mode); err != nil {
				return nil, err
			}
			f, err := u.Fix(id)
			if err != nil {
				return nil, err
			}
			frames = append(frames, f)
		}
		return frames, nil
	}
	bases, err := lockFix(b.BasePages, lock.R)
	if err != nil {
		return err
	}
	leaves, err := lockFix(b.LeafPages, lock.RX)
	if err != nil {
		return err
	}
	for _, nb := range append(append([]storage.PageID(nil), b.Preds...), b.Succs...) {
		if err := u.lock(nb, lock.X); err != nil {
			return err
		}
	}
	if swap {
		return r.healSwap(b, leaves, bases)
	}
	// In-place, the destination is the first member: locked already,
	// pinned once more.
	dests, err := lockFix([]storage.PageID{b.Dest}, lock.RX)
	if err != nil {
		return err
	}
	srcs := slices.DeleteFunc(leaves, func(f *storage.Frame) bool { return f.ID() == b.Dest })
	return r.finishCompact(u, b, bases[0], dests[0], srcs)
}
