package btree

import (
	"errors"
	"fmt"
	"time"

	"repro/internal/kv"
	"repro/internal/lock"
	"repro/internal/storage"
	"repro/internal/txn"
)

// Scan calls fn for every record with lo <= key <= hi (hi nil means
// unbounded) in key order, stopping early when fn returns false. It
// follows the leaf side pointers with S lock coupling; when the next
// leaf is held RX by the reorganizer the scan gives up the coupling
// lock, waits until the reorganizer is done with that leaf, and falls
// back to a fresh descent on the successor key (the reader protocol's
// forgo-and-wait, expressed as re-seek). Scanned leaves are downgraded
// to IS locks held to end of transaction.
func (t *Tree) Scan(tx *txn.Txn, lo, hi []byte, fn func(key, val []byte) bool) error {
	owner := tx.ID()
	if err := t.lockTree(owner, lock.IS); err != nil {
		return err
	}
	seek := append([]byte(nil), lo...)
	inclusive := true
	for hops := 0; hops < 1<<22; hops++ {
		base, leaf, err := t.descendToLeaf(owner, seek, lock.S)
		if err != nil {
			return err
		}
		t.ReleaseBase(owner, base)
		done, last, err := t.scanChain(tx, leaf, seek, hi, inclusive, fn)
		if err != nil || done {
			return err
		}
		// The chain walk was interrupted by the reorganizer: re-seek
		// strictly past the last key it reported.
		seek = last
		inclusive = false
	}
	return fmt.Errorf("btree: scan did not terminate")
}

// scanChain walks leaves from the given (S-locked, pinned) leaf via
// side pointers. done=false means the walk was interrupted and the
// caller should re-seek strictly past `last`.
func (t *Tree) scanChain(tx *txn.Txn, leaf *storage.Frame, lo, hi []byte,
	inclusive bool, fn func(key, val []byte) bool) (done bool, last []byte, err error) {
	owner := tx.ID()
	last = append([]byte(nil), lo...)
	for {
		type rec struct{ k, v []byte }
		var recs []rec
		beyondHi := false
		leaf.RLock()
		p := leaf.Data()
		for i := 0; i < p.NumSlots(); i++ {
			k, v := kv.DecodeLeafCell(p.Cell(i))
			if c := kv.Compare(k, lo); c < 0 || (c == 0 && !inclusive) {
				continue
			}
			if hi != nil && kv.Compare(k, hi) > 0 {
				beyondHi = true
				break
			}
			recs = append(recs, rec{append([]byte(nil), k...), append([]byte(nil), v...)})
		}
		next := p.Next()
		leaf.RUnlock()

		for _, r := range recs {
			last = r.k
			inclusive = false
			if !fn(r.k, r.v) {
				t.finishLeaf(owner, leaf)
				return true, last, nil
			}
		}
		if beyondHi || next == storage.InvalidPage {
			t.finishLeaf(owner, leaf)
			return true, last, nil
		}

		// Couple to the next leaf before releasing the current one.
		lockErr := t.locks.LockOpts(owner, pageRes(next), lock.S, lock.Opt{ForgoOnRX: true})
		if errors.Is(lockErr, lock.ErrReorgConflict) {
			// Forgo, then wait the reorganizer out before the caller
			// re-seeks past `last`. Re-seeking at once would spin: the
			// fresh descent lands on this same leaf and meets the same RX
			// lock, and because the scan never blocks, the lock manager
			// cannot see that the reorganizer in turn waits for the IS
			// lock this scan keeps here until end of transaction. The
			// instant-duration request puts the scan into the waits-for
			// graph, so such a cycle is broken (the reorganizer is always
			// the victim) and every re-seek follows a release of `next`.
			t.finishLeaf(owner, leaf)
			waitStart := time.Now()
			if err := t.locks.LockInstant(owner, pageRes(next), lock.S); err != nil {
				return true, last, err
			}
			if t.hForgoWait != nil {
				t.hForgoWait.Record(time.Since(waitStart))
			}
			return false, last, nil
		}
		if lockErr != nil {
			t.finishLeaf(owner, leaf)
			return true, last, lockErr
		}
		nf, ferr := t.pager.Fix(next)
		if ferr != nil {
			t.locks.Unlock(owner, pageRes(next))
			t.finishLeaf(owner, leaf)
			return true, last, ferr
		}
		t.finishLeaf(owner, leaf)
		leaf = nf
	}
}

// finishLeaf downgrades the scan's S lock to IS (held to end of
// transaction) and unpins the frame.
func (t *Tree) finishLeaf(owner uint64, leaf *storage.Frame) {
	t.locks.Downgrade(owner, pageRes(leaf.ID()), lock.IS)
	t.pager.Unfix(leaf)
}

// Count returns the number of records in [lo, hi].
func (t *Tree) Count(tx *txn.Txn, lo, hi []byte) (int, error) {
	n := 0
	err := t.Scan(tx, lo, hi, func(_, _ []byte) bool {
		n++
		return true
	})
	return n, err
}
