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
//
// key and val are valid only until fn returns: they alias a buffer the
// scan refills leaf after leaf, so fn copies whatever it keeps.
func (t *Tree) Scan(tx *txn.Txn, lo, hi []byte, fn func(key, val []byte) bool) error {
	owner := tx.ID()
	if err := t.lockTree(owner, lock.IS); err != nil {
		return err
	}
	b := t.getScanBuf()
	defer t.scanBufs.Put(b)
	b.seek = append(b.seek[:0], lo...)
	h := t.NewHold(owner)
	defer h.Release()
	inclusive := true
	for hops := 0; hops < 1<<22; hops++ {
		leaf, err := t.descendToLeaf(&h, b.seek, lock.S, nil)
		if err != nil {
			return err
		}
		done, err := t.scanChain(&h, leaf, b, hi, inclusive, fn)
		if err != nil || done {
			return err
		}
		// The chain walk was interrupted by the reorganizer: re-seek
		// strictly past the last key it reported (left in b.seek).
		inclusive = false
	}
	return fmt.Errorf("btree: scan did not terminate")
}

// scanBuf is one scan's copy of a leaf's qualifying records. data holds
// keys and values back to back; ends[2i] and ends[2i+1] are the end
// offsets of record i's key and value in data. seek is where the scan
// (re)starts: lo, then after each leaf the last key handed to fn.
type scanBuf struct {
	data []byte
	ends []int
	seek []byte
}

// getScanBuf takes a buffer from the tree's pool; a fresh one is sized
// for a whole page, the most one leaf can fill it with.
func (t *Tree) getScanBuf() *scanBuf {
	if b, ok := t.scanBufs.Get().(*scanBuf); ok {
		return b
	}
	return &scanBuf{data: make([]byte, 0, t.pager.PageSize())}
}

// scanChain walks leaves from the given leaf, S-locked and pinned in h,
// via side pointers, starting at b.seek (strictly past it unless
// inclusive). Each leaf's qualifying records are copied into b under
// the read latch and handed to fn once it is released. done=false
// means the walk was interrupted and the caller should re-seek
// strictly past b.seek; h is empty then.
//
//vet:hotpath -- the per-row scan loop copies rows into the pooled buffer
func (t *Tree) scanChain(h *Hold, leaf *storage.Frame, b *scanBuf, hi []byte,
	inclusive bool, fn func(key, val []byte) bool) (done bool, err error) {
	first := true
	for {
		b.data, b.ends = b.data[:0], b.ends[:0]
		beyondHi := false
		leaf.RLock()
		p := leaf.Data()
		i := 0
		if first {
			// Later leaves hold only keys above the seek key.
			var found bool
			i, found = kv.Search(p, b.seek)
			if found && !inclusive {
				i++
			}
			first = false
		}
		for n := p.NumSlots(); i < n; i++ {
			k, v := kv.DecodeLeafCell(p.Cell(i))
			if hi != nil && kv.Compare(k, hi) > 0 {
				beyondHi = true
				break
			}
			b.data = append(b.data, k...)
			b.ends = append(b.ends, len(b.data))
			b.data = append(b.data, v...)
			b.ends = append(b.ends, len(b.data))
		}
		next := p.Next()
		leaf.RUnlock()

		// Full slice expressions cap each field at its end, so an
		// append in fn reallocates instead of overwriting the next one.
		var k []byte
		start := 0
		for j := 0; j < len(b.ends); j += 2 {
			kEnd, vEnd := b.ends[j], b.ends[j+1]
			k = b.data[start:kEnd:kEnd]
			start = vEnd
			if !fn(k, b.data[kEnd:vEnd:vEnd]) {
				t.finishLeaf(h, leaf)
				return true, nil
			}
		}
		if beyondHi || next == storage.InvalidPage {
			t.finishLeaf(h, leaf)
			return true, nil
		}
		if k != nil {
			// The buffer is refilled from the next leaf, and a forgo
			// re-seeks past the last key handed to fn: keep a copy.
			b.seek = append(b.seek[:0], k...)
		}

		// Couple to the next leaf: one lock-manager call takes S on it
		// and, once granted, downgrades the current leaf to IS. Like
		// the descent's leaf lock, the next leaf's is the
		// transaction's from the start.
		lockErr := h.handOff(pageRes(leaf.ID()), lock.IS, pageRes(next), lock.S, lock.Opt{ForgoOnRX: true})
		if errors.Is(lockErr, lock.ErrReorgConflict) {
			// Forgo, then wait the reorganizer out before the caller
			// re-seeks past b.seek. Re-seeking at once would spin: the
			// fresh descent lands on this same leaf and meets the same RX
			// lock, and because the scan never blocks, the lock manager
			// cannot see that the reorganizer in turn waits for the IS
			// lock this scan keeps here until end of transaction. The
			// instant-duration request puts the scan into the waits-for
			// graph, so such a cycle is broken (the reorganizer is always
			// the victim) and every re-seek follows a release of `next`.
			t.finishLeaf(h, leaf)
			waitStart := time.Now()
			if err := t.locks.LockInstant(h.owner, pageRes(next), lock.S); err != nil {
				return true, err
			}
			if t.hForgoWait != nil {
				t.hForgoWait.Record(time.Since(waitStart))
			}
			return false, nil
		}
		if lockErr != nil {
			t.finishLeaf(h, leaf)
			return true, lockErr
		}
		nf, err := h.Fix(next)
		h.Unpin(leaf)
		if err != nil {
			return true, err
		}
		leaf = nf
	}
}

// finishLeaf downgrades the scan's S lock on leaf to IS, held to end of
// transaction, and gives back its pin.
func (t *Tree) finishLeaf(h *Hold, leaf *storage.Frame) {
	t.locks.Downgrade(h.owner, pageRes(leaf.ID()), lock.IS)
	h.Unpin(leaf)
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
