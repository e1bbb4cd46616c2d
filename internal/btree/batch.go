package btree

import (
	"errors"
	"fmt"
	"sort"

	"repro/internal/kv"
	"repro/internal/lock"
	"repro/internal/storage"
	"repro/internal/txn"
	"repro/internal/wal"
)

// maxBatchRun caps how many records one descent applies under a single
// leaf latch: it bounds latch hold time and the number of record locks
// held before the latch is taken.
const maxBatchRun = 64

// InsertBatch inserts the given records, amortising tree descents:
// the batch is applied in key order, and each descent applies the whole
// run of consecutive keys covered by the reached leaf under one frame
// latch and one log sequence. Locking is the updater protocol of
// modify — IX tree lock, IX leaf page lock, X record locks (taken in
// key order before the leaf latch, so lock waits stay visible to the
// deadlock detector) — making a batch indistinguishable from the
// equivalent single inserts to concurrent transactions and to recovery.
//
// Duplicate keys (within the batch or against the tree) fail with
// kv.ErrExists; records already applied stay applied, so callers
// wanting atomicity abort the transaction on error.
func (t *Tree) InsertBatch(tx *txn.Txn, keys, vals [][]byte) error {
	n := len(keys)
	if n != len(vals) {
		return fmt.Errorf("btree: batch has %d keys but %d values", n, len(vals))
	}
	if n == 0 {
		return nil
	}
	for i := range keys {
		if err := t.ValidateRecord(keys[i], vals[i]); err != nil {
			return err
		}
	}
	order := make([]int, n)
	for i := range order {
		order[i] = i
	}
	sort.Slice(order, func(a, b int) bool {
		return kv.Compare(keys[order[a]], keys[order[b]]) < 0
	})
	for i := 1; i < n; i++ {
		if kv.Compare(keys[order[i-1]], keys[order[i]]) == 0 {
			return fmt.Errorf("btree: batch insert %q: %w", keys[order[i]], kv.ErrExists)
		}
	}

	owner := tx.ID()
	if err := t.lockTree(owner, lock.IX); err != nil {
		return err
	}
	h := t.NewHold(owner)
	defer h.Release()
	var bound []byte
	next := 0
	for next < n {
		key := keys[order[next]]
		// The leaf's coverage ends at the base page's next entry
		// (bound). The IX page lock blocks splits of this leaf and
		// reorganization, and changes to the right sibling only ever
		// move the true bound up, so the snapshot stays a safe
		// (conservative) run limit. When the leaf hangs off the base's
		// last entry its bound lives in an ancestor; fall back to one
		// record for that descent.
		leaf, err := t.descendToLeaf(&h, key, lock.IX, &bound)
		if err != nil {
			return err
		}
		end := next + 1
		if bound != nil {
			for end < n && end-next < maxBatchRun && kv.Compare(keys[order[end]], bound) < 0 {
				end++
			}
		}
		for i := next; i < end; i++ {
			if err := t.locks.Lock(owner, recordRes(keys[order[i]]), lock.X); err != nil {
				return err
			}
		}
		applied, aerr := t.applyBatchLogged(tx, leaf, keys, vals, order[next:end])
		h.Release()
		next += applied
		if aerr == nil {
			continue
		}
		if errors.Is(aerr, storage.ErrPageFull) {
			// The next record did not fit: take the split path for it,
			// then resume batching on a fresh descent.
			u := wal.Update{Op: wal.OpInsert, Key: keys[order[next]], NewVal: vals[order[next]]}
			for attempt := 0; ; attempt++ {
				if attempt > maxDescendRetries {
					return fmt.Errorf("btree: batch insert of %q did not converge", u.Key)
				}
				serr := t.insertSMO(tx, u)
				if serr == errRetryDescent {
					continue
				}
				if serr != nil {
					return serr
				}
				break
			}
			next++
			continue
		}
		return aerr
	}
	return nil
}

// applyBatchLogged applies a run of inserts to one leaf under a single
// frame latch, validating, logging and applying each in order. It
// returns how many were applied; on error the remainder of the run is
// untouched (the failing record is at index "applied" of idx).
//
//vet:hotpath -- the InsertBatch leaf-run inner loop (PR 7's 1.9x)
func (t *Tree) applyBatchLogged(tx *txn.Txn, f *storage.Frame, keys, vals [][]byte, idx []int) (int, error) {
	f.Lock()
	defer f.Unlock()
	p := f.Data()
	var cell []byte // reused across the run; InsertCell copies it into the page
	for applied, j := range idx {
		key, val := keys[j], vals[j]
		slot, found := kv.Search(p, key)
		if found {
			return applied, fmt.Errorf("btree: insert %q: %w", key, kv.ErrExists)
		}
		if p.FreeSpace() < 2+len(key)+len(val) {
			return applied, storage.ErrPageFull
		}
		lsn := tx.LogUpdate(wal.Update{Page: f.ID(), Op: wal.OpInsert, Key: key, NewVal: val})
		cell = kv.AppendLeafCell(cell[:0], key, val)
		if err := p.InsertCell(slot, cell); err != nil {
			// The space check above makes this unreachable.
			panic(fmt.Sprintf("btree: logged batch insert failed to apply: %v", err))
		}
		p.SetLSN(lsn)
		t.pager.MarkDirty(f, lsn)
	}
	return len(idx), nil
}
