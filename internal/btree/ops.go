package btree

import (
	"errors"
	"fmt"

	"repro/internal/kv"
	"repro/internal/lock"
	"repro/internal/storage"
	"repro/internal/txn"
	"repro/internal/wal"
)

// lockTree takes the tree lock in the given intention mode against the
// current epoch, retrying if the root switch changes the epoch
// underneath (the old and new trees have distinct lock names, §7.4).
func (t *Tree) lockTree(owner uint64, mode lock.Mode) error {
	for i := 0; i < maxDescendRetries; i++ {
		_, epoch := t.Root()
		if err := t.locks.Lock(owner, lock.TreeRes(epoch), mode); err != nil {
			return err
		}
		if _, e2 := t.Root(); e2 == epoch {
			return nil
		}
		t.locks.Unlock(owner, lock.TreeRes(epoch))
	}
	return fmt.Errorf("btree: tree lock did not stabilise")
}

// applyLogged validates, logs (logLeafOp) and applies one record
// operation on a leaf under its write latch, and reports whether it left
// the leaf empty (a delete's caller then defers a free to commit).
// Validation happens before logging so a failed operation (duplicate
// key, missing key, full page) leaves no log record behind. The caller
// holds the logical locks.
func (t *Tree) applyLogged(tx *txn.Txn, f *storage.Frame, u wal.Update) (emptied bool, err error) {
	f.Lock()
	defer f.Unlock()
	p := f.Data()
	// Validation finds the slot once; the apply below reuses it instead
	// of re-searching through pageops.ApplyToPage (redo keeps using that
	// path, where no validated slot exists).
	slot, found := kv.Search(p, u.Key)
	switch u.Op {
	case wal.OpInsert:
		if found {
			return false, fmt.Errorf("btree: insert %q: %w", u.Key, kv.ErrExists)
		}
		if p.FreeSpace() < 2+len(u.Key)+len(u.NewVal) {
			return false, storage.ErrPageFull
		}
	case wal.OpDelete:
		if !found {
			return false, fmt.Errorf("btree: delete %q: %w", u.Key, kv.ErrNotFound)
		}
	case wal.OpReplace:
		if !found {
			return false, fmt.Errorf("btree: replace %q: %w", u.Key, kv.ErrNotFound)
		}
		_, old := kv.DecodeLeafCell(p.Cell(slot))
		if len(u.NewVal) > len(old) && p.FreeSpace() < 2+len(u.Key)+len(u.NewVal) {
			return false, storage.ErrPageFull
		}
	default:
		return false, fmt.Errorf("btree: applyLogged does not handle %v", u.Op)
	}
	lsn := logLeafOp(tx, p, slot, u)
	switch u.Op {
	case wal.OpInsert:
		err = p.InsertCell(slot, kv.EncodeLeafCell(u.Key, u.NewVal))
	case wal.OpDelete:
		err = p.DeleteCell(slot)
	case wal.OpReplace:
		err = p.ReplaceCell(slot, kv.EncodeLeafCell(u.Key, u.NewVal))
	}
	if err != nil {
		// Validation above makes this unreachable; fail loudly if not.
		panic(fmt.Sprintf("btree: logged op failed to apply: %v", err))
	}
	p.SetLSN(lsn)
	t.pager.MarkDirty(f, lsn)
	// Under the latch: a later look could see another delete empty the
	// leaf and hand this one, maybe committed already, a free to defer.
	return p.NumSlots() == 0, nil
}

// Get returns the value for key (a copy), taking an IS tree lock,
// lock-coupling to the leaf with the forgo-on-RX protocol, an IS page
// lock and an S record lock held to end of transaction.
//
//vet:hotpath -- the point-read descent must stay allocation-free (PR 7)
func (t *Tree) Get(tx *txn.Txn, key []byte) ([]byte, bool, error) {
	owner := tx.ID()
	if err := t.lockTree(owner, lock.IS); err != nil {
		return nil, false, err
	}
	h := t.NewHold(owner)
	defer h.Release()
	leaf, err := t.descendToLeaf(&h, key, lock.IS, nil)
	if err != nil {
		return nil, false, err
	}
	if err := t.locks.Lock(owner, recordRes(key), lock.S); err != nil {
		return nil, false, err
	}
	leaf.RLock()
	v, ok := kv.LeafGet(leaf.Data(), key)
	var out []byte
	if ok {
		//vet:allow(hotalloc) -- the returned copy is Get's API contract: the caller keeps the value past the latch
		out = append([]byte(nil), v...)
	}
	leaf.RUnlock()
	return out, ok, nil // the IS page lock stays until end of transaction
}

// Insert adds (key, value). Duplicate keys return kv.ErrExists.
func (t *Tree) Insert(tx *txn.Txn, key, val []byte) error {
	if err := t.ValidateRecord(key, val); err != nil {
		return err
	}
	return t.modify(tx, wal.Update{Op: wal.OpInsert, Key: key, NewVal: val})
}

// Update replaces the value of an existing key.
func (t *Tree) Update(tx *txn.Txn, key, val []byte) error {
	if err := t.ValidateRecord(key, val); err != nil {
		return err
	}
	return t.modify(tx, wal.Update{Op: wal.OpReplace, Key: key, NewVal: val})
}

// Delete removes key. Emptied leaves are deallocated at commit
// (free-at-empty deferred so record undo stays sound).
func (t *Tree) Delete(tx *txn.Txn, key []byte) error {
	return t.modify(tx, wal.Update{Op: wal.OpDelete, Key: key})
}

// modify runs one record operation under the updater protocol: IX tree
// lock, descent to the leaf with IX (forgo on RX), X record lock, then
// the logged apply. A full page escalates to the split path.
func (t *Tree) modify(tx *txn.Txn, u wal.Update) error {
	owner := tx.ID()
	if err := t.lockTree(owner, lock.IX); err != nil {
		return err
	}
	h := t.NewHold(owner)
	defer h.Release()
	for attempt := 0; attempt < maxDescendRetries; attempt++ {
		leaf, err := t.descendToLeaf(&h, u.Key, lock.IX, nil)
		if err != nil {
			return err
		}
		if err := t.locks.Lock(owner, recordRes(u.Key), lock.X); err != nil {
			return err
		}
		u.Page = leaf.ID()
		emptied, err := t.applyLogged(tx, leaf, u)
		if emptied {
			t.deferFree(tx, leaf.ID(), u.Key)
		}
		h.Release()
		if errors.Is(err, storage.ErrPageFull) {
			if err = t.insertSMO(tx, u); err == errRetryDescent {
				continue
			}
		}
		return err
	}
	return fmt.Errorf("btree: modify of %q did not converge", u.Key)
}

// logLeafOp logs u, a validated operation on the record at slot of leaf
// p, and returns its LSN. An auto-commit write (tx.OneShot) is logged as
// one committed record with no before-image, unless it is a delete that
// empties the leaf: that one defers a free to commit, which can still
// fail, so it keeps the chained record, its before-image and its commit
// record.
func logLeafOp(tx *txn.Txn, p storage.Page, slot int, u wal.Update) uint64 {
	if tx.OneShot() && (u.Op != wal.OpDelete || p.NumSlots() > 1) {
		return tx.LogCommitted(u)
	}
	if u.Op != wal.OpInsert {
		_, old := kv.DecodeLeafCell(p.Cell(slot))
		u.OldVal = append([]byte(nil), old...)
	}
	return tx.LogUpdate(u)
}
