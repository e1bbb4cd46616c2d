package btree

import (
	"fmt"

	"repro/internal/lock"
	"repro/internal/pageops"
	"repro/internal/wal"
)

// UndoUpdate implements txn.Undoer: logical (key-based) undo. The
// record the update touched is located through the index — the
// transaction's own splits may have carried it to a different leaf —
// and the compensating operation is logged as a CLR and applied. The
// transaction still holds its X record lock, so the record cannot move
// while the leaf IX lock is acquired.
func (t *Tree) UndoUpdate(owner uint64, rec wal.Update) (uint64, error) {
	op, key, newVal, err := pageops.Inverse(rec)
	if err != nil {
		return 0, err
	}
	switch rec.Op {
	case wal.OpInsert, wal.OpDelete, wal.OpReplace:
		// fall through to the descent below
	default:
		// Side-pointer and format changes are structure modifications
		// (txn 0) and never appear in an undo chain.
		return 0, fmt.Errorf("btree: op %v cannot be undone logically", rec.Op)
	}

	h := t.NewHold(owner)
	defer h.Release()
	leaf, err := t.descendToLeaf(&h, key, lock.IX, nil)
	if err != nil {
		return 0, err
	}
	clr := wal.CLR{
		Txn:      rec.Txn,
		UndoNext: rec.PrevLSN,
		Page:     leaf.ID(),
		Op:       op,
		Key:      key,
		NewVal:   newVal,
	}
	lsn := t.log.Append(clr)
	leaf.Lock()
	aerr := pageops.ApplyToPage(leaf.Data(), op, key, newVal)
	if aerr == nil {
		leaf.Data().SetLSN(lsn)
	}
	leaf.Unlock()
	t.pager.MarkDirty(leaf, lsn)
	if aerr != nil {
		// An undo-insert can hit a full page (records shuffled by
		// the transaction's own splits); make room with the normal
		// split machinery is not available here, so report it —
		// record sizes are bounded to a quarter page, making this
		// unreachable in practice after a delete freed the space.
		return 0, fmt.Errorf("btree: undo %v of %q on leaf %d: %w",
			op, key, leaf.ID(), aerr)
	}
	return lsn, nil
}
