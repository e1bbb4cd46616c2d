// Package recovery implements restart after a crash: a redo pass from
// the last checkpoint that repeats history (including the logical
// replay of reorganization MOVE/SWAP/MODIFY records under careful
// writing), rollback of loser transactions, and the paper's Forward
// Recovery — an interrupted reorganization unit is finished, not
// undone (§5.1), by handing its BEGIN record to the reorganizer's own
// unit code (core.CompleteUnit). An interrupted internal-page
// reorganization (pass 3) is cleaned up by the reorganizer's own code
// as well (core.ReclaimPass3).
package recovery

import (
	"fmt"

	"repro/internal/btree"
	"repro/internal/core"
	"repro/internal/lock"
	"repro/internal/pageops"
	"repro/internal/storage"
	"repro/internal/txn"
	"repro/internal/wal"
)

// Result reports what restart found and did.
type Result struct {
	RedoneRecords  int
	LosersUndone   int
	UnitCompleted  bool   // forward recovery finished an in-flight unit
	CompletedUnit  uint64 // its id
	Pass3Abandoned bool   // interrupted pass 3 reclaimed
	Pass3Completed bool   // switch was durable; finished the discard
	// ReorgLK is the largest key of the last finished reorganization
	// unit (the paper's LK): pass it as Config.StartKey to resume
	// compaction where it left off.
	ReorgLK   []byte
	NextTxnID uint64
}

// txnState tracks one transaction across the redo scan.
type txnState struct {
	lastLSN uint64
	ended   bool
}

// unitState tracks the (single) in-flight reorganization unit.
type unitState struct {
	begin    wal.ReorgBegin
	beginLSN uint64
	ended    bool
}

// Restart recovers the database from the stable disk behind pager and
// the durable prefix of log, and returns the opened tree. pager, locks
// and txns are a new incarnation's, built over that disk and log and
// not used yet. The caller must have invoked log.Crash() (or be reusing
// a freshly read log).
func Restart(pager *storage.Pager, log *wal.Log, locks *lock.Manager, txns *txn.Manager) (*btree.Tree, *Result, error) {
	res := &Result{}

	// --- analysis: find the redo start point ---
	cpLSN, cp, haveCP := log.LastCheckpoint()
	redoFrom := uint64(1)
	if haveCP {
		// The checkpoint's tables were copied while transactions ran, at
		// some moment after its redo point was read: replaying from that
		// point, over those tables, ends in the state at the crash.
		redoFrom = cpLSN
		if cp.RedoLSN != 0 {
			redoFrom = cp.RedoLSN
		}
		res.NextTxnID = cp.NextTxnID
	}
	active := map[uint64]*txnState{}
	if haveCP {
		for _, t := range cp.ActiveTxns {
			active[t.ID] = &txnState{lastLSN: t.LastLSN}
		}
	}

	// --- redo pass: repeat history from the checkpoint. A checkpoint
	// taken while a unit was in flight backed its redo point up to the
	// unit's BEGIN (DB.Checkpoint, from the reorg table it embeds, §5), so
	// the BEGIN of any unit still in flight lies in this range. ---
	var (
		unit       *unitState
		lastSwitch *wal.SwitchRoot
		maxTxn     uint64
	)
	err := log.Iterate(redoFrom, func(lsn uint64, rec wal.Record) error {
		res.RedoneRecords++
		if id := txnOf(rec); id > maxTxn {
			maxTxn = id
		}
		switch r := rec.(type) {
		case wal.TxnCommit:
			delete(active, r.Txn)
		case wal.TxnEnd:
			delete(active, r.Txn)
		case wal.TxnAbort:
			if st := active[r.Txn]; st != nil {
				st.lastLSN = lsn
			}
		case wal.Update:
			// There is no begin record: a transaction's first update
			// (PrevLSN 0) opens its entry. A committed update is a whole
			// transaction that can never be a loser, and txn 0 is the
			// system's redo-only structure changes.
			switch {
			case r.Committed || r.Txn == 0:
			case r.PrevLSN == 0:
				active[r.Txn] = &txnState{lastLSN: lsn}
			case active[r.Txn] != nil:
				active[r.Txn].lastLSN = lsn
			}
			return pageops.Redo(pager, r.Page, r.Op, r.Key, r.NewVal, lsn)
		case wal.CLR:
			if st := active[r.Txn]; st != nil {
				st.lastLSN = lsn
			}
			return pageops.Redo(pager, r.Page, r.Op, r.Key, r.NewVal, lsn)
		case wal.Split:
			return pageops.ApplySplit(pager, r, lsn)
		case wal.RootSplit:
			return pageops.ApplyRootSplit(pager, r, lsn)
		case wal.FreeChain:
			return pageops.ApplyFreeChain(pager, r, lsn)
		case wal.PageImages:
			return pageops.ApplyImages(pager, r, lsn)
		case wal.Alloc:
			return pageops.RedoAlloc(pager, r, lsn)
		case wal.Dealloc:
			// A page that observed a later operation stays (it may have
			// been reused before the crash).
			return pageops.DeallocateIfUnseen(pager, r.Page, lsn)
		case wal.ReorgBegin:
			unit = &unitState{begin: r, beginLSN: lsn}
			return pageops.RedoReorgBegin(pager, r, lsn)
		case wal.ReorgMove:
			return redoMove(pager, r, lsn)
		case wal.ReorgSwap:
			return redoSwap(pager, r, lsn)
		case wal.ReorgModify:
			return pageops.RedoModify(pager, r, lsn)
		case wal.ReorgEnd:
			if unit != nil && unit.begin.Unit == r.Unit {
				unit.ended = true
			}
			if len(r.LargestKey) > 0 {
				res.ReorgLK = append([]byte(nil), r.LargestKey...)
			}
		case wal.SwitchRoot:
			cp := r
			lastSwitch = &cp
		case wal.StableKey, wal.Checkpoint:
			// bookkeeping only
		}
		return nil
	})
	if err != nil {
		return nil, nil, fmt.Errorf("recovery: redo: %w", err)
	}
	if res.NextTxnID <= maxTxn {
		res.NextTxnID = maxTxn + 1
	}
	txns.SetNextID(res.NextTxnID)

	// Make the disk authoritative before rebuilding the free map: redo
	// may have recreated pages that exist only in buffered frames, and
	// a disk scan would hand their ids out again.
	if err := pager.FlushAll(); err != nil {
		return nil, nil, err
	}
	pager.RebuildFreeMap()

	// --- open the tree: the anchor is authoritative, and opening
	// installs the logical undoer the undo pass needs ---
	tree, err := btree.Open(pager, log, locks, txns)
	if err != nil {
		return nil, nil, err
	}

	// --- undo pass: roll back loser transactions (logical undo: their
	// records are located through the index) ---
	for id, st := range active {
		if st.ended || st.lastLSN == 0 {
			continue
		}
		loser := txns.Resurrect(id, st.lastLSN)
		if err := loser.UndoFrom(st.lastLSN); err != nil {
			return nil, nil, fmt.Errorf("recovery: undo txn %d: %w", id, err)
		}
		loser.FinishRecovery()
		res.LosersUndone++
	}

	// --- forward recovery (§5.1): the one possibly-incomplete unit is
	// finished, not rolled back, and by the reorganizer's own code — it
	// re-acquires the locks the BEGIN record names and carries on ---
	if unit != nil && !unit.ended {
		reorg := core.New(tree, core.Config{})
		if err := reorg.CompleteUnit(unit.begin, unit.beginLSN); err != nil {
			return nil, nil, fmt.Errorf("recovery: forward recovery of unit %d: %w",
				unit.begin.Unit, err)
		}
		res.UnitCompleted = true
		res.CompletedUnit = unit.begin.Unit
	}
	if bit, _ := tree.ReorgState(); bit {
		completed, err := core.ReclaimPass3(tree, lastSwitch)
		if err != nil {
			return nil, nil, fmt.Errorf("recovery: %w", err)
		}
		res.Pass3Completed, res.Pass3Abandoned = completed, !completed
	}

	// Restart checkpoint: everything recovery produced becomes stable,
	// and the free map is rebuilt from the final page states.
	if err := pager.FlushAll(); err != nil {
		return nil, nil, err
	}
	pager.RebuildFreeMap()
	if err := log.Flush(); err != nil {
		return nil, nil, err
	}
	return tree, res, nil
}

// txnOf returns the transaction id a record carries (0 for none or for
// the system): restart must never hand out an id the log has seen.
func txnOf(rec wal.Record) uint64 {
	switch r := rec.(type) {
	case wal.Update:
		return r.Txn
	case wal.CLR:
		return r.Txn
	case wal.TxnCommit:
		return r.Txn
	case wal.TxnAbort:
		return r.Txn
	case wal.TxnEnd:
		return r.Txn
	}
	return 0
}
