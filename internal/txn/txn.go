// Package txn provides transactions: ids, update logging with prevLSN
// chains, commit (log force + lock release) and abort (chain-walking
// undo with CLRs). The reorganization process is not a transaction —
// it logs reorg-unit records and recovers forward — but it registers an
// owner id here so the lock manager can victimise it.
package txn

import (
	"fmt"
	"sync"
	"sync/atomic"

	"repro/internal/lock"
	"repro/internal/pageops"
	"repro/internal/storage"
	"repro/internal/wal"
)

// Status is a transaction's lifecycle state.
type Status uint8

// Transaction states.
const (
	Active Status = iota
	Committed
	Aborted
)

// Txn is one transaction.
type Txn struct {
	id      uint64
	mgr     *Manager
	mu      sync.Mutex
	lastLSN uint64
	// firstLSN is the LSN of the transaction's first update, the one
	// with PrevLSN 0 (0 until LogUpdate logs it): undo walks back to
	// it, so log retention must not pass it while the transaction is
	// registered.
	firstLSN uint64
	status   Status
	// begun is set once the first update is in the log. There is no
	// begin record, and registration waits for that update, so a
	// read-only transaction writes no log records at all and its commit
	// forces nothing — the dominant cost on the read hot path. Recovery
	// is unaffected: restart analysis is a pure log scan, so a
	// transaction that never logged is invisible to it (correctly — it
	// has nothing to redo or undo).
	begun bool
	// single marks an auto-commit write (MarkSingleRecord): its one
	// update may be logged as a committed record.
	single bool
	// inRecord is set when LogCommitted committed the transaction in its
	// update record; Commit still owes the log force and the lock
	// release.
	inRecord bool
	// deferred is set when work waits for the transaction's end (the
	// tree's free-at-empty, run at commit); only the owning goroutine
	// touches it.
	deferred bool
}

// Undoer applies the compensating operation for one logged update,
// locating the record through the index (logical undo, ARIES/IM
// style): the transaction's own page splits may have moved an
// uncommitted record away from the page the update was logged against.
type Undoer interface {
	UndoUpdate(ownerID uint64, rec wal.Update) (clrLSN uint64, err error)
}

// Manager creates transactions and tracks the active set (for
// checkpoints and restart analysis).
//
// Registration in the active set is lazy: a transaction enters the map
// on its first LogUpdate, and one that commits in its only record
// (LogCommitted) never does. A transaction that never logs is invisible
// to checkpoints and restart analysis anyway (ActiveSnapshot filters on
// begun), so read-only operations skip the manager mutex and map churn
// entirely.
type Manager struct {
	log   *wal.Log
	locks *lock.Manager
	pager *storage.Pager

	// nextID is atomic so Begin (every client operation) allocates ids
	// without taking mu.
	nextID atomic.Uint64

	mu     sync.Mutex
	active map[uint64]*Txn
	undoer Undoer
}

// SetUndoer installs the logical undo implementation (the B+-tree).
func (m *Manager) SetUndoer(u Undoer) {
	m.mu.Lock()
	defer m.mu.Unlock()
	m.undoer = u
}

func (m *Manager) getUndoer() Undoer {
	m.mu.Lock()
	defer m.mu.Unlock()
	return m.undoer
}

// NewManager returns a transaction manager over the given log, lock
// manager and buffer pool.
func NewManager(log *wal.Log, locks *lock.Manager, pager *storage.Pager) *Manager {
	m := &Manager{log: log, locks: locks, pager: pager,
		active: make(map[uint64]*Txn)}
	m.nextID.Store(1)
	return m
}

// Locks returns the lock manager (shared with the tree and reorganizer).
func (m *Manager) Locks() *lock.Manager { return m.locks }

// Log returns the write-ahead log.
func (m *Manager) Log() *wal.Log { return m.log }

// SetNextID bumps the id generator (recovery restores it from the
// checkpoint so restarted systems never reuse ids).
func (m *Manager) SetNextID(id uint64) {
	for {
		cur := m.nextID.Load()
		if id <= cur || m.nextID.CompareAndSwap(cur, id) {
			return
		}
	}
}

// NextOwnerID hands out an id from the transaction id space without
// creating a transaction (used by the reorganizer process).
func (m *Manager) NextOwnerID() uint64 {
	return m.nextID.Add(1) - 1
}

// Begin starts a transaction. Nothing is logged until its first
// update, so transactions that never write stay out of the log
// entirely.
func (m *Manager) Begin() *Txn { return m.BeginAt(new(Txn)) }

// BeginAt initializes t (which must be zero-valued and unshared) as a
// new transaction. It exists so callers that wrap Txn in their own
// handle can embed it and pay one allocation per transaction instead
// of two — Begin sits on the hot path of every client operation.
// Registration in the active set is deferred to the first LogUpdate.
func (m *Manager) BeginAt(t *Txn) *Txn {
	t.id = m.nextID.Add(1) - 1
	t.mgr = m
	return t
}

// Resurrect recreates a loser transaction at restart so it can be
// rolled back; lastLSN comes from restart analysis.
func (m *Manager) Resurrect(id, lastLSN uint64) *Txn {
	// Its first update is somewhere below lastLSN: firstLSN 1 keeps the
	// whole log while it is registered.
	t := &Txn{id: id, mgr: m, lastLSN: lastLSN, firstLSN: 1, begun: true}
	m.mu.Lock()
	m.active[id] = t
	m.mu.Unlock()
	m.SetNextID(id + 1)
	return t
}

// ActiveSnapshot lists active transactions for a checkpoint, together
// with the retention horizon they impose: the smallest first LSN of any
// registered transaction that has logged (0 when there is none). A
// transaction that registers after the snapshot logs its first update
// later still, so the caller's redo point — read before the snapshot —
// already covers it. A transaction that commits in its only record is
// never registered, so it is never listed. The map is copied before the
// per-transaction locks are taken: LogUpdate registers a transaction
// while holding its own mutex, so holding m.mu across t.mu here would
// invert that order.
func (m *Manager) ActiveSnapshot() (active []wal.TxnInfo, horizon uint64) {
	m.mu.Lock()
	txns := make([]*Txn, 0, len(m.active))
	for _, t := range m.active {
		txns = append(txns, t)
	}
	m.mu.Unlock()
	active = make([]wal.TxnInfo, 0, len(txns))
	for _, t := range txns {
		t.mu.Lock()
		// A transaction that has not logged anything is invisible to
		// restart analysis and must stay invisible to the checkpoint,
		// or recovery would roll back (and log an end record for) a
		// transaction that has no record at all. One whose commit or end
		// record is in the log is no longer active either, though it
		// stays registered until its log force returns and its locks are
		// released: listed, it would be undone as a loser.
		if t.begun && t.status == Active {
			active = append(active, wal.TxnInfo{ID: t.id, LastLSN: t.lastLSN})
		}
		if t.firstLSN != 0 && (horizon == 0 || t.firstLSN < horizon) {
			horizon = t.firstLSN
		}
		t.mu.Unlock()
	}
	return active, horizon
}

// NextID returns the id the next Begin would use (checkpointed).
func (m *Manager) NextID() uint64 { return m.nextID.Load() }

// ID returns the transaction id (also its lock-owner id).
func (t *Txn) ID() uint64 { return t.id }

// LastLSN returns the transaction's most recent log record.
func (t *Txn) LastLSN() uint64 {
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.lastLSN
}

// Status returns the transaction's state.
func (t *Txn) Status() Status {
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.status
}

// LogUpdate appends an update record chained to this transaction and
// returns its LSN. The caller applies the change to the page itself
// (or uses pageops.Apply). The first update carries PrevLSN 0 — it is
// the transaction's begin — and registers the transaction.
//
//vet:coldpath -- accounting boundary: the WAL allocates each record's encoded image by design; log-append cost is measured on its own (BenchmarkLog*) and is not part of the descent's allocation budget
func (t *Txn) LogUpdate(u wal.Update) uint64 {
	t.mu.Lock()
	defer t.mu.Unlock()
	if !t.begun {
		t.begun = true
		// Deferred registration: the transaction becomes visible to
		// checkpoints only once it has something in the log.
		t.mgr.mu.Lock()
		t.mgr.active[t.id] = t
		t.mgr.mu.Unlock()
	}
	u.Txn = t.id
	u.PrevLSN = t.lastLSN
	lsn := t.mgr.log.Append(u)
	if t.firstLSN == 0 {
		t.firstLSN = lsn
	}
	t.lastLSN = lsn
	return lsn
}

// MarkSingleRecord declares an auto-commit write: the transaction logs
// at most one update and commits right after it, so OneShot lets that
// update be logged as a committed record.
func (t *Txn) MarkSingleRecord() { t.single = true }

// OneShot reports whether the next update may be logged by LogCommitted:
// the transaction is marked single-record and has logged nothing. Only
// the owning goroutine writes the fields it reads.
func (t *Txn) OneShot() bool { return t.single && t.lastLSN == 0 }

// MarkDeferred records that work waits for the transaction's end;
// Deferred reports it, so a transaction that deferred nothing — every
// Get, nearly every write — skips the lookup at commit.
func (t *Txn) MarkDeferred()  { t.deferred = true }
func (t *Txn) Deferred() bool { return t.deferred }

// LogCommitted appends u as a committed update — the whole transaction
// in one redo-only record, without PrevLSN or before-image — and returns
// its LSN. The transaction is committed from the moment the record is
// appended: it is never registered, so no checkpoint lists it and
// restart never undoes it. Commit then forces the log to the record and
// releases the locks. Only a transaction that is OneShot may call it.
func (t *Txn) LogCommitted(u wal.Update) uint64 {
	u.Txn, u.PrevLSN, u.OldVal, u.Committed = t.id, 0, nil, true
	t.mu.Lock()
	defer t.mu.Unlock()
	t.lastLSN = t.mgr.log.Append(u)
	t.status = Committed
	t.inRecord = true
	return t.lastLSN
}

// Lock acquires a lock owned by this transaction.
func (t *Txn) Lock(res lock.Resource, mode lock.Mode) error {
	return t.mgr.locks.Lock(t.id, res, mode)
}

// LockOpts acquires a lock with options.
func (t *Txn) LockOpts(res lock.Resource, mode lock.Mode, opt lock.Opt) error {
	return t.mgr.locks.LockOpts(t.id, res, mode, opt)
}

// Unlock releases one lock early (lock coupling releases parents before
// end of transaction).
func (t *Txn) Unlock(res lock.Resource) {
	t.mgr.locks.Unlock(t.id, res)
}

// Commit logs the commit, forces the log, and releases all locks. A
// transaction that never logged an update commits without touching
// the log: there is nothing to make durable, so the commit record and
// the forced write are both skipped. One that LogCommitted committed in
// its update record only forces the log to that record.
func (t *Txn) Commit() error {
	t.mu.Lock()
	lsn := t.lastLSN
	switch {
	case t.inRecord:
		t.inRecord = false
	case t.status != Active:
		t.mu.Unlock()
		return fmt.Errorf("txn %d: commit of %v transaction", t.id, t.status)
	case !t.begun:
		t.status = Committed
		t.mu.Unlock()
		t.finish()
		return nil
	default:
		lsn = t.mgr.log.Append(wal.TxnCommit{Txn: t.id, PrevLSN: t.lastLSN})
		t.lastLSN = lsn
		t.status = Committed
	}
	t.mu.Unlock()
	if err := t.mgr.log.FlushTo(lsn); err != nil {
		return err
	}
	t.finish()
	return nil
}

// Abort rolls the transaction back: it walks the prevLSN chain applying
// compensating operations (logging CLRs), logs the end record, and
// releases all locks.
func (t *Txn) Abort() error {
	t.mu.Lock()
	if t.status != Active {
		t.mu.Unlock()
		return fmt.Errorf("txn %d: abort of %v transaction", t.id, t.status)
	}
	if !t.begun {
		t.status = Aborted
		t.mu.Unlock()
		t.finish()
		return nil
	}
	t.lastLSN = t.mgr.log.Append(wal.TxnAbort{Txn: t.id, PrevLSN: t.lastLSN})
	cursor := t.lastLSN
	t.mu.Unlock()

	// The undo descents below take page locks and can join a deadlock
	// cycle; the flag keeps the detector from victimising this rollback
	// (a failed abort would strand every lock the transaction holds).
	// ReleaseAll in finish clears it.
	t.mgr.locks.SetAborting(t.id, true)
	if err := t.undoFrom(cursor); err != nil {
		t.mgr.locks.SetAborting(t.id, false)
		return err
	}

	t.mu.Lock()
	t.lastLSN = t.mgr.log.Append(wal.TxnEnd{Txn: t.id, PrevLSN: t.lastLSN})
	t.status = Aborted
	t.mu.Unlock()
	t.finish()
	return nil
}

// undoFrom walks the chain starting at lsn, undoing updates. CLRs are
// skipped via UndoNext so undo is itself idempotent across crashes.
func (t *Txn) undoFrom(lsn uint64) error {
	for lsn != 0 {
		rec, _, err := t.mgr.log.Read(lsn)
		if err != nil {
			return err
		}
		switch r := rec.(type) {
		case wal.TxnAbort:
			lsn = r.PrevLSN
		case wal.Update:
			var clrLSN uint64
			var err error
			if u := t.mgr.getUndoer(); u != nil {
				clrLSN, err = u.UndoUpdate(t.id, r)
			} else {
				clrLSN, err = pageops.Undo(t.mgr.pager, t.mgr.log, r)
			}
			if err != nil {
				return err
			}
			t.mu.Lock()
			t.lastLSN = clrLSN
			t.mu.Unlock()
			lsn = r.PrevLSN
		case wal.CLR:
			lsn = r.UndoNext
		default:
			return fmt.Errorf("txn %d: unexpected %T in undo chain", t.id, rec)
		}
	}
	return nil
}

// UndoFrom exposes chain undo for restart recovery (rolling back loser
// transactions from their last known LSN).
func (t *Txn) UndoFrom(lsn uint64) error { return t.undoFrom(lsn) }

// FinishRecovery logs the end record after a restart rollback and
// releases the transaction's slot.
func (t *Txn) FinishRecovery() {
	t.mu.Lock()
	t.lastLSN = t.mgr.log.Append(wal.TxnEnd{Txn: t.id, PrevLSN: t.lastLSN})
	t.status = Aborted
	t.mu.Unlock()
	t.finish()
}

func (t *Txn) finish() {
	t.mgr.locks.ReleaseAll(t.id)
	t.mu.Lock()
	begun := t.begun
	t.mu.Unlock()
	if begun {
		t.mgr.mu.Lock()
		delete(t.mgr.active, t.id)
		t.mgr.mu.Unlock()
	}
}
