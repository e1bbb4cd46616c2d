// Package repro is an implementation of Salzberg & Zou, "On-line
// Reorganization of Sparsely-populated B+-trees" (SIGMOD 1996): a
// primary-index B+-tree with record-level concurrency that can be
// reorganized — leaves compacted, placed in key order on disk, and the
// internal levels rebuilt and switched — while readers and updaters
// keep running, losing at most one page-group's worth of work at a
// crash thanks to forward recovery.
//
// The DB type bundles the simulated disk, buffer pool, write-ahead
// log, lock manager, transaction manager and tree behind a small
// surface:
//
//	db, _ := repro.Open(repro.Options{})
//	_ = db.Insert([]byte("k"), []byte("v"))
//	stats, _ := db.Reorganize(repro.DefaultReorgConfig())
//
// Crash() and Restart() expose the simulated failure semantics used by
// the recovery experiments.
package repro

import (
	"errors"
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/btree"
	"repro/internal/core"
	"repro/internal/daemon"
	"repro/internal/fault"
	"repro/internal/kv"
	"repro/internal/lock"
	"repro/internal/metrics"
	"repro/internal/obs"
	"repro/internal/recovery"
	"repro/internal/storage"
	"repro/internal/txn"
	"repro/internal/wal"
)

// Errors surfaced by the public API.
var (
	// ErrNotFound reports a missing key.
	ErrNotFound = kv.ErrNotFound
	// ErrExists reports a duplicate insert.
	ErrExists = kv.ErrExists
	// ErrDeadlock reports the transaction was chosen as a deadlock
	// victim; abort and retry.
	ErrDeadlock = lock.ErrDeadlock
	// ErrSwitched reports the tree switched under the transaction during
	// reorganization; abort and retry.
	ErrSwitched = btree.ErrSwitched
)

// IsRetryable reports whether err means "abort the transaction and try
// again" (deadlock victimisation or a reorganization switch).
func IsRetryable(err error) bool {
	return errors.Is(err, ErrDeadlock) || errors.Is(err, ErrSwitched) ||
		errors.Is(err, lock.ErrTimeout)
}

// Options configures Open.
type Options struct {
	// PageSize in bytes (default 4096, minimum 128).
	PageSize int
	// BufferPoolPages caps resident frames (0 = unbounded) of a newly
	// created database. A reopened or restarted one runs with an
	// unbounded pool for now (recoveryPoolPages).
	BufferPoolPages int
	// Dir, when non-empty, selects the file backend: pages live in
	// Dir/pages.db (checksummed page frames, real fsync) and the WAL in
	// Dir/wal/ as rotated segment files. Opening a directory that
	// already holds a database runs crash recovery against its files
	// and resumes it. Empty Dir (the default) keeps everything in
	// memory with simulated crash semantics.
	Dir string
	// WALSegmentBytes overrides the WAL segment size: the rotation
	// threshold, and what a new segment is preallocated to (file backend
	// only; default wal.DefaultSegmentBytes).
	WALSegmentBytes int64
	// FaultInjector, when set, is installed at the disk, WAL, pager and
	// reorganizer fault points (see internal/fault). It survives
	// Restart: recovery runs against the same injector, so sweeps must
	// Disarm it before restarting.
	FaultInjector *fault.Injector
	// DisableObservability turns off latency histograms, the trace ring
	// and logical-byte accounting entirely (no time.Now per operation).
	// The default — observability on — costs two clock reads and one
	// atomic add per operation; this switch exists so the overhead can
	// be measured honestly (bench/ reports it as obs.overhead_frac).
	DisableObservability bool
	// DebugAddr, when non-empty, serves the observability HTTP endpoint
	// on this address (":0" picks an ephemeral port — see
	// DB.DebugAddr): /metrics (JSON snapshot), /trace (event ring
	// dump), /debug/vars (expvar) and /debug/pprof. It requires
	// observability: Open refuses it with DisableObservability.
	DebugAddr string
	// Daemon, when non-nil, wires the autonomous reorganization daemon
	// (internal/daemon) over this database: a background policy that
	// watches occupancy and free-map fragmentation and runs incremental
	// pass-1 reorganization slices, pacing itself against foreground
	// p99 and the forgo rate. Unless Daemon.Manual is set, the policy
	// loop starts immediately and Close drains it deterministically.
	Daemon *daemon.Config
	// DaemonClock injects the daemon's clock (nil = wall clock). The
	// simulation tests pass a daemon.VirtualClock so no policy decision
	// ever depends on real time.
	DaemonClock daemon.Clock
}

// ErrIO re-exports the typed permanent I/O error surfaced after the
// storage layer's transient-fault retry budget is exhausted.
var ErrIO = storage.ErrIO

// Typed corruption errors from the file backend, re-exported so
// callers can errors.Is-match them without importing the internals.
var (
	// ErrCorruptPage reports a page image whose on-disk checksum or
	// self-identification failed (torn write, bit rot).
	ErrCorruptPage = storage.ErrCorruptPage
	// ErrWALCorrupt reports mid-stream WAL damage recovery cannot
	// classify as a clean torn tail.
	ErrWALCorrupt = wal.ErrWALCorrupt
	// ErrShortWrite reports a write the OS accepted but did not
	// complete.
	ErrShortWrite = storage.ErrShortWrite
)

// ReorgConfig re-exports the reorganizer configuration.
type ReorgConfig = core.Config

// Placement re-exports the Find-Free-Space policy type.
type Placement = core.Placement

// Placement policies for Find-Free-Space (E3 ablation).
const (
	PlacementHeuristic = core.PlacementHeuristic
	PlacementFirstFit  = core.PlacementFirstFit
	PlacementInPlace   = core.PlacementInPlace
)

// DefaultReorgConfig runs all three passes with the paper's settings.
func DefaultReorgConfig() ReorgConfig { return core.DefaultConfig() }

// TreeStats re-exports physical tree statistics.
type TreeStats = btree.Stats

// recoveryPoolPages is the pool capacity of an incarnation that starts
// with recovery: unbounded, whatever Options.BufferPoolPages says.
const recoveryPoolPages = 0

// DB is one database instance over a simulated disk.
type DB struct {
	mu    sync.Mutex
	opts  Options
	disk  storage.Disk
	pager *storage.Pager
	log   *wal.Log
	locks *lock.Manager
	txns  *txn.Manager
	tree  *btree.Tree
	reorg *core.Reorganizer
	inj   *fault.Injector

	// reorgBusy serializes reorganization ownership (guarded by mu):
	// the manual Reorganize path and the daemon's increments share the
	// single-reorganizer invariant, so whichever arrives second gets
	// ErrReorgBusy instead of silently overwriting db.reorg under a
	// concurrent checkpoint.
	reorgBusy bool
	// closed is set by the first Close (guarded by mu): a second Close
	// is a no-op.
	closed bool

	// ckptMu serializes checkpoints, manual and automatic alike, so the
	// last checkpoint record in the log is always that of the last
	// truncation: its redo point never lies below the retained base.
	// ckptRunning elects the one committer that runs a due automatic
	// checkpoint; ckptAuto counts automatic checkpoints started and
	// ckptFailed the checkpoints of either kind that failed.
	ckptMu      sync.Mutex
	ckptRunning atomic.Bool
	ckptAuto    atomic.Int64
	ckptFailed  atomic.Int64

	// Autonomous reorganization daemon (nil when Options.Daemon unset).
	daemon *daemon.Daemon

	// obs is the observability set (nil when disabled); the h* fields
	// are its pre-resolved histogram handles, so the per-operation cost
	// is a nil check, two clock reads and one atomic add — never a
	// lookup.
	obs     *obs.Set
	hGet    *obs.Histogram
	hInsert *obs.Histogram
	hUpdate *obs.Histogram
	hDelete *obs.Histogram
	hScan   *obs.Histogram
	hCommit *obs.Histogram
	hBatch  *obs.Histogram
	debug   *obs.DebugServer
}

// wireObs resolves the histogram handles and installs the observer
// hooks on the current lock manager, log, pager and tree. Called once
// per incarnation, after its tree exists: at Open and after recovery.
func (db *DB) wireObs() {
	if db.obs == nil {
		return
	}
	db.hGet = db.obs.H(obs.OpGet)
	db.hInsert = db.obs.H(obs.OpInsert)
	db.hUpdate = db.obs.H(obs.OpUpdate)
	db.hDelete = db.obs.H(obs.OpDelete)
	db.hScan = db.obs.H(obs.OpScan)
	db.hCommit = db.obs.H(obs.OpCommit)
	db.hBatch = db.obs.H(obs.OpInsertBatch)
	ring := db.obs.Trace()
	db.locks.SetObserver(db.obs.H(obs.OpUserLockWait), db.obs.H(obs.OpReorgLockWait), ring)
	db.log.SetObserver(ring)
	db.pager.SetObserver(ring)
	db.tree.SetObserver(db.obs.H(obs.OpForgoWait), ring)
}

// emitRecovery traces what a restart did (phase events carry the
// Result's counts; emitted post-hoc because the observer is wired only
// once recovery has returned the tree).
func (db *DB) emitRecovery(res *recovery.Result) {
	if db.obs == nil {
		return
	}
	ring := db.obs.Trace()
	ring.Emit(obs.EvRecoveryRedo, uint64(res.RedoneRecords), 0)
	ring.Emit(obs.EvRecoveryUndo, uint64(res.LosersUndone), 0)
	if res.UnitCompleted {
		ring.Emit(obs.EvRecoveryForward, res.CompletedUnit, 0)
	} else {
		ring.Emit(obs.EvRecoveryForward, 0, 0)
	}
}

// Open creates a fresh database (Options.Dir empty), or opens — and,
// if needed, crash-recovers — the file-backed database in Options.Dir.
func Open(opts Options) (*DB, error) {
	if opts.PageSize == 0 {
		opts.PageSize = storage.DefaultPageSize
	}
	if opts.DebugAddr != "" && opts.DisableObservability {
		return nil, fmt.Errorf("repro: DebugAddr requires observability (DisableObservability must be false)")
	}
	db := &DB{opts: opts, inj: opts.FaultInjector}
	if !opts.DisableObservability {
		db.obs = obs.NewSet(obs.DefaultTraceCap)
	}
	existing := false
	if opts.Dir == "" {
		db.log = wal.NewLog()
		db.disk = storage.NewDisk(opts.PageSize)
	} else {
		walDir := filepath.Join(opts.Dir, "wal")
		if err := os.MkdirAll(walDir, 0o755); err != nil {
			return nil, fmt.Errorf("repro: open %s: %w", opts.Dir, err)
		}
		log, err := wal.OpenSegmentedLog(walDir, wal.SegmentOptions{SegmentBytes: opts.WALSegmentBytes})
		if err != nil {
			return nil, err
		}
		disk, err := storage.OpenFileDisk(filepath.Join(opts.Dir, "pages.db"), opts.PageSize)
		if err != nil {
			log.Close()
			return nil, err
		}
		db.log = log
		db.disk = disk
		// Any stable page beyond the reserved page 0 means a database
		// already lives here: recover it instead of formatting over it.
		existing = disk.NumPages() > 1
	}
	db.log.SetInjector(db.inj)
	db.disk.SetInjector(db.inj)
	if existing {
		if _, err := db.recover(); err != nil {
			_ = db.log.Close()
			_ = db.disk.Close()
			return nil, err
		}
	} else {
		db.assemble(opts.BufferPoolPages)
		db.pager.SetInjector(db.inj)
		tree, err := btree.Create(db.pager, db.log, db.locks, db.txns)
		if err != nil {
			_ = db.pager.Close()
			_ = db.log.Close()
			return nil, err
		}
		db.tree = tree
		db.wireObs()
		db.initDaemon()
	}
	if opts.DebugAddr != "" {
		srv, err := obs.StartDebug(opts.DebugAddr, db.MetricsSnapshot, db.TraceSnapshot)
		if err != nil {
			_ = db.Close()
			return nil, err
		}
		db.debug = srv
	}
	return db, nil
}

// assemble builds one incarnation's pager, lock manager and txn
// manager over db.disk and db.log; the caller installs the pager's
// fault injector.
func (db *DB) assemble(poolPages int) {
	db.pager = storage.NewPager(db.disk, poolPages, db.log)
	db.locks = lock.NewManager()
	db.txns = txn.NewManager(db.log, db.locks, db.pager)
}

// recover brings up a new incarnation from the stable disk and the
// durable log: Open on an existing directory and Restart both run it.
func (db *DB) recover() (*recovery.Result, error) {
	db.assemble(recoveryPoolPages)
	tree, res, err := recovery.Restart(db.pager, db.log, db.locks, db.txns)
	if err != nil {
		return nil, err
	}
	db.tree = tree
	// Only now, so recovery's own flushes move no pager hit count.
	db.pager.SetInjector(db.inj)
	db.wireObs()
	db.emitRecovery(res)
	// Any reorganization in flight at the crash died with it (forward
	// recovery already settled its unit), so the busy slot is free
	// again; the daemon restarts with fresh sensor state.
	db.mu.Lock()
	db.reorgBusy = false
	db.reorg = nil
	db.mu.Unlock()
	db.initDaemon()
	return res, nil
}

// initDaemon wires (and, unless manual, starts) the autonomous
// reorganization daemon of the current incarnation.
func (db *DB) initDaemon() {
	if db.opts.Daemon == nil {
		return
	}
	db.daemon = daemon.New(db, *db.opts.Daemon, db.opts.DaemonClock, db.inj)
	db.daemon.Start()
}

// Txn is one transaction over the database.
type Txn struct {
	db    *DB
	inner *txn.Txn
	itxn  txn.Txn // inner points here; embedded to make Begin one allocation
}

// Begin starts a transaction.
func (db *DB) Begin() *Txn {
	t := &Txn{db: db}
	t.inner = db.txns.BeginAt(&t.itxn)
	return t
}

// ID returns the transaction id.
func (t *Txn) ID() uint64 { return t.inner.ID() }

// Insert adds a record; ErrExists for duplicates.
func (t *Txn) Insert(key, val []byte) error {
	return t.db.tree.Insert(t.inner, key, val)
}

// Get returns the value for key (nil, ErrNotFound when absent).
func (t *Txn) Get(key []byte) ([]byte, error) {
	v, ok, err := t.db.tree.Get(t.inner, key)
	if err != nil {
		return nil, err
	}
	if !ok {
		return nil, fmt.Errorf("get %q: %w", key, ErrNotFound)
	}
	return v, nil
}

// InsertBatch adds many records through shared descents: the batch is
// applied in key order, one leaf latch and log sequence per run of
// consecutive keys. Duplicates (in the batch or the tree) fail with
// ErrExists; on error, already-applied records remain until the
// transaction aborts.
func (t *Txn) InsertBatch(keys, vals [][]byte) error {
	return t.db.tree.InsertBatch(t.inner, keys, vals)
}

// Update replaces an existing record's value.
func (t *Txn) Update(key, val []byte) error {
	return t.db.tree.Update(t.inner, key, val)
}

// Delete removes a record.
func (t *Txn) Delete(key []byte) error {
	return t.db.tree.Delete(t.inner, key)
}

// Scan streams records with lo <= key <= hi (hi nil = unbounded) in
// key order until fn returns false. key and val are valid only until fn
// returns (the scan reuses their memory); fn copies what it keeps.
func (t *Txn) Scan(lo, hi []byte, fn func(key, val []byte) bool) error {
	return t.db.tree.Scan(t.inner, lo, hi, fn)
}

// Commit commits (running deferred free-at-empty work first).
// Read-only transactions (no log records) are not worth a histogram
// sample: the commit is a lock release, and counting it would drown the
// durability cost the commit histogram exists to show. A logged commit
// that succeeds then takes an automatic checkpoint if one is due (see
// Checkpoint); its locks are released by then.
func (t *Txn) Commit() error {
	if t.inner.LastLSN() == 0 {
		return t.db.tree.Commit(t.inner)
	}
	var err error
	if h := t.db.hCommit; h == nil {
		err = t.db.tree.Commit(t.inner)
	} else {
		start := time.Now()
		err = t.db.tree.Commit(t.inner)
		h.Record(time.Since(start))
	}
	if err == nil {
		t.db.maybeCheckpoint()
	}
	return err
}

// Abort rolls the transaction back.
func (t *Txn) Abort() error { return t.db.tree.Abort(t.inner) }

// --- single-operation conveniences (auto-commit, retry on conflicts) ---

const maxAutoRetries = 100

func (db *DB) auto(fn func(t *Txn) error) error {
	var last error
	for i := 0; i < maxAutoRetries; i++ {
		t := db.Begin()
		err := fn(t)
		if err == nil {
			if cerr := t.Commit(); cerr == nil {
				return nil
			} else if !IsRetryable(cerr) {
				return cerr
			} else {
				// A retryable commit failure (deferred-free conflict)
				// leaves the transaction active: roll it back so its
				// locks don't outlive this attempt.
				_ = t.Abort()
				last = cerr
			}
			backoff(i)
			continue
		}
		_ = t.Abort()
		if !IsRetryable(err) {
			return err
		}
		last = err
		backoff(i)
	}
	// Keep the last underlying error in the chain so callers can tell
	// deadlock churn (ErrDeadlock) from switch churn (ErrSwitched).
	return fmt.Errorf("repro: operation did not converge after %d retries: %w",
		maxAutoRetries, last)
}

// backoffRNG seeds the retry jitter. Deterministic seed: tests get
// reproducible schedules; concurrent clients still spread out because
// each drawn jitter differs.
var (
	backoffMu  sync.Mutex
	backoffRNG = rand.New(rand.NewSource(0xb0ff))
)

// backoff sleeps briefly between transaction retries: a hot retry loop
// during the reorganizer's switch window would otherwise burn through
// the retry budget in microseconds. The jitter keeps clients that were
// all rejected by the same switch window from retrying in lockstep and
// colliding again.
func backoff(attempt int) {
	d := time.Duration(attempt) * 100 * time.Microsecond
	if d > 5*time.Millisecond {
		d = 5 * time.Millisecond
	}
	if d <= 0 {
		return
	}
	backoffMu.Lock()
	jitter := time.Duration(backoffRNG.Int63n(int64(d)/2 + 1))
	backoffMu.Unlock()
	time.Sleep(d/2 + jitter)
}

// timedAuto runs fn as an auto-commit transaction, recording the whole
// operation — descent, locks, commit, every retry — into h. With
// observability off (h nil) there is no clock read at all.
func (db *DB) timedAuto(h *obs.Histogram, fn func(t *Txn) error) error {
	if h == nil {
		return db.auto(fn)
	}
	start := time.Now()
	err := db.auto(fn)
	h.Record(time.Since(start))
	return err
}

// Insert adds a record in its own transaction. Like Update and Delete,
// it is logged as one committed record (see txn.Txn.MarkSingleRecord),
// except for a delete that empties its leaf.
func (db *DB) Insert(key, val []byte) error {
	err := db.timedAuto(db.hInsert, func(t *Txn) error {
		t.inner.MarkSingleRecord()
		return t.Insert(key, val)
	})
	if err == nil && db.obs != nil {
		db.obs.AddLogicalBytes(len(key) + len(val))
	}
	return err
}

// Get reads a record in its own transaction.
func (db *DB) Get(key []byte) ([]byte, error) {
	var out []byte
	err := db.timedAuto(db.hGet, func(t *Txn) error {
		v, err := t.Get(key)
		out = v
		return err
	})
	return out, err
}

// InsertBatch adds many records in one transaction, amortising tree
// descents and leaf latching across runs of consecutive keys. The
// batch commits or rolls back atomically.
func (db *DB) InsertBatch(keys, vals [][]byte) error {
	err := db.timedAuto(db.hBatch, func(t *Txn) error { return t.InsertBatch(keys, vals) })
	if err == nil && db.obs != nil {
		n := 0
		for i := range keys {
			n += len(keys[i]) + len(vals[i])
		}
		db.obs.AddLogicalBytes(n)
	}
	return err
}

// Update replaces a record in its own transaction.
func (db *DB) Update(key, val []byte) error {
	err := db.timedAuto(db.hUpdate, func(t *Txn) error {
		t.inner.MarkSingleRecord()
		return t.Update(key, val)
	})
	if err == nil && db.obs != nil {
		db.obs.AddLogicalBytes(len(key) + len(val))
	}
	return err
}

// Delete removes a record in its own transaction.
func (db *DB) Delete(key []byte) error {
	err := db.timedAuto(db.hDelete, func(t *Txn) error {
		t.inner.MarkSingleRecord()
		return t.Delete(key)
	})
	if err == nil && db.obs != nil {
		db.obs.AddLogicalBytes(len(key))
	}
	return err
}

// Scan runs a range scan in its own transaction. When the transaction
// is retried (the scan lost a deadlock, or the tree switched under it)
// the new attempt resumes just past the last record already handed to
// fn, so fn sees every key at most once and in order; replaying from lo
// would hand it the prefix twice. key and val are valid only until fn
// returns (the scan reuses their memory); fn copies what it keeps.
func (db *DB) Scan(lo, hi []byte, fn func(key, val []byte) bool) error {
	// A copy of the last key handed to fn (k itself dies when fn
	// returns), on the stack: keys are at most kv.MaxKeySize bytes.
	var lastBuf [kv.MaxKeySize]byte
	last, resume := lastBuf[:0], false
	return db.timedAuto(db.hScan, func(t *Txn) error {
		from := lo
		if resume {
			// The smallest key after last.
			from = append(append([]byte(nil), last...), 0)
		}
		return t.Scan(from, hi, func(k, v []byte) bool {
			last, resume = append(last[:0], k...), true
			return fn(k, v)
		})
	})
}

// Count counts records in [lo, hi].
func (db *DB) Count(lo, hi []byte) (int, error) {
	n := 0
	err := db.Scan(lo, hi, func(_, _ []byte) bool { n++; return true })
	return n, err
}

// --- reorganization ---

// ErrReorgBusy reports that a reorganization (manual or
// daemon-initiated) is already running on this database.
var ErrReorgBusy = errors.New("repro: a reorganization is already running")

// acquireReorg claims the single-reorganizer slot and publishes r for
// checkpoints; releaseReorg returns the slot. Claiming while another
// reorganization runs fails with ErrReorgBusy.
func (db *DB) acquireReorg(r *core.Reorganizer) error {
	db.mu.Lock()
	defer db.mu.Unlock()
	if db.reorgBusy {
		return ErrReorgBusy
	}
	db.reorgBusy = true
	db.reorg = r
	return nil
}

func (db *DB) releaseReorg() {
	db.mu.Lock()
	db.reorgBusy = false
	db.reorg = nil
	db.mu.Unlock()
}

// runReorg runs one reorganization in the single-reorganizer slot, then
// takes an automatic checkpoint if one fell due while it ran. The slot
// is released first; the reorganizer holds nothing by then.
func (db *DB) runReorg(r *core.Reorganizer, run func() error) error {
	if err := db.acquireReorg(r); err != nil {
		return err
	}
	err := func() error {
		defer db.releaseReorg()
		return run()
	}()
	db.maybeCheckpoint()
	return err
}

// Reorganize runs the configured passes on-line and returns the
// reorganizer's counters. It fails with ErrReorgBusy while another
// reorganization (including a daemon increment) is in flight.
func (db *DB) Reorganize(cfg ReorgConfig) (*metrics.Counters, error) {
	if cfg.Injector == nil {
		cfg.Injector = db.inj
	}
	if cfg.Obs == nil {
		cfg.Obs = db.obs
	}
	r := core.New(db.tree, cfg)
	err := db.runReorg(r, r.Run)
	if errors.Is(err, ErrReorgBusy) {
		return nil, err
	}
	return r.Metrics(), err
}

// RunIncrement implements daemon.System: one bounded pass-1 slice
// through the regular reorganization machinery, sharing the
// single-reorganizer slot with Reorganize so concurrent checkpoints
// include the in-flight unit's reorg table.
func (db *DB) RunIncrement(inc daemon.Increment) (daemon.RunResult, error) {
	var target float64
	if db.opts.Daemon != nil {
		target = db.daemon.Config().TargetFill
	}
	cfg := core.Config{TargetFill: target, CarefulWriting: true,
		StartKey: inc.StartKey, EndKey: inc.EndKey,
		MaxUnits: inc.MaxUnits, Yield: inc.Yield,
		Injector: db.inj, Obs: db.obs}
	r := core.New(db.tree, cfg)
	err := db.runReorg(r, r.CompactLeaves)
	if errors.Is(err, ErrReorgBusy) {
		return daemon.RunResult{}, err
	}
	return daemon.RunResult{Stopped: r.Stopped(), LK: r.LK(),
		UnitsRun: r.UnitsRun(), MaxUnits: inc.MaxUnits}, err
}

// GetHistogram implements daemon.System: the cumulative foreground
// get-latency histogram (nil when observability is off).
func (db *DB) GetHistogram() *obs.Histogram { return db.hGet }

// ForgoCount implements daemon.System: cumulative reader forgoes.
func (db *DB) ForgoCount() int64 { return db.locks.Stats().Forgoes.Load() }

// Mutations implements daemon.System: cumulative mutating operations.
func (db *DB) Mutations() uint64 {
	if db.obs == nil {
		return 0
	}
	return db.hInsert.Count() + db.hUpdate.Count() +
		db.hDelete.Count() + db.hBatch.Count()
}

// TraceRing implements daemon.System: the shared event ring (nil when
// observability is off).
func (db *DB) TraceRing() *obs.Ring {
	if db.obs == nil {
		return nil
	}
	return db.obs.Trace()
}

// Daemon returns the autonomous reorganization daemon, or nil when
// Options.Daemon was unset. In manual mode the caller drives it via
// Daemon().Tick().
func (db *DB) Daemon() *daemon.Daemon { return db.daemon }

// Reorganizer creates (without running) a reorganizer for fine-grained
// control — individual passes, crash hooks, metrics. Unless a
// Reorganize or a daemon increment holds the reorganization slot, the
// new reorganizer's table goes into every checkpoint from here on, as
// theirs does while they run: a checkpoint taken inside one of its units
// must record the unit, or a crash there would restart without
// finishing it.
func (db *DB) Reorganizer(cfg ReorgConfig) *core.Reorganizer {
	if cfg.Injector == nil {
		cfg.Injector = db.inj
	}
	if cfg.Obs == nil {
		cfg.Obs = db.obs
	}
	r := core.New(db.tree, cfg)
	db.mu.Lock()
	if !db.reorgBusy {
		db.reorg = r
	}
	db.mu.Unlock()
	return r
}

// Tree exposes the underlying B+-tree (experiments and tools).
func (db *DB) Tree() *btree.Tree { return db.tree }

// --- durability and crash simulation ---

// Checkpoint flushes all dirty pages, logs a sharp checkpoint (the
// reorg table included when a reorganization is running) and truncates
// the log below the retention horizon. Clients keep running beside it:
// the log tail is read first and becomes the checkpoint's redo point, so
// whatever commits, begins or is logged while the tables are copied and
// the pages flushed lies above it and is replayed at restart (see
// wal.Checkpoint). While a reorganization unit is in flight the redo
// point backs up to its BEGIN: a unit logs each step before applying
// it, outside the page latches a flush waits on, so the flushed pages
// can lack a step whose record lies below the tail — and a swap's
// pre-image lives only in its record. Redo from the BEGIN replays the
// unit as if no checkpoint had been taken inside it. The horizon is
// the lowest LSN anything may still read: the redo point and the begin
// record of every registered transaction that has logged (its undo
// walks back to it); nothing needs to be quiescent.
//
// The database also checkpoints by itself: after a logged commit, and
// after Reorganize or a daemon increment returns, the goroutine that
// finds the log an interval (wal.DefaultCheckpointInterval) past the
// last checkpoint's redo point runs one. That bounds what a restart
// replays and what the log holds on either device. A failed automatic
// checkpoint does not fail the commit that ran it: the log stays
// untruncated, which is always safe, and the next crossing retries.
func (db *DB) Checkpoint() error { return db.checkpoint(false) }

// maybeCheckpoint runs an automatic checkpoint if one is due: one
// lock-free check on the hot path, one runner elected by CAS. The
// caller holds no lock, latch or pin.
func (db *DB) maybeCheckpoint() {
	if !db.log.CheckpointDue() || !db.ckptRunning.CompareAndSwap(false, true) {
		return
	}
	defer db.ckptRunning.Store(false)
	_ = db.checkpoint(true)
}

func (db *DB) checkpoint(auto bool) error {
	db.ckptMu.Lock()
	defer db.ckptMu.Unlock()
	if auto {
		if !db.log.CheckpointDue() {
			return nil // a manual checkpoint finished while this one waited
		}
		db.ckptAuto.Add(1)
	}
	err := db.takeCheckpoint()
	if err != nil {
		db.ckptFailed.Add(1)
		db.log.CheckpointFailed()
	}
	return err
}

// takeCheckpoint is one checkpoint; the caller holds ckptMu.
func (db *DB) takeCheckpoint() error {
	cp := wal.Checkpoint{RedoLSN: db.tree.RedoPoint()}
	var txnHorizon uint64
	cp.ActiveTxns, txnHorizon = db.txns.ActiveSnapshot()
	cp.NextTxnID = db.txns.NextID()
	db.mu.Lock()
	if db.reorg != nil {
		cp.Reorg = db.reorg.TableSnapshot()
	}
	db.mu.Unlock()
	if err := db.pager.FlushAll(); err != nil {
		return err
	}
	if cp.Reorg.HasUnit {
		cp.RedoLSN = min(cp.RedoLSN, cp.Reorg.BeginLSN)
	}
	lsn := db.log.Append(cp)
	if err := db.log.FlushTo(lsn); err != nil {
		return err
	}
	db.log.CheckpointTaken(cp.RedoLSN)
	horizon := cp.RedoLSN
	if txnHorizon != 0 {
		horizon = min(horizon, txnHorizon)
	}
	truncated, err := db.log.TruncateBelow(horizon)
	if db.obs != nil {
		db.obs.Trace().Emit(obs.EvCheckpoint, lsn, uint64(truncated))
	}
	return err
}

// Close shuts the database down cleanly: the log is forced, a
// checkpoint flushes the dirty pages and truncates the log behind them
// (so reopening replays nothing: the automatic checkpoints' byte
// interval can leave tens of thousands of small records to redo), the
// buffer pool is verified quiescent — a pin leaked anywhere in the
// session surfaces here as an error — and every file handle is
// released. The handle-closing steps run even when an
// earlier step failed (a read-only directory must not leak
// descriptors); all failures are joined into the returned error. A
// second Close does nothing.
func (db *DB) Close() error {
	db.mu.Lock()
	closed := db.closed
	db.closed = true
	db.mu.Unlock()
	if closed {
		return nil
	}
	// Stop the reorganization daemon first and deterministically: its
	// stop signal doubles as every in-flight increment's Yield hook, so
	// the running slice drains at its next unit boundary before the
	// pager and log go away underneath it.
	if db.daemon != nil {
		db.daemon.Stop()
	}
	if db.debug != nil {
		_ = db.debug.Close()
		db.debug = nil
	}
	flushErr := db.log.Flush()
	var pageErr error
	if flushErr == nil {
		pageErr = db.checkpoint(false)
	}
	db.tree.Close() // drop the cached root pin before the pool's leak check
	return errors.Join(flushErr, pageErr, db.pager.Close(), db.log.Close())
}

// Crash simulates a system failure: all buffered pages and the log
// tail the device never received are lost; the disk and the durable log
// survive. (On the file backend log bytes that were written but not yet
// synced may survive too, as after a real power cut: see wal.Log.Crash.)
// Call Restart to recover.
func (db *DB) Crash() {
	// The daemon does not survive a crash; Restart builds a new one with
	// fresh sensor state.
	if db.daemon != nil {
		db.daemon.Stop()
		db.daemon = nil
	}
	db.log.Crash()
	db.pager.Crash()
}

// RestartInfo reports what recovery did.
type RestartInfo = recovery.Result

// Restart recovers the database after Crash: redo, loser rollback,
// forward recovery of an in-flight reorganization unit, and pass-3
// reconciliation, in a new pager, lock manager and transaction manager
// built the way Open builds them for an existing directory.
func (db *DB) Restart() (*RestartInfo, error) { return db.recover() }

// --- observability ---

// GatherStats walks the quiescent tree for physical statistics.
func (db *DB) GatherStats() (TreeStats, error) { return db.tree.GatherStats() }

// Check verifies structural invariants (quiescent tree).
func (db *DB) Check() error { return db.tree.Check() }

// IOSnapshot re-exports the versioned disk-statistics snapshot: new
// fields grow on the struct instead of numbered accessor variants.
type IOSnapshot = storage.IOSnapshot

// IOStats returns the cumulative disk statistics — reads, writes,
// seeks (non-sequential reads: pass 2's contiguity benefit shows up
// there), byte volumes and fsyncs — as one struct.
func (db *DB) IOStats() IOSnapshot { return db.disk.Stats().Snapshot() }

// LogBytes returns the total log volume appended.
func (db *DB) LogBytes() int64 { return db.log.BytesAppended() }

// LockStats exposes the lock manager's contention counters. They are a
// snapshot taken at the call: Grants is summed from the lock manager's
// stripes then, so call LockStats again after the work it should count
// rather than keeping the pointer.
func (db *DB) LockStats() *lock.Stats { return db.locks.Stats() }

// PerfCounters snapshots the concurrent-hot-path counters: buffer-pool
// shard traffic (hits, misses, CLOCK eviction work, shard-mutex
// contention), WAL group-commit effectiveness (forced writes performed
// vs. saved, batch volume) and the lock manager's trips through its
// mutex. Every source but lock.trips is an atomic; lock.trips is read
// under the lock manager's mutex, one short acquisition per snapshot.
func (db *DB) PerfCounters() *metrics.Counters {
	c := metrics.New()
	ps := db.pager.Stats()
	c.Add(metrics.PoolShards, int64(db.pager.ShardCount()))
	c.Add(metrics.PoolHits, ps.Hits.Load())
	c.Add(metrics.PoolMisses, ps.Misses.Load())
	c.Add(metrics.PoolEvictions, ps.Evictions.Load())
	c.Add(metrics.PoolDirtyEvictions, ps.DirtyEvictions.Load())
	c.Add(metrics.PoolEvictionScans, ps.EvictionScans.Load())
	c.Add(metrics.PoolShardContention, ps.ShardContention.Load())
	c.Add(metrics.WALBytesAppended, db.log.BytesAppended())
	c.Add(metrics.WALForcedWrites, db.log.ForcedWrites())
	c.Add(metrics.WALForcesSaved, db.log.ForcesSaved())
	c.Add(metrics.WALGroupLeaders, db.log.GroupLeaders())
	c.Add(metrics.WALBytesForced, db.log.BytesForced())
	ds := db.disk.Stats().Snapshot()
	c.Add(metrics.DiskBytesRead, ds.BytesRead)
	c.Add(metrics.DiskBytesWritten, ds.BytesWritten)
	c.Add(metrics.DiskFsyncs, ds.Fsyncs)
	c.Add(metrics.WALFsyncs, db.log.Fsyncs())
	sc, sd, sl := db.log.SegmentCounts()
	c.Add(metrics.WALSegsCreated, sc)
	c.Add(metrics.WALSegsDeleted, sd)
	c.Add(metrics.WALSegsLive, sl)
	c.Add(metrics.WALRetainedBytes, db.log.RetainedBytes())
	c.Add(metrics.WALBytesSinceCheckpoint, db.log.BytesSinceCheckpoint())
	c.Add(metrics.CkptAuto, db.ckptAuto.Load())
	c.Add(metrics.CkptFailed, db.ckptFailed.Load())
	c.Add(metrics.LockTrips, db.locks.Trips())
	if db.daemon != nil {
		for name, v := range db.daemon.Metrics().Snapshot() {
			c.Add(name, v)
		}
	}
	return c
}

// PageSize returns the database page size.
func (db *DB) PageSize() int { return db.pager.PageSize() }

// Obs exposes the observability set (nil when disabled) — the
// benchmarks and tools read histograms and the trace ring through it.
func (db *DB) Obs() *obs.Set { return db.obs }

// TraceSnapshot returns the events currently held in the trace ring,
// oldest first (at most obs.DefaultTraceCap; older events have been
// overwritten). Nil when observability is disabled.
func (db *DB) TraceSnapshot() []obs.Event {
	if db.obs == nil {
		return nil
	}
	return db.obs.Trace().Snapshot()
}

// Occupancy walks the live tree's leaf chain and aggregates fill and
// contiguity gauges into at most n contiguous key ranges, plus the
// free-space map's view of the file. Best-effort under concurrency.
func (db *DB) Occupancy(n int) (obs.Occupancy, error) {
	var out obs.Occupancy
	ranges, err := db.tree.GatherRangeOccupancy(n)
	if err != nil {
		return out, err
	}
	for _, r := range ranges {
		out.Ranges = append(out.Ranges, obs.RangeGauge{
			LoKey: string(r.LoKey), HiKey: string(r.HiKey),
			Leaves: r.Leaves, Records: r.Records,
			AvgFill: r.AvgFill, MinFill: r.MinFill,
			Pairs: r.Pairs, ContigPairs: r.ContiguousPairs,
			Inversions: r.OutOfOrderPairs,
		})
	}
	fs := db.pager.FreeMapStats()
	out.Free = obs.FreeSpace{HighWater: fs.HighWater, Allocated: fs.Allocated,
		Free: fs.Free, FreeRuns: fs.FreeRuns, LargestFreeRun: fs.LargestFreeRun}
	return out, nil
}

// MetricsSnapshot bundles the full observability state for the debug
// endpoint and btree-inspect: perf counters, occupancy gauges, write
// amplification (logical bytes the application wrote versus WAL bytes
// appended and page bytes written to disk) and, with observability on,
// one latency quantile row per operation kind that has a sample and the
// trace-ring event count. With observability off Latencies is nil and
// the logical byte count 0. Counters adds to PerfCounters the Go
// runtime's cumulative mutex wait (runtime.mutex_wait_ns), whose growth
// between two snapshots is the contention between them.
func (db *DB) MetricsSnapshot() obs.MetricsSnapshot {
	snap := obs.MetricsSnapshot{
		TSUnixNano: time.Now().UnixNano(),
		Counters:   db.PerfCounters().Snapshot(),
	}
	snap.Counters[metrics.RuntimeMutexWaitNs] = obs.MutexWaitNanos()
	wa := obs.WriteAmp{
		WALBytes:  db.log.BytesAppended(),
		PageBytes: db.disk.Stats().Snapshot().BytesWritten,
	}
	if db.obs != nil {
		snap.Latencies = db.obs.Quantiles()
		snap.Events = db.obs.Trace().Emitted()
		wa.LogicalBytes = db.obs.LogicalBytes()
	}
	wa.Fill()
	snap.WriteAmp = &wa
	if occ, err := db.Occupancy(8); err == nil {
		snap.Occupancy = &occ
	}
	return snap
}

// DebugAddr returns the bound address of the observability HTTP
// endpoint ("" when Options.DebugAddr was not set).
func (db *DB) DebugAddr() string {
	if db.debug == nil {
		return ""
	}
	return db.debug.Addr()
}
