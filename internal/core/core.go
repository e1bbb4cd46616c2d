// Package core implements the paper's contribution: on-line
// reorganization of a sparsely populated B+-tree in three passes —
// compaction of leaves under one base page at a time (in-place and
// new-place with the Find-Free-Space heuristic), optional swapping and
// moving of leaves into key order on disk, and a new-place bottom-up
// rebuild of the internal levels with side-file catch-up and an atomic
// root switch. Reorganization units are logged (BEGIN/MOVE/MODIFY/END)
// and recovered forward: an interrupted unit is finished, not rolled
// back.
package core

import (
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/btree"
	"repro/internal/fault"
	"repro/internal/metrics"
	"repro/internal/obs"
	"repro/internal/storage"
	"repro/internal/wal"
)

// Placement selects how Find-Free-Space chooses destination pages for
// new-place compaction; the alternatives exist for the E3 ablation.
type Placement int

// Placement policies.
const (
	// PlacementHeuristic is the paper's §6.1 rule: the first empty page
	// after the largest finished leaf L and before the current leaf C.
	PlacementHeuristic Placement = iota
	// PlacementFirstFit takes the lowest-numbered free page anywhere.
	PlacementFirstFit
	// PlacementInPlace disables new-place compaction entirely.
	PlacementInPlace
)

func (p Placement) String() string {
	switch p {
	case PlacementHeuristic:
		return "heuristic"
	case PlacementFirstFit:
		return "first-fit"
	case PlacementInPlace:
		return "in-place"
	default:
		return "unknown"
	}
}

// Config tunes a reorganization run.
type Config struct {
	// TargetFill is f2: the desired leaf fill factor after
	// reorganization (0 < TargetFill <= 1; default 0.9).
	TargetFill float64
	// Placement is the Find-Free-Space policy (default the paper's
	// heuristic).
	Placement Placement
	// SwapPass enables pass 2 (optional per §6: "the user can decide
	// not to do swapping").
	SwapPass bool
	// InternalPass enables pass 3 (rebuild of the internal levels and
	// the switch).
	InternalPass bool
	// CarefulWriting logs only record keys in MOVE records and installs
	// write-ordering dependencies instead (§5); disabled, MOVE records
	// carry full record contents.
	CarefulWriting bool
	// StartKey resumes pass 1 from the base page covering this key
	// (the paper's LK restart position, §5; recovery.Result.ReorgLK).
	StartKey []byte
	// EndKey, when set, bounds pass 1: no compaction group STARTS at or
	// beyond it, and the walk stops cleanly at the first one that
	// would. The bound is group-granular — the final unit may cover
	// keys past EndKey by at most one group's span. Combined with
	// StartKey this turns pass 1 into an incremental range slice (the
	// daemon's reorganization increment).
	EndKey []byte
	// MaxUnits, when > 0, bounds pass 1 to that many executed
	// compaction units; the walk then stops cleanly at the next unit
	// boundary (Stopped reports true, LK gives the resume position).
	MaxUnits int
	// Yield, when set, is polled at every pass-1 unit boundary; when it
	// returns true the walk stops cleanly before starting another unit.
	// This is the daemon's shutdown/backoff seam: no unit is ever
	// abandoned mid-flight, only not started.
	Yield func() bool
	// OnEvent, when set, is invoked at named points of the
	// reorganization ("compact.begin", "compact.moved",
	// "compact.modified", "move.begin", "swap.moved", "pass3.base",
	// "pass3.built", "pass3.switched", ...). Returning an error aborts
	// the reorganizer at that point — the crash-injection seam used by
	// the recovery tests and benchmarks.
	OnEvent func(stage string) error
	// Injector, when set, registers every event stage as a fault point
	// named "reorg.<stage>", so the crash sweep can crash the
	// reorganizer at unit boundaries, swap halves, stable points,
	// side-file applies, and both sides of the root switch.
	Injector *fault.Injector
	// Obs, when set, receives unit-duration samples and unit start/end
	// trace events (DB.Reorganize wires the database's observability
	// set here automatically).
	Obs *obs.Set
}

func (c Config) withDefaults() Config {
	if c.TargetFill <= 0 || c.TargetFill > 1 {
		c.TargetFill = 0.9
	}
	return c
}

// DefaultConfig reorganizes all three passes with the paper's settings.
func DefaultConfig() Config {
	return Config{TargetFill: 0.9, Placement: PlacementHeuristic,
		SwapPass: true, InternalPass: true, CarefulWriting: true}
}

// reorgTable is the paper's in-memory reorganization system table (§5):
// at most one in-flight unit plus LK, the largest key of the last
// finished unit. It is embedded in checkpoints.
type reorgTable struct {
	mu       sync.Mutex
	hasUnit  bool
	unit     uint64
	beginLSN uint64
	lastLSN  uint64
	hasLK    bool
	lk       []byte
}

func (t *reorgTable) beginUnit(unit, beginLSN uint64) {
	t.mu.Lock()
	defer t.mu.Unlock()
	t.setUnit(unit, beginLSN)
}

// logBegin appends b's BEGIN record and makes b the in-flight unit as one
// step under t.mu. A checkpoint reads the log tail (its redo point) and
// then snapshots the table: done as two steps, a snapshot could miss a
// unit whose BEGIN already lies below that redo point, and a crash
// inside the unit would restart without finishing it.
func (t *reorgTable) logBegin(log *wal.Log, b wal.ReorgBegin) uint64 {
	t.mu.Lock()
	defer t.mu.Unlock()
	lsn := log.Append(b)
	t.setUnit(b.Unit, lsn)
	return lsn
}

func (t *reorgTable) setUnit(unit, beginLSN uint64) {
	t.hasUnit = true
	t.unit = unit
	t.beginLSN = beginLSN
	t.lastLSN = beginLSN
}

func (t *reorgTable) record(lsn uint64) uint64 {
	t.mu.Lock()
	defer t.mu.Unlock()
	prev := t.lastLSN
	t.lastLSN = lsn
	return prev
}

func (t *reorgTable) prevLSN() uint64 {
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.lastLSN
}

func (t *reorgTable) endUnit(largestKey []byte) {
	t.mu.Lock()
	defer t.mu.Unlock()
	t.hasUnit = false
	if largestKey != nil {
		t.hasLK = true
		t.lk = append([]byte(nil), largestKey...)
	}
}

func (t *reorgTable) snapshot() wal.ReorgTableSnap {
	t.mu.Lock()
	defer t.mu.Unlock()
	return wal.ReorgTableSnap{HasUnit: t.hasUnit, Unit: t.unit,
		BeginLSN: t.beginLSN, LastLSN: t.lastLSN, HasLK: t.hasLK,
		LK: append([]byte(nil), t.lk...)}
}

// counterHandles are the reorganizer's pre-resolved metric counters:
// one mutex-map lookup each at New, plain atomic adds ever after (the
// string-keyed Add was measurable inside tight unit loops).
type counterHandles struct {
	unitsCompact    *atomic.Int64
	unitsMove       *atomic.Int64
	unitsSwap       *atomic.Int64
	recordsMoved    *atomic.Int64
	pagesFreed      *atomic.Int64
	pagesAllocated  *atomic.Int64
	unitsDeadlocked *atomic.Int64
	pass2Swaps      *atomic.Int64
	pass2Moves      *atomic.Int64
	pass3Bases      *atomic.Int64
	pass3SideApply  *atomic.Int64
	pass3Stable     *atomic.Int64
}

func resolveCounters(m *metrics.Counters) counterHandles {
	return counterHandles{
		unitsCompact:    m.Handle(metrics.UnitsCompact),
		unitsMove:       m.Handle(metrics.UnitsMove),
		unitsSwap:       m.Handle(metrics.UnitsSwap),
		recordsMoved:    m.Handle(metrics.RecordsMoved),
		pagesFreed:      m.Handle(metrics.PagesFreed),
		pagesAllocated:  m.Handle(metrics.PagesAllocated),
		unitsDeadlocked: m.Handle(metrics.UnitsDeadlocked),
		pass2Swaps:      m.Handle(metrics.Pass2Swaps),
		pass2Moves:      m.Handle(metrics.Pass2Moves),
		pass3Bases:      m.Handle(metrics.Pass3Bases),
		pass3SideApply:  m.Handle(metrics.Pass3SideApply),
		pass3Stable:     m.Handle(metrics.Pass3Stable),
	}
}

// Reorganizer is the single background reorganization process.
type Reorganizer struct {
	tree  *btree.Tree
	cfg   Config
	owner uint64
	m     *metrics.Counters
	c     counterHandles

	// Observability handles resolved from cfg.Obs at New (nil when
	// unobserved).
	hUnit *obs.Histogram
	ring  *obs.Ring
	// unitStart is when the in-flight unit's BEGIN was logged; only the
	// single reorganizer goroutine touches it.
	unitStart time.Time

	table    reorgTable
	nextUnit uint64

	// unitsRun counts compaction units executed by the current
	// CompactLeaves call; stopped records whether that call ended at a
	// clean unit boundary (budget, yield, or EndKey) rather than by
	// reaching the right edge of the tree. Both are touched only by the
	// reorganizer goroutine.
	unitsRun int
	stopped  bool

	// largestFinished is L, the largest finished leaf page id of pass 1
	// (the left boundary of the Find-Free-Space interval).
	largestFinished storage.PageID

	pass3 pass3State

	// crashed is set when an event hook fails: a simulated crash. From
	// then on nothing the reorganizer holds is given back (see
	// unit.release and RebuildInternal); only its goroutine touches it.
	crashed bool
}

// New creates a reorganizer for the tree. The owner id is registered
// with the lock manager as the preferred deadlock victim.
func New(tree *btree.Tree, cfg Config) *Reorganizer {
	m := metrics.New()
	r := &Reorganizer{
		tree:     tree,
		cfg:      cfg.withDefaults(),
		owner:    tree.Txns().NextOwnerID(),
		m:        m,
		c:        resolveCounters(m),
		nextUnit: 1,
	}
	if cfg.Obs != nil {
		r.hUnit = cfg.Obs.H(obs.OpReorgUnit)
		r.ring = cfg.Obs.Trace()
	}
	tree.Locks().SetReorg(r.owner, true)
	return r
}

// Metrics returns the reorganizer's counters.
func (r *Reorganizer) Metrics() *metrics.Counters { return r.m }

// TableSnapshot exports the reorg table for a checkpoint.
func (r *Reorganizer) TableSnapshot() wal.ReorgTableSnap {
	return r.table.snapshot()
}

// LK returns the largest key of the last finished reorganization unit
// (the paper's LK), or nil if no unit has finished. It is the resume
// position for an incremental run that Stopped before the tree's end.
func (r *Reorganizer) LK() []byte {
	r.table.mu.Lock()
	defer r.table.mu.Unlock()
	if !r.table.hasLK {
		return nil
	}
	return append([]byte(nil), r.table.lk...)
}

// Stopped reports whether the last CompactLeaves call ended early at a
// clean unit boundary (MaxUnits exhausted, Yield asked, or EndKey
// reached) instead of walking off the right edge of the tree.
func (r *Reorganizer) Stopped() bool { return r.stopped }

// UnitsRun returns the number of compaction units the last
// CompactLeaves call executed.
func (r *Reorganizer) UnitsRun() int { return r.unitsRun }

// stopHere reports whether pass 1 should stop before starting another
// unit: the per-run unit budget is spent or the yield hook asks.
func (r *Reorganizer) stopHere() bool {
	if r.cfg.MaxUnits > 0 && r.unitsRun >= r.cfg.MaxUnits {
		return true
	}
	return r.cfg.Yield != nil && r.cfg.Yield()
}

// Run executes the configured passes in order: compact, swap, rebuild.
func (r *Reorganizer) Run() error {
	if err := r.CompactLeaves(); err != nil {
		return err
	}
	if r.cfg.SwapPass {
		if err := r.SwapLeaves(); err != nil {
			return err
		}
	}
	if r.cfg.InternalPass {
		if err := r.RebuildInternal(); err != nil {
			return err
		}
	}
	return nil
}

// leafCapacity returns the target payload budget of a compacted leaf:
// TargetFill of the page's usable area (cell bytes plus slot entries).
func (r *Reorganizer) leafCapacity() int {
	usable := r.tree.Pager().PageSize() - storage.HeaderSize
	return int(float64(usable) * r.cfg.TargetFill)
}

// event reports a named reorganization stage: first to the fault
// injector (which may return a transient error or panic a crash), then
// to the configured event hook.
func (r *Reorganizer) event(stage string) error {
	err := r.cfg.Injector.Hit("reorg." + stage)
	if err == nil && r.cfg.OnEvent != nil {
		err = r.cfg.OnEvent(stage)
	}
	r.crashed = r.crashed || err != nil
	return err
}
