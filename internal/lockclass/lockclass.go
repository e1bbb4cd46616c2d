// Package lockclass is the single source of truth for the repo's lock
// classes and their global acquisition order. Two consumers read it:
//
//   - internal/analysis/latchorder proves, over every static call path,
//     that no acquisition edge contradicts Order and that the whole
//     acquisition graph is acyclic;
//   - internal/invariant's runtime tracker (the -tags invariants build)
//     checks the same ranks against the schedules that actually execute.
//
// Keeping both checkers on one table is the point: a class added or
// reordered here changes the static proof and the runtime assertion in
// the same commit, and a golden test pins the two views together.
//
// Keys name the mutex by its declaration site: "pkg.Type.field" for a
// named mutex field, "pkg.Type" for an embedded mutex (the Frame
// latch), and "pkg.var" for a package-level mutex variable. Values are
// the class names internal/invariant has used since PR 4
// ("storage.shard", "storage.alloc", "storage.dep" predate this
// package and must not change spelling).
package lockclass

// Classes maps mutex declaration sites to lock-class names. A mutex
// not listed here gets an automatic class derived from its key; such
// classes are unranked — latchorder still includes them in the cycle
// check but cannot order them against ranked classes.
var Classes = map[string]string{
	"repro.DB.ckptMu":       "repro.ckpt",
	"repro.DB.mu":           "repro.db",
	"repro.backoffMu":       "repro.backoff",
	"fault.Injector.mu":     "fault.injector",
	"lock.stripe.mu":        "lock.manager",
	"wal.Log.mu":            "wal.log",
	"wal.Log.rngMu":         "wal.rng",
	"txn.Txn.mu":            "txn.txn",
	"txn.Manager.mu":        "txn.manager",
	"metrics.Counters.mu":   "metrics.counters",
	"sidefile.SideFile.mu":  "sidefile.table",
	"storage.FileDisk.mu":   "storage.disk",
	"storage.MemDisk.mu":    "storage.disk",
	"storage.Frame":         "storage.frame",
	"storage.Frame.flushMu": "storage.flush",
	"storage.shard.mu":      "storage.shard",
	"storage.Pager.allocMu": "storage.alloc",
	"storage.Pager.depMu":   "storage.dep",
	"storage.Pager.rngMu":   "storage.rng",
	"btree.Tree.mu":         "btree.tree",
	"btree.Tree.deferredMu": "btree.deferred",
	"btree.Tree.smoMu":      "btree.smo",
	"core.reorgTable.mu":    "core.reorg",
	"core.pass3State.mu":    "core.pass3",
	"check.History.mu":      "check.history",
}

// Order lists every ranked lock class, outermost first. A goroutine
// holding class Order[i] may acquire Order[j] only when i < j (or when
// the two are the same class — per-instance locks of one class, like
// frame lock coupling and the careful-write flush cascade, carry their
// own ordering arguments, mirroring the runtime tracker's same-class
// exemption).
//
// The order encodes the protocols the code actually uses:
//
//   - repro.ckpt serializes whole checkpoints, taken while holding
//     nothing else, so it is outermost; repro.db wraps whole operations
//     (Checkpoint holds it across a reorg-table snapshot) and comes next;
//   - the reorganizer's table and pass-3 state sit above the tree and
//     pool structures they read;
//   - btree.smo is held shared across a structure modification's log
//     append and page changes, and exclusively (by a checkpoint, under
//     repro.ckpt) only around a read of the log tail;
//   - storage.flush (the careful-write flush serialiser) is taken
//     before the shard mutex (Deallocate) and before frame latches,
//     dep-graph, WAL and disk (flushFrame's cascade);
//   - a held frame latch logs updates: frame → txn.txn → txn.manager
//     and txn.txn → wal.log (LogUpdate's registration and append);
//   - flushAnchor takes the tree mutex under the anchor frame's latch,
//     so storage.frame precedes btree.tree;
//   - the WAL appends under its mutex through fault injection
//     (wal.log → fault.injector), and both disks do the same
//     (storage.disk → fault.injector);
//   - RNG and metrics mutexes are leaves.
var Order = []string{
	"repro.ckpt",
	"repro.db",
	"core.reorg",
	"core.pass3",
	"sidefile.table",
	"btree.deferred",
	"btree.smo",
	"lock.manager",
	"storage.flush",
	"storage.shard",
	"storage.frame",
	"txn.txn",
	"txn.manager",
	"btree.tree",
	"wal.log",
	"storage.dep",
	"storage.alloc",
	"storage.disk",
	"fault.injector",
	"metrics.counters",
	"storage.rng",
	"wal.rng",
	"repro.backoff",
	"check.history",
}

var rank = func() map[string]int {
	m := make(map[string]int, len(Order))
	for i, c := range Order {
		m[c] = i
	}
	return m
}()

// Rank returns the class's position in Order (0 is outermost) and
// whether the class is ranked at all.
func Rank(class string) (int, bool) {
	r, ok := rank[class]
	return r, ok
}

// Ranked reports whether the class appears in Order.
func Ranked(class string) bool {
	_, ok := rank[class]
	return ok
}
