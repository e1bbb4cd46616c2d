// Package metrics aggregates the counters the paper's evaluation is
// framed around: reorganization units by type, records moved, swaps
// avoided by the Find-Free-Space heuristic, log volume, and blocked
// time for user transactions.
package metrics

import (
	"fmt"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
)

// Counters is a concurrency-safe named-counter set.
type Counters struct {
	mu sync.Mutex
	m  map[string]*atomic.Int64
}

// New returns an empty counter set.
func New() *Counters {
	return &Counters{m: make(map[string]*atomic.Int64)}
}

func (c *Counters) counter(name string) *atomic.Int64 {
	c.mu.Lock()
	defer c.mu.Unlock()
	v, ok := c.m[name]
	if !ok {
		v = &atomic.Int64{}
		c.m[name] = v
	}
	return v
}

// Add increments a named counter.
func (c *Counters) Add(name string, delta int64) {
	c.counter(name).Add(delta)
}

// Handle resolves a named counter once and returns the underlying
// atomic, so hot paths can increment it without the mutex-map lookup
// Add pays. Handles stay valid for the life of the Counters.
func (c *Counters) Handle(name string) *atomic.Int64 {
	return c.counter(name)
}

// Get reads a named counter.
func (c *Counters) Get(name string) int64 {
	return c.counter(name).Load()
}

// Snapshot returns a copy of all counters.
func (c *Counters) Snapshot() map[string]int64 {
	c.mu.Lock()
	defer c.mu.Unlock()
	out := make(map[string]int64, len(c.m))
	for k, v := range c.m {
		out[k] = v.Load()
	}
	return out
}

// String renders the counters sorted by name (for reports).
func (c *Counters) String() string {
	snap := c.Snapshot()
	names := make([]string, 0, len(snap))
	for k := range snap {
		names = append(names, k)
	}
	sort.Strings(names)
	var b strings.Builder
	for _, k := range names {
		fmt.Fprintf(&b, "%-28s %d\n", k, snap[k])
	}
	return b.String()
}

// Counter names used by the reorganizer and baseline.
const (
	UnitsCompact    = "units.compact"
	UnitsMove       = "units.move"
	UnitsSwap       = "units.swap"
	RecordsMoved    = "records.moved"
	PagesFreed      = "pages.freed"
	PagesAllocated  = "pages.allocated"
	UnitsDeadlocked = "units.deadlocked"
	Pass2Swaps      = "pass2.swaps"
	Pass2Moves      = "pass2.moves"
	Pass3Bases      = "pass3.bases.read"
	Pass3SideApply  = "pass3.side.applied"
	Pass3Stable     = "pass3.stable.points"
	BaselineOps     = "baseline.block.ops"
)

// Walk retries by pass: the reorganizer's descents to a base page that
// lost a deadlock or timed out and were made again (DB.PerfCounters
// sums them over every reorganization the database ran).
const (
	Pass1WalkRetries = "pass1.walk.retries"
	Pass2WalkRetries = "pass2.walk.retries"
	Pass3WalkRetries = "pass3.walk.retries"
)

// WalkRetries lists the walk-retry counters, pass 1 first.
var WalkRetries = [...]string{Pass1WalkRetries, Pass2WalkRetries, Pass3WalkRetries}

// Counter names for the concurrent hot path: buffer-pool sharding and
// WAL group commit (surfaced by DB.PerfCounters and btree-inspect).
const (
	PoolShards          = "pool.shards"
	PoolHits            = "pool.hits"
	PoolMisses          = "pool.misses"
	PoolEvictions       = "pool.evictions"
	PoolDirtyEvictions  = "pool.evictions.dirty"
	PoolEvictionScans   = "pool.eviction.scans"
	PoolShardContention = "pool.shard.contention"
	WALBytesAppended    = "wal.bytes.appended"
	WALForcedWrites     = "wal.forced.writes"
	WALForcesSaved      = "wal.forces.saved"
	WALGroupLeaders     = "wal.group.leaders"
	WALBytesForced      = "wal.bytes.forced"
)

// Counter names for real media traffic (file backend; all zero on the
// in-memory backend except disk.bytes.*, which count simulated
// transfers). These are the write-amplification inputs.
const (
	DiskBytesRead    = "disk.bytes.read"
	DiskBytesWritten = "disk.bytes.written"
	DiskFsyncs       = "disk.fsyncs"
	WALFsyncs        = "wal.fsyncs"
	WALSegsCreated   = "wal.segments.created"
	WALSegsDeleted   = "wal.segments.deleted"
	WALSegsLive      = "wal.segments.live"
)

// Checkpoint and retention gauges and counters (DB.PerfCounters): the
// log bytes the device still holds, the bytes a restart would replay
// from the last checkpoint, automatic checkpoints started, and
// checkpoints of either kind that failed.
const (
	WALRetainedBytes        = "wal.retained_bytes"
	WALBytesSinceCheckpoint = "wal.bytes_since_checkpoint"
	CkptAuto                = "ckpt.auto"
	CkptFailed              = "ckpt.failed"
)

// Lock-manager and runtime contention counters: trips through the lock
// manager's mutex (DB.PerfCounters), and the Go runtime's cumulative
// mutex wait across the process (DB.MetricsSnapshot).
const (
	LockTrips          = "lock.trips"
	RuntimeMutexWaitNs = "runtime.mutex_wait_ns"
)

// Autonomous-reorganization daemon counters (internal/daemon).
const (
	DaemonTicks      = "daemon.ticks"
	DaemonIncrements = "daemon.increments"
	DaemonUnits      = "daemon.units"
	DaemonBackoffs   = "daemon.backoffs"
	DaemonSkips      = "daemon.skips.quiescent"
	DaemonErrors     = "daemon.errors"
)
