package main

import (
	repro "repro"
	"repro/internal/metrics"
	"repro/internal/obs"
)

// Counts are read from outside: deltas of the counters the layers
// already export (DB.PerfCounters, IOStats, LockStats, Daemon().Metrics,
// Obs()). A counterSet is one snapshot; measured segments add the
// difference of two snapshots to a running total, so probes and sensor
// samples taken between segments are never counted.

type counter int

const (
	cWALBytes counter = iota
	cWALForces
	cWALForcesSaved
	cWALBytesForced
	cWALFsyncs
	cWALSegsCreated
	cPoolHits
	cPoolMisses
	cPoolEvictions
	cPoolDirtyEvictions
	cPoolEvictionScans
	cPoolShardContention
	cDiskReads
	cDiskWrites
	cDiskSeeks
	cDiskBytesRead
	cDiskBytesWritten
	cDiskFsyncs
	cLockUserWaits
	cLockUserWaitNanos
	cLockReorgWaits
	cLockReorgWaitNanos
	cLockDeadlocks
	cLockForgoes
	cLockGrants
	cDaemonTicks
	cDaemonIncrements
	cDaemonUnits
	cDaemonBackoffs
	cDaemonSkips
	cDaemonErrors
	numCounters
)

type counterSet [numCounters]int64

func readCounters(db *repro.DB) counterSet {
	var c counterSet
	p := db.PerfCounters().Snapshot() // daemon counters are merged in
	c[cWALBytes] = p[metrics.WALBytesAppended]
	c[cWALForces] = p[metrics.WALForcedWrites]
	c[cWALForcesSaved] = p[metrics.WALForcesSaved]
	c[cWALBytesForced] = p[metrics.WALBytesForced]
	c[cWALFsyncs] = p[metrics.WALFsyncs]
	c[cWALSegsCreated] = p[metrics.WALSegsCreated]
	c[cPoolHits] = p[metrics.PoolHits]
	c[cPoolMisses] = p[metrics.PoolMisses]
	c[cPoolEvictions] = p[metrics.PoolEvictions]
	c[cPoolDirtyEvictions] = p[metrics.PoolDirtyEvictions]
	c[cPoolEvictionScans] = p[metrics.PoolEvictionScans]
	c[cPoolShardContention] = p[metrics.PoolShardContention]
	c[cDiskBytesRead] = p[metrics.DiskBytesRead]
	c[cDiskBytesWritten] = p[metrics.DiskBytesWritten]
	c[cDiskFsyncs] = p[metrics.DiskFsyncs]
	c[cDaemonTicks] = p[metrics.DaemonTicks]
	c[cDaemonIncrements] = p[metrics.DaemonIncrements]
	c[cDaemonUnits] = p[metrics.DaemonUnits]
	c[cDaemonBackoffs] = p[metrics.DaemonBackoffs]
	c[cDaemonSkips] = p[metrics.DaemonSkips]
	c[cDaemonErrors] = p[metrics.DaemonErrors]
	io := db.IOStats()
	c[cDiskReads], c[cDiskWrites], c[cDiskSeeks] = io.Reads, io.Writes, io.Seeks
	ls := db.LockStats()
	c[cLockUserWaits] = ls.UserWaits.Load()
	c[cLockUserWaitNanos] = ls.UserWaitNanos.Load()
	c[cLockReorgWaits] = ls.ReorgWaits.Load()
	c[cLockReorgWaitNanos] = ls.ReorgWaitNanos.Load()
	c[cLockDeadlocks] = ls.Deadlocks.Load()
	c[cLockForgoes] = ls.Forgoes.Load()
	c[cLockGrants] = ls.Grants.Load()
	return c
}

// addDelta adds (now - since) to c.
func (c *counterSet) addDelta(now, since counterSet) {
	for i := range c {
		c[i] += now[i] - since[i]
	}
}

func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

// forgoWaitSnapshot reads the obs histogram of instant-RS waits after a
// forgo (nil observability set: zero snapshot).
func forgoWaitSnapshot(db *repro.DB) obs.HistSnapshot {
	if s := db.Obs(); s != nil {
		return s.H(obs.OpForgoWait).Snapshot()
	}
	return obs.HistSnapshot{}
}
