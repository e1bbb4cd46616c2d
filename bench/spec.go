package main

// The benchmark's contract with BENCHMARK.json lives here: the four
// workloads, the end-to-end metrics with their direction and regression
// bound, and the per-layer metrics. TestSpecMatchesBenchmarkJSON keeps
// the two in step, and every run reports exactly these names.

type workloadDef struct {
	Name string `json:"name"`
	Why  string `json:"why"`
}

type metricDef struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound,omitempty"` // end-to-end only
	How    string  `json:"-"`               // glossary line (README)
}

const (
	wlMemHot     = "mem-hot"
	wlFileCommit = "file-commit"
	wlFileReorg  = "file-reorg"
	wlChurn      = "mem-churn-daemon"
)

var workloads = []workloadDef{
	{wlMemHot, "tree fits the unbounded in-memory pool, no reorganization: all time is btree descent, latching, lock, txn and obs clock reads, so a hot-path CPU gain shows and an I/O gain must show nothing"},
	{wlFileCommit, "file backend, pool is 1/8 of the tree, every commit forces the WAL: time is fsync, dirty eviction with careful-write flushes and read misses; same pager as mem-hot used the other way"},
	{wlFileReorg, "the paper's scenario: sparsify, three-pass Reorganize under a concurrent reader/updater, refill, checkpoint, then a crash inside a unit and forward recovery; core, RX/RS forgo and recovery do the work"},
	{wlChurn, "delete-heavy waves with the daemon as the second thread: bounded incremental pass-1 slices, sensor scans and pacing cost or earn here and nowhere else; no fsync noise hides background CPU"},
}

// End-to-end metrics: what a caller of the embedded library sees, every
// value as measured. Every one is reported, and is non-zero, on every
// workload. The time-based ones carry the widest bound the contract
// allows: inside one state of the host their run-to-run spread is 4-10 %,
// but the 2-vCPU sandbox the benchmark was defined on moves between two
// states 1.4-1.8x apart (README, "Measured spread"). What the issue also
// asked for and cannot be an end-to-end metric under the contract is
// demoted to the per-layer set under the prefix "fg.": the tail
// latencies (windowed p99 and p99.9: up to 30 % apart over ten runs that
// straddle both host states, and on mem-hot the p99 sits on the cliff
// between two latency modes), recovery_s (one shot per run, 14-30 %
// inside one host state), reorg_s, page_bytes_per_op and fsyncs_per_op
// (absent or zero on the in-memory workloads) and failed_ops_frac (zero
// on a healthy run; it is also the result line's attempted/failed pair).
var endToEnd = []metricDef{
	{"setup_s", "s", "lower", 0.25, "median wall time of three full set-ups (materialise keys and tapes, open, load, checkpoint, warm)"},
	{"ops_per_s", "1/s", "higher", 0.25, "foreground operations completed / measured wall seconds (probes and sensor samples excluded)"},
	{"get_p50_us", "us", "lower", 0.25, "median DB.Get latency, every get of the measured phase"},
	{"write_p50_us", "us", "lower", 0.25, "median latency of single-record Insert/Update/Delete including its forced commit"},
	{"scan_rows_per_s", "1/s", "higher", 0.25, "rows delivered / seconds spent inside DB.Scan; on file-reorg the post-reorganization full scans only"},
	{"wal_bytes_per_op", "B", "lower", 0.02, "WAL bytes appended in the measured phase (reorganization records included) / foreground operations"},
	{"space_amp", "ratio", "lower", 0.05, "allocated pages x page size / live user bytes of the shadow model; mean of per-cycle or per-wave samples on the cyclic workloads, end of run otherwise"},
	{"leaf_fill", "ratio", "higher", 0.05, "leaf-weighted average leaf fill from DB.Occupancy(8), sampled with space_amp; read against the daemon's 0.60 floor"},
	{"heap_mb", "MB", "lower", 0.25, "mean over the measured phase of the bytes held by heap objects, reachable or not yet collected (read every 20 ms), minus the bench's own keys, values, shadow model and tapes"},
}

// Per-layer metrics: names are <layer>.<metric>; layers are this repo's
// packages (pool = storage.Pager, disk = storage.Disk). They come from
// the traced run, have no bound, and are zero where a layer is idle.
var perLayer = []metricDef{
	// foreground metrics demoted from the end-to-end set
	{Name: "fg.get_p99_us", Unit: "us", Better: "lower", How: "median over 250 ms windows of each window's Get p99 (windows under 1000 samples merge with the next); on file-reorg only gets started while a Reorganize is in flight"},
	{Name: "fg.get_p999_us", Unit: "us", Better: "lower", How: "99.9th percentile of the same gets over the whole measured phase (at least 50 samples beyond it on every workload)"},
	{Name: "fg.write_p99_us", Unit: "us", Better: "lower", How: "windowed p99 of single-record writes"},
	{Name: "fg.write_p999_us", Unit: "us", Better: "lower", How: "99.9th percentile of the same single-record writes"},
	{Name: "fg.recovery_s", Unit: "s", Better: "lower", How: "wall time of DB.Restart after the scripted crash (on file-reorg: forward recovery of the aborted unit)"},
	{Name: "fg.reorg_s", Unit: "s", Better: "lower", How: "median wall time of one full three-pass Reorganize (file-reorg only)"},
	{Name: "fg.page_bytes_per_op", Unit: "B", Better: "lower", How: "page bytes written to the device / foreground op"},
	{Name: "fg.fsyncs_per_op", Unit: "ratio", Better: "lower", How: "(WAL + page-file fsyncs) / foreground op"},
	{Name: "fg.failed_ops_frac", Unit: "ratio", Better: "lower", How: "ops ending in an unexpected error, wrong result or exhausted retries / ops attempted"},

	{Name: "btree.get_us", Unit: "us", Better: "lower", How: "median span of Txn.Get (descent, latch, leaf op, lock; no commit)"},
	{Name: "btree.insert_us", Unit: "us", Better: "lower", How: "median span of Txn.Insert"},
	{Name: "btree.update_us", Unit: "us", Better: "lower", How: "median span of Txn.Update"},
	{Name: "btree.delete_us", Unit: "us", Better: "lower", How: "median span of Txn.Delete"},
	{Name: "btree.scan_us_per_row", Unit: "us", Better: "lower", How: "sum of Txn.Scan spans / rows delivered"},
	{Name: "btree.batch_us_per_rec", Unit: "us", Better: "lower", How: "sum of Txn.InsertBatch spans / records inserted"},
	{Name: "btree.pages_per_op", Unit: "ratio", Better: "lower", How: "pool fixes (hits + misses) / foreground op"},
	{Name: "btree.height", Unit: "count", Better: "lower", How: "tree height at the end of the measured phase"},
	{Name: "btree.leaf_pages", Unit: "count", Better: "lower", How: "leaf pages at the end of the measured phase"},
	{Name: "btree.internal_pages", Unit: "count", Better: "lower", How: "internal pages at the end of the measured phase"},
	{Name: "btree.retries_per_kop", Unit: "ratio", Better: "lower", How: "IsRetryable errors (deadlock, switch, timeout) / 1000 ops"},

	{Name: "lock.grants_per_op", Unit: "ratio", Better: "lower", How: "lock grants / foreground op"},
	{Name: "lock.user_waits_per_kop", Unit: "ratio", Better: "lower", How: "user transactions that blocked in the lock manager / 1000 ops"},
	{Name: "lock.user_wait_us_per_op", Unit: "us", Better: "lower", How: "user lock wait time / foreground op"},
	{Name: "lock.reorg_waits", Unit: "count", Better: "lower", How: "times the reorganizer blocked in the lock manager"},
	{Name: "lock.reorg_wait_ms", Unit: "ms", Better: "lower", How: "total reorganizer lock wait"},
	{Name: "lock.forgoes", Unit: "count", Better: "lower", How: "reader/updater forgoes on an RX-held base page"},
	{Name: "lock.forgo_wait_p99_us", Unit: "us", Better: "lower", How: "p99 of the instant-RS wait after a forgo (obs histogram, 2x buckets)"},
	{Name: "lock.deadlocks", Unit: "count", Better: "lower", How: "deadlock victims"},
	{Name: "lock.probe_lock_release_ns", Unit: "ns", Better: "lower", How: "probe: uncontended Locks().Lock + ReleaseAll"},

	{Name: "txn.begin_ns", Unit: "ns", Better: "lower", How: "median span of DB.Begin"},
	{Name: "txn.commit_us", Unit: "us", Better: "lower", How: "median span of Txn.Commit, write transactions only"},
	{Name: "txn.commit_p99_us", Unit: "us", Better: "lower", How: "p99 of the same commit spans"},
	{Name: "txn.commit_share", Unit: "ratio", Better: "lower", How: "sum of commit spans / sum of op spans"},

	{Name: "wal.bytes_per_write_op", Unit: "B", Better: "lower", How: "WAL bytes appended / mutating foreground op"},
	{Name: "wal.write_amp", Unit: "ratio", Better: "lower", How: "WAL bytes appended / logical bytes written"},
	{Name: "wal.forces_per_commit", Unit: "ratio", Better: "lower", How: "forced log writes / write commits"},
	{Name: "wal.forces_saved_frac", Unit: "ratio", Better: "higher", How: "forces saved by group commit / (forces + saved)"},
	{Name: "wal.bytes_per_force", Unit: "B", Better: "higher", How: "bytes forced / forced log writes"},
	{Name: "wal.fsyncs_per_commit", Unit: "ratio", Better: "lower", How: "WAL fsyncs / write commits"},
	{Name: "wal.segments_created", Unit: "count", Better: "lower", How: "WAL segment files created in the measured phase"},
	{Name: "wal.probe_append_ns", Unit: "ns", Better: "lower", How: "probe: Log.Append of a 150-byte record"},
	{Name: "wal.probe_force_us", Unit: "us", Better: "lower", How: "probe: Log.Append + FlushTo of the same record"},

	{Name: "pool.hit_ratio", Unit: "ratio", Better: "higher", How: "pool hits / (hits + misses)"},
	{Name: "pool.misses_per_op", Unit: "ratio", Better: "lower", How: "pool misses / foreground op"},
	{Name: "pool.evictions_per_op", Unit: "ratio", Better: "lower", How: "frames evicted / foreground op"},
	{Name: "pool.dirty_evict_frac", Unit: "ratio", Better: "lower", How: "evictions that had to write the victim first / evictions"},
	{Name: "pool.evict_scans_per_evict", Unit: "ratio", Better: "lower", How: "CLOCK hand steps / eviction"},
	{Name: "pool.shard_contention_per_kop", Unit: "ratio", Better: "lower", How: "shard mutex acquisitions that blocked / 1000 ops"},
	{Name: "pool.probe_fix_hit_ns", Unit: "ns", Better: "lower", How: "probe: Pager.Fix + Unfix of a resident page"},
	{Name: "pool.probe_fix_miss_us", Unit: "us", Better: "lower", How: "probe: Pager.Fix + Unfix of a non-resident page (0 when everything is resident)"},

	{Name: "disk.reads_per_op", Unit: "ratio", Better: "lower", How: "page reads / foreground op"},
	{Name: "disk.writes_per_op", Unit: "ratio", Better: "lower", How: "page writes / foreground op"},
	{Name: "disk.bytes_read_per_op", Unit: "B", Better: "lower", How: "bytes read from the page file / foreground op"},
	{Name: "disk.bytes_written_per_op", Unit: "B", Better: "lower", How: "bytes written to the page file / foreground op"},
	{Name: "disk.write_amp", Unit: "ratio", Better: "lower", How: "page bytes written / logical bytes written"},
	{Name: "disk.fsyncs_per_op", Unit: "ratio", Better: "lower", How: "page-file fsyncs / foreground op"},
	{Name: "disk.seeks_per_read", Unit: "ratio", Better: "lower", How: "non-sequential reads / reads (single-arm seek model)"},
	{Name: "disk.probe_read_us", Unit: "us", Better: "lower", How: "probe: Disk.Read of the anchor page"},
	{Name: "disk.probe_write_us", Unit: "us", Better: "lower", How: "probe: Disk.Write of the same image back"},
	{Name: "disk.probe_sync_us", Unit: "us", Better: "lower", How: "probe: Disk.Sync after that write"},

	{Name: "core.pass1_s", Unit: "s", Better: "lower", How: "median time from Reorganize start to the first pass-2 or pass-3 event"},
	{Name: "core.pass2_s", Unit: "s", Better: "lower", How: "median time from the first pass-2 event to the first pass-3 event"},
	{Name: "core.pass3_s", Unit: "s", Better: "lower", How: "median time from the first pass-3 event to Reorganize's return"},
	{Name: "core.unit_p50_us", Unit: "us", Better: "lower", How: "median unit duration, begin event to end event"},
	{Name: "core.unit_p99_us", Unit: "us", Better: "lower", How: "p99 unit duration"},
	{Name: "core.units_compact", Unit: "count", Better: "lower", How: "compaction units over all measured Reorganize calls"},
	{Name: "core.units_move", Unit: "count", Better: "lower", How: "pass-2 move units"},
	{Name: "core.units_swap", Unit: "count", Better: "lower", How: "pass-2 swap units"},
	{Name: "core.records_moved", Unit: "count", Better: "lower", How: "records moved by compaction"},
	{Name: "core.pages_freed", Unit: "count", Better: "higher", How: "leaf pages freed"},
	{Name: "core.units_deadlocked", Unit: "count", Better: "lower", How: "units that lost a deadlock and retried"},
	{Name: "core.side_applied", Unit: "count", Better: "lower", How: "side-file entries applied during pass-3 catch-up"},
	{Name: "core.stable_points", Unit: "count", Better: "lower", How: "pass-3 stable points forced"},
	{Name: "core.wal_bytes_per_unit", Unit: "B", Better: "lower", How: "WAL bytes appended during Reorganize / units (concurrent client's updates included)"},
	{Name: "core.fsyncs_per_unit", Unit: "ratio", Better: "lower", How: "(WAL + page-file fsyncs) during Reorganize / units"},
	{Name: "core.page_writes_per_unit", Unit: "ratio", Better: "lower", How: "page writes during Reorganize / units"},
	{Name: "core.swaps_per_leaf", Unit: "ratio", Better: "lower", How: "swap units / leaves after reorganization"},
	{Name: "core.fill_before", Unit: "ratio", Better: "higher", How: "mean leaf-weighted fill before Reorganize"},
	{Name: "core.fill_after", Unit: "ratio", Better: "higher", How: "mean leaf-weighted fill after Reorganize"},
	{Name: "core.scan_speedup", Unit: "ratio", Better: "higher", How: "post-reorganization scan rows/s / pre-reorganization"},
	{Name: "core.fg_slowdown", Unit: "ratio", Better: "higher", How: "concurrent client's ops/s while a Reorganize runs / while none does, same run"},

	{Name: "daemon.ticks", Unit: "count", Better: "lower", How: "policy ticks in the measured phase"},
	{Name: "daemon.increments", Unit: "count", Better: "lower", How: "incremental slices started"},
	{Name: "daemon.units", Unit: "count", Better: "lower", How: "reorganization units the daemon ran"},
	{Name: "daemon.backoffs", Unit: "count", Better: "lower", How: "ticks that backed off on pacing"},
	{Name: "daemon.skips", Unit: "count", Better: "lower", How: "ticks skipped as quiescent"},
	{Name: "daemon.errors", Unit: "count", Better: "lower", How: "ticks that ended in an error"},
	{Name: "daemon.tick_p50_us", Unit: "us", Better: "lower", How: "median tick duration: timer due (DaemonClock) to OnTick"},
	{Name: "daemon.tick_p99_ms", Unit: "ms", Better: "lower", How: "p99 tick duration"},
	{Name: "daemon.busy_frac", Unit: "ratio", Better: "lower", How: "sum of tick durations / measured wall"},
	{Name: "daemon.fill_min", Unit: "ratio", Better: "higher", How: "lowest per-wave leaf-weighted fill"},
	{Name: "daemon.fill_mean", Unit: "ratio", Better: "higher", How: "mean per-wave leaf-weighted fill"},
	{Name: "daemon.occupancy_scan_ms", Unit: "ms", Better: "lower", How: "median span of the bench's own DB.Occupancy(8) call: the sensor's cost"},

	{Name: "recovery.redone_records", Unit: "count", Better: "lower", How: "log records redone by Restart"},
	{Name: "recovery.losers_undone", Unit: "count", Better: "lower", How: "loser transactions rolled back"},
	{Name: "recovery.unit_completed", Unit: "count", Better: "higher", How: "1 when forward recovery finished an in-flight unit (must be 1 on file-reorg)"},
	{Name: "recovery.log_bytes_replayed", Unit: "B", Better: "lower", How: "WAL bytes appended since the last checkpoint the bench took"},
	{Name: "recovery.us_per_redo_record", Unit: "us", Better: "lower", How: "Restart's wall time / records redone"},

	{Name: "obs.overhead_frac", Unit: "ratio", Better: "lower", How: "mem-hot only: 1 - ops/s with observability on / off, tape prefix, A/B alternated"},
	{Name: "trace.overhead_frac", Unit: "ratio", Better: "lower", How: "1 - ops/s of traced tape chunks / untraced chunks, alternated within the traced run"},
	{Name: "closure.residual_frac", Unit: "ratio", Better: "lower", How: "1 - sum(layer count x probe unit cost) / (btree + commit span time); flagged above 0.25"},
}

// benchmarkFile is BENCHMARK.json: the driver's view of this file.
type benchmarkFile struct {
	Command    []string      `json:"command"`
	Paths      []string      `json:"paths"`
	RunSeconds int           `json:"run_seconds"`
	Workloads  []workloadDef `json:"workloads"`
	EndToEnd   []metricDef   `json:"end_to_end"`
	PerLayer   []metricDef   `json:"per_layer"`
}

func benchmarkJSON() benchmarkFile {
	return benchmarkFile{
		Command:    []string{"bash", "bench/run.sh"},
		Paths:      []string{"bench"},
		RunSeconds: defaultSeconds,
		Workloads:  workloads,
		EndToEnd:   endToEnd,
		PerLayer:   perLayer,
	}
}
