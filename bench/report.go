package main

import (
	"fmt"
	"io"
	"sort"

	"repro/internal/metrics"
)

// value is one reported metric.
type value struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// resultLine is the contract's result: the last line of standard output.
type resultLine struct {
	Correct   bool             `json:"correct"`
	Attempted int64            `json:"attempted"`
	Failed    int64            `json:"failed"`
	Metrics   map[string]value `json:"metrics"`
}

// endToEndMetrics turns one untraced run into the end-to-end set, every
// value as measured.
func endToEndMetrics(e *env, res *result) map[string]float64 {
	r := &res.rec
	wall := float64(e.measuredNanos) / 1e9
	gets := r.getBusy.total // every get, in flight beside a Reorganize or not
	gets.merge(&r.getIdle.total)
	return map[string]float64{
		"setup_s":          median(res.setupSeconds),
		"ops_per_s":        ratio(float64(r.attempted), wall),
		"get_p50_us":       gets.quantile(0.50) / 1e3,
		"write_p50_us":     r.write.total.quantile(0.50) / 1e3,
		"scan_rows_per_s":  ratio(float64(r.scanRows[scanPost]), float64(r.scanNanos[scanPost])/1e9),
		"wal_bytes_per_op": ratio(float64(e.counts[cWALBytes]), float64(r.attempted)),
		"space_amp":        mean(e.spaceAmps),
		"leaf_fill":        mean(e.fills),
		"heap_mb":          res.heapMB,
	}
}

// perLayerMetrics turns one traced run into the per-layer set. Counts
// are deltas over the measured phase; times are medians of the spans
// the bench recorded around its own calls, or probe unit costs.
func perLayerMetrics(e *env, res *result) map[string]float64 {
	r, c, ro, p := &res.rec, &e.counts, &e.reorg, &e.probes
	ops := float64(r.attempted)
	kops := ops / 1e3
	fixes := float64(c[cPoolHits] + c[cPoolMisses])
	logical := float64(r.logicalBytes)
	commits := float64(r.writeCommits)
	m := map[string]float64{
		"fg.get_p99_us":        r.getBusy.windowP99() / 1e3,
		"fg.get_p999_us":       r.getBusy.total.quantile(0.999) / 1e3,
		"fg.write_p99_us":      r.write.windowP99() / 1e3,
		"fg.write_p999_us":     r.write.total.quantile(0.999) / 1e3,
		"fg.recovery_s":        res.recoverySec,
		"fg.reorg_s":           median(ro.runs),
		"fg.page_bytes_per_op": ratio(float64(c[cDiskBytesWritten]), ops),
		"fg.fsyncs_per_op":     ratio(float64(c[cWALFsyncs]+c[cDiskFsyncs]), ops),
		"fg.failed_ops_frac":   ratio(float64(r.failed), ops),

		"btree.get_us":           r.btree[opGet].quantile(0.5) / 1e3,
		"btree.insert_us":        r.btree[opInsert].quantile(0.5) / 1e3,
		"btree.update_us":        r.btree[opUpdate].quantile(0.5) / 1e3,
		"btree.delete_us":        r.btree[opDelete].quantile(0.5) / 1e3,
		"btree.scan_us_per_row":  ratio(float64(r.scanSpanNs)/1e3, float64(r.spanRows)),
		"btree.batch_us_per_rec": ratio(float64(r.batchNs)/1e3, float64(r.spanBatched)),
		"btree.pages_per_op":     ratio(fixes, ops),
		"btree.height":           float64(res.stats.Height),
		"btree.leaf_pages":       float64(res.stats.LeafPages),
		"btree.internal_pages":   float64(res.stats.InternalPages),
		"btree.retries_per_kop":  ratio(float64(r.retries), float64(r.tracedOps)/1e3),

		"lock.grants_per_op":         ratio(float64(c[cLockGrants]), ops),
		"lock.user_waits_per_kop":    ratio(float64(c[cLockUserWaits]), kops),
		"lock.user_wait_us_per_op":   ratio(float64(c[cLockUserWaitNanos])/1e3, ops),
		"lock.reorg_waits":           float64(c[cLockReorgWaits]),
		"lock.reorg_wait_ms":         float64(c[cLockReorgWaitNanos]) / 1e6,
		"lock.forgoes":               float64(c[cLockForgoes]),
		"lock.forgo_wait_p99_us":     res.forgoP99Us,
		"lock.deadlocks":             float64(c[cLockDeadlocks]),
		"lock.probe_lock_release_ns": p.lockRelease.quantile(0.5),

		"txn.begin_ns":      r.begin.quantile(0.5),
		"txn.commit_us":     r.commit.quantile(0.5) / 1e3,
		"txn.commit_p99_us": r.commit.quantile(0.99) / 1e3,

		"wal.bytes_per_write_op": ratio(float64(c[cWALBytes]), float64(r.mutations)),
		"wal.write_amp":          ratio(float64(c[cWALBytes]), logical),
		"wal.forces_per_commit":  ratio(float64(c[cWALForces]), commits),
		"wal.forces_saved_frac":  ratio(float64(c[cWALForcesSaved]), float64(c[cWALForces]+c[cWALForcesSaved])),
		"wal.bytes_per_force":    ratio(float64(c[cWALBytesForced]), float64(c[cWALForces])),
		"wal.fsyncs_per_commit":  ratio(float64(c[cWALFsyncs]), commits),
		"wal.segments_created":   float64(c[cWALSegsCreated]),
		"wal.probe_append_ns":    p.walAppend.quantile(0.5),
		"wal.probe_force_us":     p.walForce.quantile(0.5) / 1e3,

		"pool.hit_ratio":                ratio(float64(c[cPoolHits]), fixes),
		"pool.misses_per_op":            ratio(float64(c[cPoolMisses]), ops),
		"pool.evictions_per_op":         ratio(float64(c[cPoolEvictions]), ops),
		"pool.dirty_evict_frac":         ratio(float64(c[cPoolDirtyEvictions]), float64(c[cPoolEvictions])),
		"pool.evict_scans_per_evict":    ratio(float64(c[cPoolEvictionScans]), float64(c[cPoolEvictions])),
		"pool.shard_contention_per_kop": ratio(float64(c[cPoolShardContention]), kops),
		"pool.probe_fix_hit_ns":         p.fixHit.quantile(0.5),
		"pool.probe_fix_miss_us":        p.fixMiss.quantile(0.5) / 1e3,

		"disk.reads_per_op":         ratio(float64(c[cDiskReads]), ops),
		"disk.writes_per_op":        ratio(float64(c[cDiskWrites]), ops),
		"disk.bytes_read_per_op":    ratio(float64(c[cDiskBytesRead]), ops),
		"disk.bytes_written_per_op": ratio(float64(c[cDiskBytesWritten]), ops),
		"disk.write_amp":            ratio(float64(c[cDiskBytesWritten]), logical),
		"disk.fsyncs_per_op":        ratio(float64(c[cDiskFsyncs]), ops),
		"disk.seeks_per_read":       ratio(float64(c[cDiskSeeks]), float64(c[cDiskReads])),
		"disk.probe_read_us":        p.diskRead.quantile(0.5) / 1e3,
		"disk.probe_write_us":       p.diskWrite.quantile(0.5) / 1e3,
		"disk.probe_sync_us":        p.diskSync.quantile(0.5) / 1e3,

		"core.pass1_s":              median(ro.pass[1]),
		"core.pass2_s":              median(ro.pass[2]),
		"core.pass3_s":              median(ro.pass[3]),
		"core.unit_p50_us":          ro.unit.quantile(0.5) / 1e3,
		"core.unit_p99_us":          ro.unit.quantile(0.99) / 1e3,
		"core.units_compact":        ro.counter(metrics.UnitsCompact),
		"core.units_move":           ro.counter(metrics.UnitsMove),
		"core.units_swap":           ro.counter(metrics.UnitsSwap),
		"core.records_moved":        ro.counter(metrics.RecordsMoved),
		"core.pages_freed":          ro.counter(metrics.PagesFreed),
		"core.units_deadlocked":     ro.counter(metrics.UnitsDeadlocked),
		"core.side_applied":         ro.counter(metrics.Pass3SideApply),
		"core.stable_points":        ro.counter(metrics.Pass3Stable),
		"core.wal_bytes_per_unit":   ratio(float64(ro.during[cWALBytes]), ro.units()),
		"core.fsyncs_per_unit":      ratio(float64(ro.during[cWALFsyncs]+ro.during[cDiskFsyncs]), ro.units()),
		"core.page_writes_per_unit": ratio(float64(ro.during[cDiskWrites]), ro.units()),
		"core.swaps_per_leaf":       ratio(ro.counter(metrics.UnitsSwap), float64(ro.leavesAfter)),
		"core.fill_before":          mean(ro.fillBefore),
		"core.fill_after":           mean(ro.fillAfter),
		"core.scan_speedup": ratio(
			ratio(float64(r.scanRows[scanPost]), float64(r.scanNanos[scanPost])),
			ratio(float64(r.scanRows[scanPre]), float64(r.scanNanos[scanPre]))),
		"core.fg_slowdown": ratio(
			ratio(float64(r.busyOps), float64(r.busyNs)),
			ratio(float64(r.idleOps), float64(r.idleNs))),

		"daemon.ticks":       float64(c[cDaemonTicks]),
		"daemon.increments":  float64(c[cDaemonIncrements]),
		"daemon.units":       float64(c[cDaemonUnits]),
		"daemon.backoffs":    float64(c[cDaemonBackoffs]),
		"daemon.skips":       float64(c[cDaemonSkips]),
		"daemon.errors":      float64(c[cDaemonErrors]),
		"daemon.tick_p50_us": e.daemon.tick.quantile(0.5) / 1e3,
		"daemon.tick_p99_ms": e.daemon.tick.quantile(0.99) / 1e6,
		"daemon.busy_frac":   ratio(float64(e.daemon.busyNs), float64(e.daemon.to-e.daemon.from)),

		"recovery.redone_records":     float64(res.restart.RedoneRecords),
		"recovery.losers_undone":      float64(res.restart.LosersUndone),
		"recovery.log_bytes_replayed": float64(res.replayBytes),
		"recovery.us_per_redo_record": ratio(res.recoverySec*1e6, float64(res.restart.RedoneRecords)),

		"obs.overhead_frac": res.obsOverhead,
		"trace.overhead_frac": 1 - ratio(
			ratio(float64(r.tracedOps), float64(r.tracedNanos)),
			ratio(float64(r.plainOps), float64(r.plainNs))),
	}
	if res.restart.UnitCompleted {
		m["recovery.unit_completed"] = 1
	} else {
		m["recovery.unit_completed"] = 0
	}
	// The bench's own sensor samples describe the daemon only where one runs.
	m["daemon.fill_min"], m["daemon.fill_mean"], m["daemon.occupancy_scan_ms"] = 0, 0, 0
	if e.cfg.workload == wlChurn {
		m["daemon.fill_min"], m["daemon.fill_mean"] = minOf(e.fills), mean(e.fills)
		m["daemon.occupancy_scan_ms"] = e.occNanos.quantile(0.5) / 1e6
	}

	// Span aggregates: commit share and the closure check.
	agg := mergeAggs(res.tracers)
	m["txn.commit_share"] = ratio(float64(agg[spTxnCommit].total), float64(agg[spOp].total))
	m["closure.residual_frac"] = closure(e, res, agg).residual
	return m
}

// mergeAggs sums the per-name span aggregates of every recorder.
func mergeAggs(tracers []*tracer) (agg [numSpanNames]spanAgg) {
	for _, t := range tracers {
		for i, a := range t.agg {
			agg[i].n += a.n
			agg[i].total += a.total
			agg[i].children += a.children
		}
	}
	return agg
}

// closureCheck is the two-level closure of the traced run. Level one:
// the op spans' total against the sum of span self times below them
// (what the recorder itself loses). Level two: btree + commit span time
// against layer counts multiplied by the probes' unit costs.
type closureCheck struct {
	opMeanUs, selfSumUs float64 // per op
	spanUs, modelUs     float64 // per op: measured btree+commit, modelled
	residual            float64
	terms               map[string]float64 // per op, us
}

func closure(e *env, res *result, agg [numSpanNames]spanAgg) closureCheck {
	var cc closureCheck
	nOps := float64(agg[spOp].n)
	if nOps == 0 {
		return cc
	}
	opSelf := agg[spOp].total - agg[spOp].children
	leafSelf := agg[spTxnBegin].total + agg[spBtree].total + agg[spTxnCommit].total
	cc.opMeanUs = float64(agg[spOp].total) / nOps / 1e3
	cc.selfSumUs = float64(opSelf+leafSelf) / nOps / 1e3
	cc.spanUs = float64(agg[spBtree].total+agg[spTxnCommit].total) / nOps / 1e3

	// Layer counts per foreground op over the whole measured phase,
	// priced with the probes' median unit costs.
	c, p := &e.counts, &e.probes
	ops := float64(res.rec.attempted)
	per := func(n int64) float64 { return ratio(float64(n), ops) }
	cc.terms = map[string]float64{
		"pool.hit":   per(c[cPoolHits]) * p.fixHit.quantile(0.5) / 1e3,
		"pool.miss":  per(c[cPoolMisses]) * p.fixMiss.quantile(0.5) / 1e3,
		"lock":       per(c[cLockGrants]) * p.lockRelease.quantile(0.5) / 1e3,
		"wal.append": per(c[cWALBytes]) / probeRecordSize * p.walAppend.quantile(0.5) / 1e3,
		"wal.force":  per(c[cWALForces]+c[cWALForcesSaved]) * p.walForce.quantile(0.5) / 1e3,
	}
	for _, v := range cc.terms {
		cc.modelUs += v
	}
	cc.residual = 1 - ratio(cc.modelUs, cc.spanUs)
	return cc
}

// printTable writes one workload's metrics by name with unit, direction
// and, for end-to-end metrics, the regression bound.
func printTable(w io.Writer, defs []metricDef, vals map[string]float64) {
	for _, d := range defs {
		v, ok := vals[d.Name]
		if !ok {
			continue
		}
		bound := ""
		if d.Bound > 0 {
			bound = fmt.Sprintf("  bound %g%%", d.Bound*100)
		}
		fmt.Fprintf(w, "  %-30s %14.6g %-6s %s is better%s\n", d.Name, v, d.Unit, d.Better, bound)
	}
}

// printGlossary writes the two metric tables of README.md.
func printGlossary(w io.Writer) {
	fmt.Fprintln(w, "| name | unit · better | bound | how it is computed |\n|---|---|---|---|")
	for _, d := range endToEnd {
		fmt.Fprintf(w, "| `%s` | %s · %s | %g %% | %s |\n", d.Name, d.Unit, d.Better, d.Bound*100, d.How)
	}
	fmt.Fprintln(w, "\n| name | unit · better | how it is computed |\n|---|---|---|")
	for _, d := range perLayer {
		fmt.Fprintf(w, "| `%s` | %s · %s | %s |\n", d.Name, d.Unit, d.Better, d.How)
	}
}

// notes are the facts a reader needs beside the metrics: tape sizes,
// sample counts behind every percentile, sanity flags.
func notes(e *env, res *result, vals map[string]float64, n map[string]any) {
	r := &res.rec
	n["measured_wall_s"] = float64(e.measuredNanos) / 1e9
	n["tape_ops"] = r.attempted
	n["segments"] = len(e.fills)
	for name, w := range map[string]*windowed{"get": &r.getBusy, "write": &r.write} {
		n[name+"_samples"] = w.total.n
		n[name+"_p99_windows"] = len(w.p99s)
		n[name+"_p90_p99_windowed_p99_us"] = []float64{w.total.quantile(0.90) / 1e3,
			w.total.quantile(0.99) / 1e3, w.windowP99() / 1e3}
	}
	n["pool_pages"] = e.opts.BufferPoolPages
	n["tree_pages"] = res.stats.LeafPages + res.stats.InternalPages
	n["records_end"] = e.live.Load()
	for _, c := range e.cl {
		if len(c.tapeSeconds) > 1 {
			n[fmt.Sprintf("client%d_tape_s_each", c.id)] = c.tapeSeconds
		}
	}
	if e.splitGets {
		n["get_samples_outside_reorg"] = r.getIdle.total.n
		n["get_p50_us_outside_reorg"] = r.getIdle.total.quantile(0.5) / 1e3
		n["reorganizations"] = len(e.reorg.runs)
		n["reorg_s_each"] = e.reorg.runs
	}
	if fill, ok := vals["leaf_fill"]; ok {
		n["leaf_fill_at_or_above_floor_0.60"] = fill >= fillFloor
	}
	if res.restart != nil {
		n["recovery_redone_records"] = res.restart.RedoneRecords
		n["recovery_unit_completed"] = res.restart.UnitCompleted
	}
	if !e.cfg.traced {
		return
	}
	agg := mergeAggs(res.tracers)
	cc := closure(e, res, agg)
	n["closure_op_mean_us"] = cc.opMeanUs
	n["closure_span_self_sum_us"] = cc.selfSumUs
	n["closure_btree_plus_commit_us"] = cc.spanUs
	n["closure_model_us"] = cc.modelUs
	n["closure_model_terms_us"] = cc.terms
	n["closure_flagged"] = cc.residual > residualFlagged || cc.residual < -residualFlagged
	n["spans_recorded"] = agg[spOp].n + agg[spTxnBegin].n + agg[spBtree].n + agg[spTxnCommit].n
	if res.spanFile != "" {
		n["span_file"] = fmt.Sprintf("%s (%d spans: the first %d of each recorder; %d later ones only in the aggregates)",
			res.spanFile, res.spansKept, traceCap, res.spansDropped)
	}
}

func sortedNoteKeys(m map[string]any) []string {
	ks := make([]string, 0, len(m))
	for k := range m {
		ks = append(ks, k)
	}
	sort.Strings(ks)
	return ks
}
