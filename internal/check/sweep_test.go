package check

import (
	"slices"
	"testing"
)

// The sweep programs' hit counts and (sorted) fault-point sets are pinned
// exactly: a change that moves a fault hit re-derives them, and a
// refactor of the harness must not move any. Log format 5 (splits log
// no cells, the old page waits on disk for the new one) moved them:
// evictions write 4 more pages (a split's new page ahead of the page it
// was split from; a pager.flush and a disk.write hit each: 1 357 ->
// 1 365 mem, 1 237 -> 1 245 daemon), and on files the smaller log
// leaves one segment fewer to truncate (1 360 -> 1 367). With a
// checkpoint every 512 log bytes the smaller log takes fewer
// checkpoints: 8 appends, 7 forces and 8 page writes fewer, and one
// truncation fewer on files (1 560 -> 1 529 mem, 1 565 -> 1 533 file).
var (
	// passesPoints is every fault point the passes program reaches on
	// the in-memory backend: every reorganization unit type and the
	// root-switch window. The file backend adds wal.truncate.
	passesPoints = []string{
		"disk.read", "disk.write", "pager.evict", "pager.flush",
		"reorg.compact.begin", "reorg.compact.end", "reorg.compact.modified", "reorg.compact.moved",
		"reorg.move.begin", "reorg.move.end", "reorg.move.modified", "reorg.move.moved",
		"reorg.pass3.base", "reorg.pass3.built", "reorg.pass3.side", "reorg.pass3.stable",
		"reorg.pass3.switch.durable", "reorg.pass3.switch.pre", "reorg.pass3.switched",
		"reorg.swap.begin", "reorg.swap.end", "reorg.swap.logged", "reorg.swap.moved",
		"wal.append", "wal.force",
	}
	filePoints = append(slices.Clone(passesPoints), "wal.truncate")
	// daemonPoints: the daemon's scheduler seams and the pass-1 units
	// it drives through them.
	daemonPoints = []string{
		"daemon.tick", "daemon.unit.start",
		"disk.read", "disk.write", "pager.evict", "pager.flush",
		"reorg.compact.begin", "reorg.compact.end", "reorg.compact.modified", "reorg.compact.moved",
		"wal.append", "wal.force",
	}
)

// pinned checks a sweep's enumeration against its pinned hit count and
// fault-point set.
func pinned(t *testing.T, res *SweepResult, hits int, points []string) {
	t.Helper()
	if res.TotalHits != hits {
		t.Errorf("enumerated %d fault-point hits, want %d", res.TotalHits, hits)
	}
	if !slices.Equal(res.Points, points) {
		t.Errorf("fault points\n got %q\nwant %q", res.Points, points)
	}
}

// TestCrashSweep is the E5b acceptance test: enumerate every fault-point
// hit in the scripted workload, crash at each one (every Stride-th in
// -short mode), restart, and verify the recovery invariants.
func TestCrashSweep(t *testing.T) {
	// Every restart that completes a unit or cleans up a pass 3 is
	// crashed again, at every fifth of its wal.append hits;
	// `reorg-bench sweep` runs the leg in full.
	cfg := SweepConfig{Torn: true, SecondCrashStride: 5, Logf: t.Logf}
	if testing.Short() {
		cfg.Stride = 7
		cfg.Torn = false
	}
	res, err := Sweep(cfg)
	if err != nil {
		t.Fatalf("sweep failed: %v", err)
	}
	pinned(t, res, 1365, passesPoints)
	if res.CrashRuns == 0 {
		t.Error("no crash runs performed")
	}
	t.Logf("sweep: %d hits, %d crash runs, %d torn runs, %d forward-completed units (%d crashed again inside restart), %d/%d pass3 abandoned/completed",
		res.TotalHits, res.CrashRuns, res.TornRuns, res.ForwardCompleted,
		res.DoubleCrashRuns, res.Pass3Abandoned, res.Pass3Completed)
	if !testing.Short() {
		if res.TornRuns == 0 {
			t.Error("no torn-log runs despite Torn: true")
		}
		if res.ForwardCompleted == 0 {
			t.Error("no restart ever forward-completed an in-flight unit")
		}
		if res.DoubleCrashRuns == 0 {
			t.Error("no unit-completing restart was ever crashed a second time")
		}
		if res.Pass3Abandoned == 0 {
			t.Error("no restart ever reclaimed an interrupted pass-3 build")
		}
		if res.Pass3Completed == 0 {
			t.Error("no restart ever finished a durably-switched pass 3")
		}
	}
}

// TestEnumerateDeterministic guards the property the whole sweep rests
// on: the same config yields the identical hit trace every run.
func TestEnumerateDeterministic(t *testing.T) {
	a, _, err := SweepConfig{}.enumerate()
	if err != nil {
		t.Fatalf("first enumeration: %v", err)
	}
	b, _, err := SweepConfig{}.enumerate()
	if err != nil {
		t.Fatalf("second enumeration: %v", err)
	}
	if len(a) != len(b) {
		t.Fatalf("trace lengths differ: %d vs %d", len(a), len(b))
	}
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("traces diverge at hit %d: %s vs %s", i+1, a[i], b[i])
		}
	}
}

// TestCrashSweepDaemon sweeps the daemon-driven workload shape: the
// reorganization in flight at every crash is one the autonomous policy
// ordered, and the hit trace must include the daemon's own scheduler
// fault points — crashes there leave the policy mid-decision, and the
// rebuilt daemon after Restart must not matter to recovery.
func TestCrashSweepDaemon(t *testing.T) {
	cfg := SweepConfig{Daemon: true, SecondCrashStride: 5, Logf: t.Logf}
	if testing.Short() {
		cfg.Stride = 7
	} else {
		// The daemon shape enumerates more hits than the pass shape
		// (occupancy scans between increments); stride keeps the full
		// run in the same time envelope as the pass-shape sweep.
		cfg.Stride = 3
		cfg.Torn = true
	}
	res, err := Sweep(cfg)
	if err != nil {
		t.Fatalf("daemon sweep failed: %v", err)
	}
	pinned(t, res, 1245, daemonPoints)
	if res.CrashRuns == 0 {
		t.Error("no crash runs performed")
	}
	t.Logf("daemon sweep: %d hits, %d crash runs, %d torn runs, %d forward-completed units (%d crashed again inside restart)",
		res.TotalHits, res.CrashRuns, res.TornRuns, res.ForwardCompleted, res.DoubleCrashRuns)
}

// TestCrashSweepFileBackend runs the same E5b sweep against real files:
// every run gets a fresh directory holding a checksummed page file and
// rotated WAL segments, crashes at its armed hit, and recovers by
// re-scanning the segment directory (torn wal.force runs leave a real
// ragged tail for the scan to truncate). -short bounds the run count;
// the full run covers every hit plus every torn wal.force variant.
func TestCrashSweepFileBackend(t *testing.T) {
	cfg := SweepConfig{
		Torn: true,
		Dir:  t.TempDir(),
		// Rotate aggressively so the sweep crosses segment boundaries
		// (crash-during-rotation coverage comes free with every hit that
		// lands inside a force that rotates).
		WALSegmentBytes: 4096,
		// A run against files costs ~20 ms: one second crash per
		// unit-completing restart.
		SecondCrashStride: 8,
		Logf:              t.Logf,
	}
	if testing.Short() {
		cfg.Stride = 11
		cfg.Torn = false
	}
	res, err := Sweep(cfg)
	if err != nil {
		t.Fatalf("file-backend sweep failed: %v", err)
	}
	pinned(t, res, 1367, filePoints)
	if res.CrashRuns == 0 {
		t.Error("no crash runs performed")
	}
	t.Logf("file sweep: %d hits, %d crash runs, %d torn runs, %d forward-completed units (%d crashed again inside restart)",
		res.TotalHits, res.CrashRuns, res.TornRuns, res.ForwardCompleted, res.DoubleCrashRuns)
	if !testing.Short() && res.TornRuns == 0 {
		t.Error("no torn-log runs despite Torn: true")
	}
}

// TestCrashSweepAutoCheckpoint sweeps with the automatic-checkpoint
// interval lowered to 512 log bytes (the script's whole log is ~25 KB):
// commits take automatic checkpoints and the reorganizer's event hook
// takes one wherever one is due, so crashes land inside checkpoints —
// the pager flush, disk.write, the checkpoint append and force, and on
// the file backend every wal.truncate segment deletion — and after
// checkpoints taken inside units and inside pass 3. `reorg-bench sweep
// -ckpt 512` runs every hit.
func TestCrashSweepAutoCheckpoint(t *testing.T) {
	for _, backend := range []string{"mem", "file"} {
		t.Run(backend, func(t *testing.T) {
			cfg := SweepConfig{CheckpointEvery: 512, Torn: true, Stride: 3, SecondCrashStride: 8,
				Logf: t.Logf}
			hits, points := 1529, passesPoints
			if backend == "file" {
				cfg.Dir = t.TempDir()
				cfg.WALSegmentBytes = 4096
				cfg.Stride = 13
				hits, points = 1533, filePoints
			}
			if testing.Short() {
				cfg.Stride *= 4
				cfg.Torn = false
			}
			res, err := Sweep(cfg)
			if err != nil {
				t.Fatalf("sweep failed: %v", err)
			}
			pinned(t, res, hits, points)
			t.Logf("%s sweep: %d hits, %d crash runs, %d torn runs, %d forward-completed units, %d automatic checkpoints, %d inside a reorganization",
				backend, res.TotalHits, res.CrashRuns, res.TornRuns, res.ForwardCompleted,
				res.AutoCheckpoints, res.HookCheckpoints)
			if res.AutoCheckpoints < 10 || res.HookCheckpoints < 10 {
				t.Errorf("%d automatic checkpoints, %d inside a reorganization: the leg is not checkpointing",
					res.AutoCheckpoints, res.HookCheckpoints)
			}
		})
	}
}
