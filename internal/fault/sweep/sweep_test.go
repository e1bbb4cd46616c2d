package sweep

import (
	"slices"
	"testing"

	"repro/internal/fault"
)

// TestCrashSweep is the E5b acceptance test: enumerate every fault-point
// hit in the scripted workload, crash at each one (every Stride-th in
// -short mode), restart, and verify the recovery invariants.
func TestCrashSweep(t *testing.T) {
	// Every restart that completes a unit or cleans up a pass 3 is
	// crashed again, at every fifth of its wal.append hits;
	// `reorg-bench sweep` runs the leg in full.
	cfg := Config{Torn: true, SecondCrashStride: 5, Logf: t.Logf}
	if testing.Short() {
		cfg.Stride = 7
		cfg.Torn = false
	}
	res, err := Run(cfg)
	if err != nil {
		t.Fatalf("sweep failed: %v", err)
	}
	if res.TotalHits < 100 {
		t.Errorf("enumerated %d fault-point hits, want >= 100", res.TotalHits)
	}
	if res.CrashRuns == 0 {
		t.Error("no crash runs performed")
	}
	t.Logf("sweep: %d hits, %d crash runs, %d torn runs, %d forward-completed units (%d crashed again inside restart), %d/%d pass3 abandoned/completed",
		res.TotalHits, res.CrashRuns, res.TornRuns, res.ForwardCompleted,
		res.DoubleCrashRuns, res.Pass3Abandoned, res.Pass3Completed)

	// The script must exercise every reorganization unit type and the
	// root-switch window, or the sweep is not testing what it claims.
	want := []string{
		fault.DiskRead, fault.DiskWrite, fault.WALAppend, fault.WALForce,
		fault.PagerFlush, fault.PagerEvict,
		"reorg.compact.begin", "reorg.compact.end",
		"reorg.move.begin", "reorg.move.end",
		"reorg.swap.begin", "reorg.swap.logged", "reorg.swap.end",
		"reorg.pass3.base", "reorg.pass3.built", "reorg.pass3.side",
		"reorg.pass3.stable",
		"reorg.pass3.switch.pre", "reorg.pass3.switch.durable",
	}
	have := make(map[string]bool, len(res.Points))
	for _, p := range res.Points {
		have[p] = true
	}
	for _, p := range want {
		if !have[p] {
			t.Errorf("fault point %s never hit by the sweep workload", p)
		}
	}
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
	a, err := Enumerate(Config{})
	if err != nil {
		t.Fatalf("first enumeration: %v", err)
	}
	b, err := Enumerate(Config{})
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
	cfg := Config{Daemon: true, SecondCrashStride: 5, Logf: t.Logf}
	if testing.Short() {
		cfg.Stride = 7
	} else {
		// The daemon shape enumerates more hits than the pass shape
		// (occupancy scans between increments); stride keeps the full
		// run in the same time envelope as the pass-shape sweep.
		cfg.Stride = 3
		cfg.Torn = true
	}
	res, err := Run(cfg)
	if err != nil {
		t.Fatalf("daemon sweep failed: %v", err)
	}
	if res.CrashRuns == 0 {
		t.Error("no crash runs performed")
	}
	t.Logf("daemon sweep: %d hits, %d crash runs, %d torn runs, %d forward-completed units (%d crashed again inside restart)",
		res.TotalHits, res.CrashRuns, res.TornRuns, res.ForwardCompleted, res.DoubleCrashRuns)

	// The daemon shape must reach its scheduler seams and drive real
	// pass-1 units through them.
	want := []string{
		fault.DaemonTick, fault.DaemonUnitStart,
		"reorg.compact.begin", "reorg.compact.end",
		fault.DiskRead, fault.DiskWrite, fault.WALAppend, fault.WALForce,
	}
	have := make(map[string]bool, len(res.Points))
	for _, p := range res.Points {
		have[p] = true
	}
	for _, p := range want {
		if !have[p] {
			t.Errorf("fault point %s never hit by the daemon sweep workload", p)
		}
	}
}

// TestCrashSweepFileBackend runs the same E5b sweep against real files:
// every run gets a fresh directory holding a checksummed page file and
// rotated WAL segments, crashes at its armed hit, and recovers by
// re-scanning the segment directory (torn wal.force runs leave a real
// ragged tail for the scan to truncate). -short bounds the run count;
// the full run covers every hit plus every torn wal.force variant.
func TestCrashSweepFileBackend(t *testing.T) {
	cfg := Config{
		Torn:    true,
		Backend: "file",
		Dir:     t.TempDir(),
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
	res, err := Run(cfg)
	if err != nil {
		t.Fatalf("file-backend sweep failed: %v", err)
	}
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
			cfg := Config{CheckpointEvery: 512, Torn: true, Stride: 3, SecondCrashStride: 8,
				Backend: backend, Logf: t.Logf}
			if backend == "file" {
				cfg.Dir = t.TempDir()
				cfg.WALSegmentBytes = 4096
				cfg.Stride = 13
			}
			if testing.Short() {
				cfg.Stride *= 4
				cfg.Torn = false
			}
			res, err := Run(cfg)
			if err != nil {
				t.Fatalf("sweep failed: %v", err)
			}
			t.Logf("%s sweep: %d hits, %d crash runs, %d torn runs, %d forward-completed units, %d automatic checkpoints, %d inside a reorganization",
				backend, res.TotalHits, res.CrashRuns, res.TornRuns, res.ForwardCompleted,
				res.AutoCheckpoints, res.HookCheckpoints)
			if res.AutoCheckpoints < 10 || res.HookCheckpoints < 10 {
				t.Errorf("%d automatic checkpoints, %d inside a reorganization: the leg is not checkpointing",
					res.AutoCheckpoints, res.HookCheckpoints)
			}
			if backend == "file" && !slices.Contains(res.Points, fault.WALTruncate) {
				t.Errorf("no crash point at %s", fault.WALTruncate)
			}
		})
	}
}
