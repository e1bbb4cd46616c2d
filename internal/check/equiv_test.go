package check_test

import (
	"testing"

	"repro/internal/check"
)

func TestEquivClean(t *testing.T) {
	res, err := check.Equiv(check.EquivConfig{Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	if res.Crashed {
		t.Fatal("clean run reports a crash")
	}
	if res.SideApplied == 0 {
		t.Fatal("clean run applied no side-file entries")
	}
	if res.Records == 0 {
		t.Fatal("empty final contents")
	}
}

func TestEquivSeedsDiffer(t *testing.T) {
	// Different seeds must produce different programs (a degenerate
	// generator would silence the whole suite).
	a, err := check.Equiv(check.EquivConfig{Seed: 2})
	if err != nil {
		t.Fatal(err)
	}
	b, err := check.Equiv(check.EquivConfig{Seed: 3})
	if err != nil {
		t.Fatal(err)
	}
	if a.Records == b.Records && a.SideApplied == b.SideApplied {
		t.Logf("seeds 2 and 3 coincide on summary counters (records=%d side=%d); acceptable but worth knowing",
			a.Records, a.SideApplied)
	}
}

func TestEquivWithCrashSchedules(t *testing.T) {
	cfg := check.EquivConfig{Seed: 4}
	hits, err := check.EquivHits(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if hits < 20 {
		t.Fatalf("only %d fault-point hits; program too small to schedule crashes", hits)
	}
	// A spread of crash points: early (load), middle (reorg passes),
	// late (pass 3 / seg2).
	for i := 0; i < 6; i++ {
		hit := 1 + i*(hits-1)/5
		cfg.CrashHit = hit
		res, err := check.Equiv(cfg)
		if err != nil {
			t.Fatalf("crash at hit %d/%d: %v\nrepro: reorg-bench check -seed 4 -crashhit %d",
				hit, hits, err, hit)
		}
		if !res.Crashed {
			t.Logf("hit %d/%d not reached (run completed clean)", hit, hits)
		}
	}
}

func TestEquivDaemonArmClean(t *testing.T) {
	res, err := check.Equiv(check.EquivConfig{Seed: 5, Daemon: true})
	if err != nil {
		t.Fatal(err)
	}
	if res.DaemonUnits == 0 {
		t.Fatal("daemon arm ran no reorganization units")
	}
	if res.SideApplied == 0 {
		t.Fatal("manual arm stopped exercising the side file")
	}
}

func TestEquivDaemonArmCrashSchedules(t *testing.T) {
	cfg := check.EquivConfig{Seed: 6, Daemon: true}
	hits, err := check.EquivHits(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if hits < 20 {
		t.Fatalf("only %d fault-point hits on the daemon arm", hits)
	}
	crashed := 0
	for i := 0; i < 5; i++ {
		hit := 1 + i*(hits-1)/4
		cfg.CrashHit = hit
		res, err := check.Equiv(cfg)
		if err != nil {
			t.Fatalf("daemon crash at hit %d/%d: %v\nrepro: reorg-bench check -seed 6 -crashhit %d -daemon",
				hit, hits, err, hit)
		}
		if res.Crashed {
			crashed++
		}
	}
	if crashed == 0 {
		t.Fatal("no scheduled crash fired on the daemon arm")
	}
}
