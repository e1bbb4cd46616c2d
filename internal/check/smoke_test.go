package check_test

import (
	"testing"

	"repro/internal/check"
)

// A reduced smoke budget keeps this in tier-1 time; CI's check-smoke
// job runs the full default budget via reorg-bench check.
func TestSmokeReducedBudget(t *testing.T) {
	res, err := check.Smoke(check.SmokeConfig{
		Seed:           1,
		Histories:      12,
		CrashSchedules: 4,
		Logf:           t.Logf,
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.Histories != 12 || res.CrashRuns != 4 {
		t.Fatalf("budget not spent: %+v", res)
	}
	if res.Hits == 0 || res.SideApplied == 0 {
		t.Fatalf("harness under-exercised: %+v", res)
	}
}

func TestHistoryConfigDeterministic(t *testing.T) {
	a, b := check.HistoryConfigFor(17), check.HistoryConfigFor(17)
	if a != b {
		t.Fatalf("same seed, different shapes: %+v vs %+v", a, b)
	}
	// Shapes must actually vary across seeds.
	varies := false
	base := check.HistoryConfigFor(0)
	for s := int64(1); s < 20; s++ {
		c := check.HistoryConfigFor(s)
		if c.Clients != base.Clients || c.OpsPerClient != base.OpsPerClient ||
			c.Reorganize != base.Reorganize {
			varies = true
			break
		}
	}
	if !varies {
		t.Fatal("derived history shapes never vary")
	}
}
