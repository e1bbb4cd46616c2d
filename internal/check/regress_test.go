package check

import "testing"

// TestEquivRegressionPass3CleanupLeaks pins crash schedules that once
// leaked pages during pass-3 cleanup, caught by the oracle's
// freemap-leak check. Two distinct bugs, both fixed together:
//
//   - The side-file chain was destroyed AFTER the reorg bit was
//     cleared in the anchor, so a crash mid-destroy left allocated
//     side-file pages with no breadcrumb for recovery to find them
//     (seeds 101 and 999).
//
//   - Old internal pages were deallocated parents-first, so a crash
//     mid-discard freed the old root and orphaned its still-allocated
//     descendants from recovery's re-walk (seed 20260805, which leaked
//     five internal pages at once).
//
// The hits land inside the "pass3" step, in the cleanup tail after the
// root switch. They were re-pinned when auto-commit writes stopped
// logging begin and commit records: each is the same fault point at the
// same place in the step's hit trace as before, which lost only those
// records' wal.append hits. Log format 5 (splits log no cells) moved
// them again, by 26, 24 and 26 hits: before pass 3 the evictions write
// 13, 12 and 13 more pages (a split's new page ahead of the page it was
// split from), a pager.flush and a disk.write hit each, while pass 3
// fires the same 160, 158 and 149 hits and its cleanup tail the same
// points in the same order. Repro for any of these:
//
//	reorg-bench check -seed <seed> -crashhit <hit>
func TestEquivRegressionPass3CleanupLeaks(t *testing.T) {
	cases := []struct {
		seed int64
		hit  int
		bug  string
	}{
		{101, 2511, "side-file chain leak"},
		{999, 2615, "side-file chain leak"},
		{20260805, 2526, "old-internal subtree leak"},
	}
	for _, c := range cases {
		res, err := Equiv(EquivConfig{Seed: c.seed, CrashHit: c.hit})
		if err != nil {
			t.Errorf("seed %d hit %d (%s): %v\nrepro: reorg-bench check -seed %d -crashhit %d",
				c.seed, c.hit, c.bug, err, c.seed, c.hit)
			continue
		}
		if !res.Crashed || res.CrashStep != "pass3" {
			t.Errorf("seed %d hit %d (%s): crashed=%v in step %q, want a crash in pass3; re-pin the hit",
				c.seed, c.hit, c.bug, res.Crashed, res.CrashStep)
		}
	}
}
