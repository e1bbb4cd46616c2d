package recovery

import (
	"errors"
	"testing"

	"repro/internal/core"
	"repro/internal/wal"
)

// TestCheckpointMidUnitRecovers covers the reason the paper embeds the
// reorg table in checkpoints (§5): a sharp checkpoint taken while a
// unit is in flight reads the unit's BEGIN LSN from the table and backs
// its redo point up to it, as DB.Checkpoint does, so restart replays
// the unit from its BEGIN and still finishes it forward.
func TestCheckpointMidUnitRecovers(t *testing.T) {
	e := newEnv(t, 1024)
	present := makeSparse(t, e, 1200, 4)
	var r *core.Reorganizer
	hits := 0
	r = core.New(e.tree, core.Config{
		TargetFill:     0.9,
		CarefulWriting: true,
		OnEvent: func(s string) error {
			if s == "compact.moved" {
				hits++
				if hits == 2 {
					// Sharp checkpoint in the middle of the unit: flush
					// everything, embed the reorg table, redo from the
					// unit's BEGIN, force the log.
					if err := e.pager.FlushAll(); err != nil {
						return err
					}
					active, _ := e.txns.ActiveSnapshot()
					table := r.TableSnapshot()
					cp := wal.Checkpoint{
						RedoLSN:    table.BeginLSN,
						ActiveTxns: active,
						NextTxnID:  e.txns.NextID(),
						Reorg:      table,
					}
					lsn := e.log.Append(cp)
					if err := e.log.FlushTo(lsn); err != nil {
						return err
					}
				}
				if hits == 3 {
					_ = e.log.Flush()
					return errCrash
				}
			}
			return nil
		},
	})
	if err := r.CompactLeaves(); !errors.Is(err, errCrash) {
		t.Fatalf("expected crash, got %v", err)
	}
	snap := r.TableSnapshot()
	if !snap.HasUnit {
		t.Fatal("test setup: no unit in flight at crash")
	}

	res := e.crash(t)
	if !res.UnitCompleted {
		t.Error("unit begun before the checkpoint was not completed forward")
	}
	verifyRecords(t, e.tree, present, 1200)
}

// TestResumeFromLK: restart reports LK (the largest key of the last
// finished unit) and pass 1 can resume from it, skipping the prefix.
func TestResumeFromLK(t *testing.T) {
	e := newEnv(t, 1024)
	present := makeSparse(t, e, 1500, 4)
	hits := 0
	r := core.New(e.tree, core.Config{
		TargetFill:     0.9,
		CarefulWriting: true,
		OnEvent: func(s string) error {
			if s == "compact.modified" {
				hits++
				if hits == 4 {
					_ = e.log.Flush()
					return errCrash
				}
			}
			return nil
		},
	})
	if err := r.CompactLeaves(); !errors.Is(err, errCrash) {
		t.Fatalf("expected crash, got %v", err)
	}
	res := e.crash(t)
	if len(res.ReorgLK) == 0 {
		t.Fatal("restart did not report LK")
	}
	verifyRecords(t, e.tree, present, 1500)

	// Resume compaction from LK; the result must be fully compacted.
	r2 := core.New(e.tree, core.Config{TargetFill: 0.9,
		CarefulWriting: true, StartKey: res.ReorgLK})
	if err := r2.CompactLeaves(); err != nil {
		t.Fatal(err)
	}
	verifyRecords(t, e.tree, present, 1500)
	stats, err := e.tree.GatherStats()
	if err != nil {
		t.Fatal(err)
	}
	if stats.AvgLeafFill < 0.5 {
		t.Errorf("resume left fill at %.2f", stats.AvgLeafFill)
	}
}
