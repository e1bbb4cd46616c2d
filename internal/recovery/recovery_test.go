package recovery

import (
	"errors"
	"fmt"
	"math/rand"
	"testing"

	"repro/internal/btree"
	"repro/internal/core"
	"repro/internal/lock"
	"repro/internal/storage"
	"repro/internal/txn"
	"repro/internal/wal"
)

type env struct {
	disk  *storage.MemDisk
	pager *storage.Pager
	log   *wal.Log
	locks *lock.Manager
	txns  *txn.Manager
	tree  *btree.Tree
}

func newEnv(t testing.TB, pageSize int) *env {
	t.Helper()
	e := &env{log: wal.NewLog(), disk: storage.NewDisk(pageSize)}
	e.assemble()
	tree, err := btree.Create(e.pager, e.log, e.locks, e.txns)
	if err != nil {
		t.Fatal(err)
	}
	e.tree = tree
	return e
}

// assemble builds a fresh pager, lock manager and transaction manager
// over the env's disk and log.
func (e *env) assemble() {
	e.pager = storage.NewPager(e.disk, 0, e.log)
	e.locks = lock.NewManager()
	e.txns = txn.NewManager(e.log, e.locks, e.pager)
}

func key(i int) []byte { return []byte(fmt.Sprintf("key%06d", i)) }
func val(i int) []byte { return []byte(fmt.Sprintf("value-%06d", i)) }

func (e *env) put(t testing.TB, i int) {
	t.Helper()
	tx := e.txns.Begin()
	if err := e.tree.Insert(tx, key(i), val(i)); err != nil {
		t.Fatalf("insert %d: %v", i, err)
	}
	if err := e.tree.Commit(tx); err != nil {
		t.Fatal(err)
	}
}

func (e *env) del(t testing.TB, i int) {
	t.Helper()
	tx := e.txns.Begin()
	if err := e.tree.Delete(tx, key(i)); err != nil {
		t.Fatalf("delete %d: %v", i, err)
	}
	if err := e.tree.Commit(tx); err != nil {
		t.Fatal(err)
	}
}

// crash simulates the failure: the durable log prefix survives, every
// buffered page is lost, and Restart recovers from disk into freshly
// assembled subsystems, which become the env's.
func (e *env) crash(t testing.TB) *Result {
	t.Helper()
	e.log.Crash()
	e.assemble()
	tree, res, err := Restart(e.pager, e.log, e.locks, e.txns)
	if err != nil {
		t.Fatalf("restart: %v", err)
	}
	e.tree = tree
	return res
}

// verifyRecords checks the recovered tree against an expectation.
func verifyRecords(t testing.TB, tree *btree.Tree, present func(int) bool, n int) {
	t.Helper()
	if err := tree.Check(); err != nil {
		t.Fatalf("post-recovery check: %v", err)
	}
	keys, vals, err := tree.CollectAll()
	if err != nil {
		t.Fatal(err)
	}
	got := map[string]string{}
	for i := range keys {
		got[string(keys[i])] = string(vals[i])
	}
	count := 0
	for i := 0; i < n; i++ {
		want := present(i)
		v, ok := got[string(key(i))]
		if want != ok {
			t.Fatalf("record %d present=%v want %v", i, ok, want)
		}
		if want {
			count++
			if v != string(val(i)) {
				t.Fatalf("record %d value %q", i, v)
			}
		}
	}
	if len(got) != count {
		t.Fatalf("tree has %d records, want %d", len(got), count)
	}
}

func TestRecoverCommittedSurvivesUncommittedRollsBack(t *testing.T) {
	e := newEnv(t, 512)
	for i := 0; i < 50; i++ {
		e.put(t, i)
	}
	// Committed but unflushed pages: redo must reconstruct them.
	// An uncommitted transaction at crash: undo must remove it.
	loser := e.txns.Begin()
	for i := 100; i < 110; i++ {
		if err := e.tree.Insert(loser, key(i), val(i)); err != nil {
			t.Fatal(err)
		}
	}
	// Force the log (simulating the WAL rule having run) but not the
	// pages: the loser's updates are durable in the log yet must be
	// undone because there is no commit record.
	if err := e.log.Flush(); err != nil {
		t.Fatal(err)
	}
	res := e.crash(t)
	if res.LosersUndone != 1 {
		t.Errorf("losers undone = %d, want 1", res.LosersUndone)
	}
	verifyRecords(t, e.tree, func(i int) bool { return i < 50 }, 120)
}

func TestRecoverAfterDeletesAndFreeAtEmpty(t *testing.T) {
	e := newEnv(t, 512)
	for i := 0; i < 400; i++ {
		e.put(t, i)
	}
	for i := 0; i < 400; i++ {
		if i%10 != 0 {
			e.del(t, i)
		}
	}
	if err := e.log.Flush(); err != nil {
		t.Fatal(err)
	}
	e.crash(t)
	verifyRecords(t, e.tree, func(i int) bool { return i%10 == 0 }, 400)
}

func TestRecoverWithCheckpoint(t *testing.T) {
	e := newEnv(t, 512)
	for i := 0; i < 200; i++ {
		e.put(t, i)
	}
	// Sharp checkpoint: flush everything, then log the checkpoint.
	if err := e.pager.FlushAll(); err != nil {
		t.Fatal(err)
	}
	cpLSN := e.log.Append(wal.Checkpoint{NextTxnID: e.txns.NextID()})
	if err := e.log.FlushTo(cpLSN); err != nil {
		t.Fatal(err)
	}
	for i := 200; i < 300; i++ {
		e.put(t, i)
	}
	if err := e.log.Flush(); err != nil {
		t.Fatal(err)
	}
	e.crash(t)
	verifyRecords(t, e.tree, func(i int) bool { return i < 300 }, 300)
	// Fresh transactions must not reuse ids.
	tx := e.txns.Begin()
	if tx.ID() == 0 {
		t.Error("bad txn id after restart")
	}
	_ = e.tree.Commit(tx)
}

// errCrash is the sentinel the crash-injection hook returns.
var errCrash = errors.New("injected crash")

// makeSparse builds the sparse tree used by the forward-recovery tests.
func makeSparse(t testing.TB, e *env, n, keepEvery int) func(int) bool {
	t.Helper()
	for i := 0; i < n; i++ {
		e.put(t, i)
	}
	for i := 0; i < n; i++ {
		if i%keepEvery != 0 && i%(keepEvery*7) != 1 {
			e.del(t, i)
		}
	}
	return func(i int) bool {
		return i < n && (i%keepEvery == 0 || i%(keepEvery*7) == 1)
	}
}

// TestForwardRecoveryCompletesUnit crashes mid-compaction-unit at each
// stage and verifies the unit is finished forward at restart — no
// records lost, tree invariants intact.
func TestForwardRecoveryCompletesUnit(t *testing.T) {
	for _, stage := range []string{"compact.begin", "compact.moved", "compact.modified"} {
		for _, careful := range []bool{true, false} {
			t.Run(fmt.Sprintf("%s/careful=%v", stage, careful), func(t *testing.T) {
				e := newEnv(t, 1024)
				present := makeSparse(t, e, 1500, 4)
				hits := 0
				r := core.New(e.tree, core.Config{
					TargetFill:     0.9,
					CarefulWriting: careful,
					OnEvent: func(s string) error {
						if s == stage {
							hits++
							if hits == 3 { // crash inside the 3rd such unit
								// The WAL rule: log records written so far
								// are durable up to what was forced; force
								// everything to model the worst preserved
								// state for forward recovery.
								_ = e.log.Flush()
								return errCrash
							}
						}
						return nil
					},
				})
				err := r.CompactLeaves()
				if !errors.Is(err, errCrash) {
					t.Fatalf("expected injected crash, got %v", err)
				}
				res := e.crash(t)
				if !res.UnitCompleted {
					t.Error("forward recovery did not complete the in-flight unit")
				}
				verifyRecords(t, e.tree, present, 1500)
			})
		}
	}
}

// TestForwardRecoveryUnflushedLog crashes mid-unit where only the
// BEGIN record made it to the durable log: recovery must still leave a
// consistent tree (the unit completes as a no-op or partial re-run).
func TestForwardRecoveryPartialLog(t *testing.T) {
	e := newEnv(t, 1024)
	present := makeSparse(t, e, 1000, 4)
	first := true
	r := core.New(e.tree, core.Config{
		TargetFill:     0.9,
		CarefulWriting: true,
		OnEvent: func(s string) error {
			if s == "compact.begin" && first {
				first = false
				_ = e.log.Flush() // BEGIN durable, nothing after
				return errCrash
			}
			return nil
		},
	})
	if err := r.CompactLeaves(); !errors.Is(err, errCrash) {
		t.Fatalf("expected crash, got %v", err)
	}
	res := e.crash(t)
	if !res.UnitCompleted {
		t.Error("unit not completed")
	}
	verifyRecords(t, e.tree, present, 1000)
}

// TestSwapForwardRecovery crashes right after the physical swap and
// verifies completion heals neighbours and parents.
func TestSwapForwardRecovery(t *testing.T) {
	e := newEnv(t, 1024)
	present := makeSparse(t, e, 1500, 4)
	r := core.New(e.tree, core.Config{TargetFill: 0.9, SwapPass: true})
	if err := r.CompactLeaves(); err != nil {
		t.Fatal(err)
	}
	// Now crash inside the first swap of pass 2.
	r2 := core.New(e.tree, core.Config{
		TargetFill: 0.9, SwapPass: true,
		OnEvent: func(s string) error {
			if s == "swap.moved" {
				_ = e.log.Flush()
				return errCrash
			}
			return nil
		},
	})
	err := r2.SwapLeaves()
	if err == nil {
		t.Skip("workload produced no swaps; nothing to crash")
	}
	if !errors.Is(err, errCrash) {
		t.Fatalf("expected crash, got %v", err)
	}
	res := e.crash(t)
	if !res.UnitCompleted {
		t.Error("swap unit not completed forward")
	}
	verifyRecords(t, e.tree, present, 1500)
}

// TestSwapForwardRecoveryShuffledLoad is TestSwapForwardRecovery on a
// tree whose leaves are out of key order on disk (a sequential load
// gives pass 2 no swap to do, and that test skips): crash at each stage
// of the first swap unit; restart must finish it forward — nothing
// swapped yet, only logged, or swapped with neighbours and parents
// still pointing the old way.
func TestSwapForwardRecoveryShuffledLoad(t *testing.T) {
	for _, stage := range []string{"swap.begin", "swap.logged", "swap.moved"} {
		t.Run(stage, func(t *testing.T) {
			e := newEnv(t, 1024)
			const n, keep = 2000, 4
			for _, i := range rand.New(rand.NewSource(1)).Perm(n) {
				e.put(t, i)
			}
			present := func(i int) bool {
				return i < n && (i%keep == 0 || i%(keep*7) == 1)
			}
			for i := 0; i < n; i++ {
				if !present(i) {
					e.del(t, i)
				}
			}
			r := core.New(e.tree, core.Config{
				TargetFill: 0.9, SwapPass: true,
				OnEvent: func(s string) error {
					if s == stage {
						_ = e.log.Flush()
						return errCrash
					}
					return nil
				},
			})
			if err := r.CompactLeaves(); err != nil {
				t.Fatal(err)
			}
			if err := r.SwapLeaves(); !errors.Is(err, errCrash) {
				t.Fatalf("expected a crash inside a swap unit, got %v", err)
			}
			res := e.crash(t)
			if !res.UnitCompleted {
				t.Error("swap unit not completed forward")
			}
			verifyRecords(t, e.tree, present, n)
		})
	}
}

// TestPass3CrashAbandonsCleanly crashes during the internal rebuild and
// verifies the old tree stays authoritative and all new-place pages and
// the side file are reclaimed.
func TestPass3CrashAbandons(t *testing.T) {
	for _, stage := range []string{"pass3.base", "pass3.built"} {
		t.Run(stage, func(t *testing.T) {
			e := newEnv(t, 1024)
			present := makeSparse(t, e, 2000, 4)
			hits := 0
			r := core.New(e.tree, core.Config{
				TargetFill: 0.9,
				OnEvent: func(s string) error {
					if s == stage {
						hits++
						if hits == 2 || s == "pass3.built" {
							_ = e.log.Flush()
							return errCrash
						}
					}
					return nil
				},
			})
			if err := r.RebuildInternal(); !errors.Is(err, errCrash) {
				t.Fatalf("expected crash, got %v", err)
			}
			res := e.crash(t)
			if !res.Pass3Abandoned {
				t.Error("interrupted pass 3 not abandoned")
			}
			bit, sf := e.tree.ReorgState()
			if bit || sf != storage.InvalidPage {
				t.Errorf("reorg bit/side file not cleared: %v %d", bit, sf)
			}
			verifyRecords(t, e.tree, present, 2000)
			// The system must accept new reorganizations and updates.
			r2 := core.New(e.tree, core.DefaultConfig())
			if err := r2.Run(); err != nil {
				t.Fatalf("reorg after recovery: %v", err)
			}
			verifyRecords(t, e.tree, present, 2000)
		})
	}
}

// TestPass3CrashAfterSwitchCompletes crashes after the durable switch;
// recovery must keep the new tree and finish discarding the old one.
func TestPass3CrashAfterSwitchCompletes(t *testing.T) {
	e := newEnv(t, 1024)
	present := makeSparse(t, e, 2000, 4)
	r := core.New(e.tree, core.Config{
		TargetFill: 0.9,
		OnEvent: func(s string) error {
			if s == "pass3.switched" {
				_ = e.log.Flush()
				return errCrash
			}
			return nil
		},
	})
	if err := r.RebuildInternal(); !errors.Is(err, errCrash) {
		t.Fatalf("expected crash, got %v", err)
	}
	res := e.crash(t)
	if !res.Pass3Completed {
		t.Error("durable switch was not completed at restart")
	}
	bit, _ := e.tree.ReorgState()
	if bit {
		t.Error("reorg bit still set")
	}
	verifyRecords(t, e.tree, present, 2000)
}

// TestRandomCrashPoints is the recovery property test: crash at the
// N-th reorganization event for random N across full three-pass runs;
// after every restart the tree must be structurally sound and hold
// exactly the expected records (work done before the crash is kept —
// forward recovery — and never corrupts).
func TestRandomCrashPoints(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	for trial := 0; trial < 12; trial++ {
		crashAt := 1 + rng.Intn(60)
		t.Run(fmt.Sprintf("trial%d_at%d", trial, crashAt), func(t *testing.T) {
			e := newEnv(t, 1024)
			present := makeSparse(t, e, 1200, 4)
			count := 0
			r := core.New(e.tree, core.Config{
				TargetFill:     0.9,
				SwapPass:       true,
				InternalPass:   true,
				CarefulWriting: trial%2 == 0,
				OnEvent: func(s string) error {
					count++
					if count == crashAt {
						_ = e.log.Flush()
						return errCrash
					}
					return nil
				},
			})
			err := r.Run()
			if err == nil {
				// The run finished before the crash point: still verify.
				if cerr := e.tree.Check(); cerr != nil {
					t.Fatal(cerr)
				}
				return
			}
			if !errors.Is(err, errCrash) {
				t.Fatalf("unexpected reorg error: %v", err)
			}
			e.crash(t)
			verifyRecords(t, e.tree, present, 1200)

			// And the reorganization can simply be re-run to completion.
			r2 := core.New(e.tree, core.DefaultConfig())
			if err := r2.Run(); err != nil {
				t.Fatalf("re-run after recovery: %v", err)
			}
			verifyRecords(t, e.tree, present, 1200)
		})
	}
}

// TestRecoveryIdempotent: restarting twice (double crash) must be safe.
func TestRecoveryIdempotent(t *testing.T) {
	e := newEnv(t, 1024)
	present := makeSparse(t, e, 800, 4)
	hits := 0
	r := core.New(e.tree, core.Config{
		TargetFill: 0.9,
		OnEvent: func(s string) error {
			if s == "compact.moved" {
				hits++
				if hits == 2 {
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
	e.crash(t)
	verifyRecords(t, e.tree, present, 800)
	// Crash again immediately (nothing flushed since restart except
	// what recovery itself forced) and restart again.
	e.crash(t)
	verifyRecords(t, e.tree, present, 800)
}
