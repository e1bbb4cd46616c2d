package core

import (
	"errors"
	"fmt"
	"math/rand"
	"sync"
	"sync/atomic"
	"testing"

	"repro/internal/btree"
	"repro/internal/kv"
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
	return newEnvPool(t, pageSize, 0)
}

// newEnvPool is newEnv with a buffer pool of poolPages frames (0:
// unbounded).
func newEnvPool(t testing.TB, pageSize, poolPages int) *env {
	t.Helper()
	e := &env{}
	e.log = wal.NewLog()
	e.disk = storage.NewDisk(pageSize)
	e.pager = storage.NewPager(e.disk, poolPages, e.log)
	e.locks = lock.NewManager()
	e.txns = txn.NewManager(e.log, e.locks, e.pager)
	tree, err := btree.Create(e.pager, e.log, e.locks, e.txns)
	if err != nil {
		t.Fatal(err)
	}
	e.tree = tree
	return e
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

// makeSparse loads n records then deletes all but every keepEvery-th,
// producing the sparsely populated tree of the paper's problem setting
// (free-at-empty leaves are deallocated; survivors are sparse).
func makeSparse(t testing.TB, e *env, n, keepEvery int) {
	t.Helper()
	for i := 0; i < n; i++ {
		e.put(t, i)
	}
	for i := 0; i < n; i++ {
		if i%keepEvery == 0 {
			continue
		}
		// Delete in a pattern that leaves pages sparse rather than
		// empty: skip one extra record per small block.
		if i%(keepEvery*7) == 1 {
			continue
		}
		e.del(t, i)
	}
}

// checkRecords verifies the tree holds exactly the expected records.
func checkRecords(t testing.TB, e *env, present func(i int) bool, n int) {
	t.Helper()
	keys, vals, err := e.tree.CollectAll()
	if err != nil {
		t.Fatal(err)
	}
	got := make(map[string]string, len(keys))
	for i := range keys {
		got[string(keys[i])] = string(vals[i])
	}
	want := 0
	for i := 0; i < n; i++ {
		if !present(i) {
			if _, ok := got[string(key(i))]; ok {
				t.Fatalf("unexpected record %d present", i)
			}
			continue
		}
		want++
		v, ok := got[string(key(i))]
		if !ok {
			t.Fatalf("record %d missing", i)
		}
		if v != string(val(i)) {
			t.Fatalf("record %d value %q", i, v)
		}
	}
	if len(got) != want {
		t.Fatalf("tree has %d records, want %d", len(got), want)
	}
}

func sparsePresent(keepEvery int) func(int) bool {
	return func(i int) bool {
		return i%keepEvery == 0 || i%(keepEvery*7) == 1
	}
}

func TestPass1CompactsSparseTree(t *testing.T) {
	e := newEnv(t, 1024)
	const n, keep = 2000, 4
	makeSparse(t, e, n, keep)
	before, err := e.tree.GatherStats()
	if err != nil {
		t.Fatal(err)
	}

	r := New(e.tree, Config{TargetFill: 0.9, CarefulWriting: true})
	if err := r.CompactLeaves(); err != nil {
		t.Fatal(err)
	}
	if err := e.tree.Check(); err != nil {
		t.Fatal(err)
	}
	after, err := e.tree.GatherStats()
	if err != nil {
		t.Fatal(err)
	}
	if after.LeafPages >= before.LeafPages {
		t.Errorf("compaction did not reduce leaves: %d -> %d", before.LeafPages, after.LeafPages)
	}
	if after.AvgLeafFill <= before.AvgLeafFill {
		t.Errorf("fill factor did not improve: %.3f -> %.3f", before.AvgLeafFill, after.AvgLeafFill)
	}
	if after.Records != before.Records {
		t.Errorf("records changed: %d -> %d", before.Records, after.Records)
	}
	checkRecords(t, e, sparsePresent(keep), n)
	if r.Metrics().Get("units.compact") == 0 {
		t.Error("no compaction units ran")
	}
}

func TestPass1InPlaceOnlyPolicy(t *testing.T) {
	e := newEnv(t, 1024)
	makeSparse(t, e, 1200, 4)
	r := New(e.tree, Config{TargetFill: 0.9, Placement: PlacementInPlace})
	if err := r.CompactLeaves(); err != nil {
		t.Fatal(err)
	}
	if err := e.tree.Check(); err != nil {
		t.Fatal(err)
	}
	if r.Metrics().Get("pages.allocated") != 0 {
		t.Error("in-place policy allocated new pages")
	}
	checkRecords(t, e, sparsePresent(4), 1200)
}

func TestPass2OrdersLeaves(t *testing.T) {
	e := newEnv(t, 1024)
	makeSparse(t, e, 2000, 4)
	r := New(e.tree, Config{TargetFill: 0.9, SwapPass: true})
	if err := r.CompactLeaves(); err != nil {
		t.Fatal(err)
	}
	if err := r.SwapLeaves(); err != nil {
		t.Fatal(err)
	}
	if err := e.tree.Check(); err != nil {
		t.Fatal(err)
	}
	stats, err := e.tree.GatherStats()
	if err != nil {
		t.Fatal(err)
	}
	if stats.OutOfOrderPairs != 0 {
		t.Errorf("leaves not in key order on disk: %d inversions (ids %v)",
			stats.OutOfOrderPairs, stats.LeafIDs)
	}
	checkRecords(t, e, sparsePresent(4), 2000)
}

func TestPass3RebuildsAndSwitches(t *testing.T) {
	e := newEnv(t, 1024)
	makeSparse(t, e, 3000, 5)
	heightBefore, _ := e.tree.Height()
	_, epochBefore := e.tree.Root()

	r := New(e.tree, Config{TargetFill: 0.9})
	if err := r.CompactLeaves(); err != nil {
		t.Fatal(err)
	}
	if err := r.RebuildInternal(); err != nil {
		t.Fatal(err)
	}
	if err := e.tree.Check(); err != nil {
		t.Fatal(err)
	}
	heightAfter, _ := e.tree.Height()
	_, epochAfter := e.tree.Root()
	if epochAfter != epochBefore+1 {
		t.Errorf("epoch %d -> %d, want +1", epochBefore, epochAfter)
	}
	if heightAfter > heightBefore {
		t.Errorf("height grew: %d -> %d", heightBefore, heightAfter)
	}
	checkRecords(t, e, sparsePresent(5), 3000)

	// Reorg bit must be clear and the side file gone.
	bit, sf := e.tree.ReorgState()
	if bit || sf != storage.InvalidPage {
		t.Errorf("reorg state not cleared: bit=%v sidefile=%d", bit, sf)
	}
	// The tree must remain fully usable after the switch.
	e.put(t, 999999%1000000)
}

func TestFullRunAllPasses(t *testing.T) {
	e := newEnv(t, 1024)
	makeSparse(t, e, 2500, 4)
	r := New(e.tree, DefaultConfig())
	if err := r.Run(); err != nil {
		t.Fatal(err)
	}
	if err := e.tree.Check(); err != nil {
		t.Fatal(err)
	}
	stats, _ := e.tree.GatherStats()
	if stats.AvgLeafFill < 0.6 {
		t.Errorf("avg fill after full reorg = %.3f", stats.AvgLeafFill)
	}
	checkRecords(t, e, sparsePresent(4), 2500)
}

// TestReorgWithConcurrentReadersAndUpdaters runs the full three-pass
// reorganization while reader and updater goroutines hammer the tree,
// then verifies invariants and that every committed record survived.
func TestReorgWithConcurrentReadersAndUpdaters(t *testing.T) {
	e := newEnv(t, 1024)
	const n, keep = 2000, 4
	makeSparse(t, e, n, keep)
	present := sparsePresent(keep)

	stop := make(chan struct{})
	var wg sync.WaitGroup
	errCh := make(chan error, 16)
	var insertedMu sync.Mutex
	inserted := map[int]bool{}

	// Readers.
	for w := 0; w < 4; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(int64(w)))
			for {
				select {
				case <-stop:
					return
				default:
				}
				tx := e.txns.Begin()
				i := rng.Intn(n)
				v, ok, err := e.tree.Get(tx, key(i))
				if err != nil {
					if errors.Is(err, lock.ErrDeadlock) {
						_ = e.tree.Abort(tx)
						continue
					}
					errCh <- fmt.Errorf("reader: %w", err)
					_ = e.tree.Abort(tx)
					return
				}
				if ok && present(i) && string(v) != string(val(i)) {
					errCh <- fmt.Errorf("reader: wrong value for %d", i)
				}
				_ = e.tree.Commit(tx)
			}
		}(w)
	}
	// Updaters inserting fresh keys (forcing splits during reorg).
	for w := 0; w < 2; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			seq := 0
			for {
				select {
				case <-stop:
					return
				default:
				}
				id := 1000000 + w*100000 + seq
				seq++
				tx := e.txns.Begin()
				err := e.tree.Insert(tx, key(id), val(id))
				if err != nil {
					_ = e.tree.Abort(tx)
					if errors.Is(err, lock.ErrDeadlock) || errors.Is(err, kv.ErrExists) ||
						errors.Is(err, btree.ErrSwitched) {
						continue
					}
					errCh <- fmt.Errorf("updater: %w", err)
					return
				}
				if err := e.tree.Commit(tx); err != nil {
					errCh <- err
					return
				}
				insertedMu.Lock()
				inserted[id] = true
				insertedMu.Unlock()
			}
		}(w)
	}

	r := New(e.tree, DefaultConfig())
	runErr := r.Run()
	close(stop)
	wg.Wait()
	close(errCh)
	if runErr != nil {
		t.Fatalf("reorg: %v", runErr)
	}
	for err := range errCh {
		t.Fatal(err)
	}
	if err := e.tree.Check(); err != nil {
		t.Fatal(err)
	}
	// Every record committed by the updaters must be present.
	keys, _, err := e.tree.CollectAll()
	if err != nil {
		t.Fatal(err)
	}
	got := map[string]bool{}
	for _, k := range keys {
		got[string(k)] = true
	}
	insertedMu.Lock()
	defer insertedMu.Unlock()
	for id := range inserted {
		if !got[string(key(id))] {
			t.Fatalf("committed record %d lost during reorganization", id)
		}
	}
	for i := 0; i < n; i++ {
		if present(i) && !got[string(key(i))] {
			t.Fatalf("pre-existing record %d lost during reorganization", i)
		}
	}
}

func TestHeuristicReducesSwaps(t *testing.T) {
	run := func(p Placement) (swaps, moves int64) {
		e := newEnv(t, 1024)
		makeSparse(t, e, 3000, 4)
		r := New(e.tree, Config{TargetFill: 0.9, Placement: p, SwapPass: true})
		if err := r.CompactLeaves(); err != nil {
			t.Fatal(err)
		}
		if err := r.SwapLeaves(); err != nil {
			t.Fatal(err)
		}
		if err := e.tree.Check(); err != nil {
			t.Fatal(err)
		}
		checkRecords(t, e, sparsePresent(4), 3000)
		return r.Metrics().Get("pass2.swaps"), r.Metrics().Get("pass2.moves")
	}
	hSwaps, _ := run(PlacementHeuristic)
	iSwaps, _ := run(PlacementInPlace)
	t.Logf("pass-2 swaps: heuristic=%d in-place-only=%d", hSwaps, iSwaps)
	if hSwaps > iSwaps {
		t.Errorf("heuristic produced MORE swaps (%d) than in-place-only (%d)", hSwaps, iSwaps)
	}
}

func TestCarefulWritingLogsLess(t *testing.T) {
	logBytes := func(careful bool) int64 {
		e := newEnv(t, 1024)
		makeSparse(t, e, 2000, 4)
		before := e.log.BytesAppended()
		r := New(e.tree, Config{TargetFill: 0.9, CarefulWriting: careful})
		if err := r.CompactLeaves(); err != nil {
			t.Fatal(err)
		}
		checkRecords(t, e, sparsePresent(4), 2000)
		return e.log.BytesAppended() - before
	}
	careful := logBytes(true)
	full := logBytes(false)
	t.Logf("pass-1 log bytes: careful=%d full=%d", careful, full)
	if careful >= full {
		t.Errorf("careful writing logged %d bytes, full logging %d", careful, full)
	}
}

func TestPass3SideFileCatchUp(t *testing.T) {
	// Run pass 3 while a goroutine inserts records that split leaves
	// whose base pages the reorganizer already passed — those entries
	// must flow through the side file into the new tree.
	e := newEnv(t, 1024)
	makeSparse(t, e, 3000, 3)

	stop := make(chan struct{})
	var wg sync.WaitGroup
	var mu sync.Mutex
	inserted := map[int]bool{}
	wg.Add(1)
	go func() {
		defer wg.Done()
		seq := 0
		for {
			select {
			case <-stop:
				return
			default:
			}
			// Dense inserts at the low end of the key space: the
			// reorganizer passes it early, so splits land in the side
			// file.
			id := 500000 + seq
			seq++
			tx := e.txns.Begin()
			if err := e.tree.Insert(tx, []byte(fmt.Sprintf("key0000aa%06d", id)), val(id)); err != nil {
				_ = e.tree.Abort(tx)
				continue
			}
			if err := e.tree.Commit(tx); err != nil {
				return
			}
			mu.Lock()
			inserted[id] = true
			mu.Unlock()
		}
	}()

	r := New(e.tree, DefaultConfig())
	err := r.RebuildInternal()
	close(stop)
	wg.Wait()
	if err != nil {
		t.Fatal(err)
	}
	if err := e.tree.Check(); err != nil {
		t.Fatal(err)
	}
	keys, _, err := e.tree.CollectAll()
	if err != nil {
		t.Fatal(err)
	}
	got := map[string]bool{}
	for _, k := range keys {
		got[string(k)] = true
	}
	mu.Lock()
	defer mu.Unlock()
	for id := range inserted {
		if !got[fmt.Sprintf("key0000aa%06d", id)] {
			t.Fatalf("record %d inserted during pass 3 lost", id)
		}
	}
	t.Logf("inserted during pass 3: %d, side applies: %d",
		len(inserted), r.Metrics().Get("pass3.side.applied"))
}

// TestRetryWalkCountsRetries: a walk that loses two deadlocks and a
// lock timeout is made again each time and counted three times; a
// failure that is not a lock conflict ends the walk uncounted.
func TestRetryWalkCountsRetries(t *testing.T) {
	var retries atomic.Int64
	fails := []error{lock.ErrDeadlock, lock.ErrTimeout, lock.ErrDeadlock}
	calls := 0
	v, err := retryWalk(&retries, func() (int, error) {
		calls++
		if calls <= len(fails) {
			return 0, fails[calls-1]
		}
		return calls, nil
	})
	if err != nil || v != 4 || retries.Load() != 3 {
		t.Fatalf("retryWalk = %d, %v; %d retries counted; want 4, nil, 3", v, err, retries.Load())
	}
	broken := errors.New("page unreadable")
	if _, err := retryWalk(&retries, func() (int, error) { return 0, broken }); !errors.Is(err, broken) || retries.Load() != 3 {
		t.Fatalf("retryWalk = %v with %d retries counted; want %v, 3", err, retries.Load(), broken)
	}
}
