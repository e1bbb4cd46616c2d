package core

import (
	"errors"
	"fmt"
	"testing"

	"repro/internal/kv"
	"repro/internal/storage"
)

// buildReversedLayout constructs a tree whose leaves are deliberately
// laid out in reverse disk order, maximising pass-2 swap work: load
// descending so page allocation order is the reverse of key order.
func buildReversedLayout(t *testing.T, e *env, n int) {
	t.Helper()
	for i := n - 1; i >= 0; i-- {
		e.put(t, i)
	}
}

func TestPass2SwapHeavyWorkload(t *testing.T) {
	e := newEnv(t, 1024)
	buildReversedLayout(t, e, 1500)
	before, _ := e.tree.GatherStats()
	if before.OutOfOrderPairs == 0 {
		t.Skip("layout not inverted; nothing to test")
	}
	r := New(e.tree, Config{TargetFill: 0.9, SwapPass: true})
	// No compaction possible (pages are full): SwapLeaves does the work
	// almost entirely with swap units.
	if err := r.CompactLeaves(); err != nil {
		t.Fatal(err)
	}
	if err := r.SwapLeaves(); err != nil {
		t.Fatal(err)
	}
	if err := e.tree.Check(); err != nil {
		t.Fatal(err)
	}
	after, _ := e.tree.GatherStats()
	if after.OutOfOrderPairs != 0 {
		t.Errorf("%d inversions remain (swaps=%d moves=%d)", after.OutOfOrderPairs,
			r.Metrics().Get("pass2.swaps"), r.Metrics().Get("pass2.moves"))
	}
	if r.Metrics().Get("pass2.swaps") == 0 {
		t.Error("expected swap units in a reversed layout")
	}
	checkRecords(t, e, func(i int) bool { return i < 1500 }, 1500)
}

// TestSwapPagesAdjacent exercises the self-reference fixes when the
// two swapped leaves are neighbours in the chain.
func TestSwapPagesAdjacent(t *testing.T) {
	e := newEnv(t, 1024)
	pg := e.pager
	a, _ := pg.Allocate(storage.PageLeaf)
	b, _ := pg.Allocate(storage.PageLeaf)
	aID, bID := a.ID(), b.ID()
	a.Lock()
	_ = kv.LeafInsert(a.Data(), []byte("a1"), []byte("va"))
	a.Data().SetNext(bID)
	a.Unlock()
	b.Lock()
	_ = kv.LeafInsert(b.Data(), []byte("b1"), []byte("vb"))
	b.Data().SetPrev(aID)
	b.Unlock()

	SwapPages(pg, a, b, 99)

	a.RLock()
	av, aok := kv.LeafGet(a.Data(), []byte("b1"))
	aPrev, aNext := a.Data().Prev(), a.Data().Next()
	a.RUnlock()
	b.RLock()
	bv, bok := kv.LeafGet(b.Data(), []byte("a1"))
	bPrev, bNext := b.Data().Prev(), b.Data().Next()
	b.RUnlock()
	if !aok || string(av) != "vb" || !bok || string(bv) != "va" {
		t.Fatalf("contents not swapped: %q/%v %q/%v", av, aok, bv, bok)
	}
	// After the swap the logical order is b1-leaf (at page A)?? No:
	// page A holds leaf-b content whose prev was A -> must now be B.
	if aPrev != bID || aNext != storage.InvalidPage {
		t.Errorf("page A pointers prev=%d next=%d, want prev=%d next=0", aPrev, aNext, bID)
	}
	if bNext != aID || bPrev != storage.InvalidPage {
		t.Errorf("page B pointers prev=%d next=%d, want next=%d prev=0", bPrev, bNext, aID)
	}
	pg.Unfix(a)
	pg.Unfix(b)
}

// TestSwapUnitsWithConcurrentReaders runs the swap-heavy pass while
// readers hammer the tree: the §4 protocols must keep every read
// consistent.
func TestSwapUnitsWithConcurrentReaders(t *testing.T) {
	e := newEnv(t, 1024)
	buildReversedLayout(t, e, 1200)
	stop := make(chan struct{})
	done := make(chan error, 4)
	for w := 0; w < 4; w++ {
		go func(w int) {
			for i := 0; ; i = (i + 7) % 1200 {
				select {
				case <-stop:
					done <- nil
					return
				default:
				}
				tx := e.txns.Begin()
				v, ok, err := e.tree.Get(tx, key(i))
				if err != nil {
					_ = e.tree.Abort(tx)
					continue // deadlock victim etc.
				}
				if !ok || string(v) != string(val(i)) {
					done <- fmt.Errorf("reader saw %q/%v for %d", v, ok, i)
					_ = e.tree.Abort(tx)
					return
				}
				_ = e.tree.Commit(tx)
			}
		}(w)
	}
	r := New(e.tree, Config{TargetFill: 0.9, SwapPass: true})
	err := r.SwapLeaves()
	close(stop)
	for w := 0; w < 4; w++ {
		if werr := <-done; werr != nil {
			t.Fatal(werr)
		}
	}
	if err != nil {
		t.Fatal(err)
	}
	if err := e.tree.Check(); err != nil {
		t.Fatal(err)
	}
}

// TestFirstFitThenSwapRoundTrip: the ablation path (first-fit placement
// creating many out-of-order pages) followed by the swap pass must
// still converge to zero inversions with intact data.
func TestFirstFitThenSwapRoundTrip(t *testing.T) {
	e := newEnv(t, 1024)
	makeSparse(t, e, 1500, 4)
	r := New(e.tree, Config{TargetFill: 0.9, Placement: PlacementFirstFit, SwapPass: true})
	if err := r.CompactLeaves(); err != nil {
		t.Fatal(err)
	}
	if err := r.SwapLeaves(); err != nil {
		t.Fatal(err)
	}
	if err := e.tree.Check(); err != nil {
		t.Fatal(err)
	}
	stats, _ := e.tree.GatherStats()
	if stats.OutOfOrderPairs != 0 {
		t.Errorf("%d inversions after first-fit + swap", stats.OutOfOrderPairs)
	}
	checkRecords(t, e, sparsePresent(4), 1500)
}

// TestReorgTableLifecycle checks the §5 system table transitions:
// empty -> unit in flight -> LK recorded.
func TestReorgTableLifecycle(t *testing.T) {
	e := newEnv(t, 1024)
	makeSparse(t, e, 800, 4)
	var seenInFlight bool
	var r *Reorganizer
	r = New(e.tree, Config{TargetFill: 0.9, OnEvent: func(s string) error {
		if s == "compact.moved" {
			snap := r.TableSnapshot()
			if snap.HasUnit && snap.BeginLSN > 0 && snap.LastLSN >= snap.BeginLSN {
				seenInFlight = true
			}
		}
		return nil
	}})
	if err := r.CompactLeaves(); err != nil {
		t.Fatal(err)
	}
	if !seenInFlight {
		t.Error("reorg table never showed an in-flight unit")
	}
	snap := r.TableSnapshot()
	if snap.HasUnit {
		t.Error("unit still open after the pass")
	}
	if !snap.HasLK || len(snap.LK) == 0 {
		t.Error("LK not recorded after finished units")
	}
}

// TestRunIsRepeatable: reorganizing an already-reorganized tree is a
// cheap no-op that preserves everything.
func TestRunIsRepeatable(t *testing.T) {
	e := newEnv(t, 1024)
	makeSparse(t, e, 1000, 4)
	r1 := New(e.tree, DefaultConfig())
	if err := r1.Run(); err != nil {
		t.Fatal(err)
	}
	s1, _ := e.tree.GatherStats()
	r2 := New(e.tree, DefaultConfig())
	if err := r2.Run(); err != nil {
		t.Fatal(err)
	}
	s2, _ := e.tree.GatherStats()
	if s2.LeafPages != s1.LeafPages || s2.Records != s1.Records {
		t.Errorf("second run changed the tree: %+v -> %+v", s1, s2)
	}
	if r2.Metrics().Get("units.compact") != 0 {
		t.Errorf("second run compacted %d units", r2.Metrics().Get("units.compact"))
	}
	if err := errorsJoin(e.tree.Check()); err != nil {
		t.Fatal(err)
	}
	checkRecords(t, e, sparsePresent(4), 1000)
}

func errorsJoin(errs ...error) error { return errors.Join(errs...) }
