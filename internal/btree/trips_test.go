package btree

import (
	"testing"

	"repro/internal/lock"
	"repro/internal/txn"
)

// TestLockTripsPerOp pins how often each kind of operation goes through
// the lock manager's mutex (trips) and how many locks it is granted, on
// a tree whose root is at level 2: root, base page, leaf.
//
// Before lock coupling became one lock-manager call, the same
// operations on the same tree measured, with the same counter:
//
//	Get                     8 trips, 5 grants
//	auto-commit Update      8 trips, 5 grants
//	Scan of 100 rows        2 trips and 1 grant per leaf crossed
//	InsertBatch of 256    593 trips, 428 grants
//
// A Get is the tree IS, root S, base S, the root's release, leaf IS,
// the base's release, record S and the commit's ReleaseAll; the two
// releases now ride on the grants below them. A scan took S on the
// next leaf and then downgraded the current one to IS; that is one
// call now. Grants must not move: the same locks in the same modes.
func TestLockTripsPerOp(t *testing.T) {
	e := newEnv(t, 512)
	for i := 0; i < 2000; i += 2 {
		e.put(t, i)
	}
	if h, err := e.tree.Height(); err != nil || h != 3 {
		t.Fatalf("height %d (%v), want a root at level 2", h, err)
	}
	measure := func(op func(tx *txn.Txn) error) (trips, grants int64) {
		t.Helper()
		tr0, g0 := e.locks.Trips(), e.locks.Stats().Grants.Load()
		tx := e.txns.Begin()
		if err := op(tx); err != nil {
			t.Fatal(err)
		}
		if err := e.tree.Commit(tx); err != nil {
			t.Fatal(err)
		}
		return e.locks.Trips() - tr0, e.locks.Stats().Grants.Load() - g0
	}
	check := func(name string, trips, grants, wantTrips, wantGrants int64) {
		t.Helper()
		if trips != wantTrips || grants != wantGrants {
			t.Errorf("%s: %d trips, %d grants; want %d, %d", name, trips, grants, wantTrips, wantGrants)
		}
	}

	trips, grants := measure(func(tx *txn.Txn) error {
		_, _, err := e.tree.Get(tx, key(1000))
		return err
	})
	check("Get", trips, grants, 6, 5)

	trips, grants = measure(func(tx *txn.Txn) error {
		tx.MarkSingleRecord()
		return e.tree.Update(tx, key(1000), val(1))
	})
	check("auto-commit Update", trips, grants, 6, 5)

	// A scan's trips beyond a one-row scan's are its leaf crossings.
	// The leaves it visited are the page locks it holds at its end.
	scan := func(rows int) (trips, grants int64, leaves int) {
		t.Helper()
		trips, grants = measure(func(tx *txn.Txn) error {
			n := 0
			err := e.tree.Scan(tx, key(1000), key(1000+2*(rows-1)), func(_, _ []byte) bool {
				n++
				return true
			})
			if err == nil && n != rows {
				t.Fatalf("scan saw %d rows, want %d", n, rows)
			}
			for res := range e.locks.HeldResources(tx.ID()) {
				if res.Space == lock.SpacePage {
					leaves++
				}
			}
			return err
		})
		// HeldResources is one trip of the test's own.
		return trips - 1, grants, leaves
	}
	oneTrips, oneGrants, _ := scan(1)
	trips, grants, leaves := scan(100)
	crossed := int64(leaves - 1)
	if crossed < 3 {
		t.Fatalf("the 100-row scan crossed %d leaves; the tree is too dense to measure", crossed)
	}
	dt, dg := trips-oneTrips, grants-oneGrants
	if dt != crossed || dg != crossed {
		t.Errorf("Scan: %d trips and %d grants over %d leaf crossings; want 1 and 1 per crossing", dt, dg, crossed)
	}

	keys, vals := make([][]byte, 256), make([][]byte, 256)
	for i := range keys {
		keys[i], vals[i] = key(1001+2*i), val(1001+2*i)
	}
	trips, grants = measure(func(tx *txn.Txn) error {
		return e.tree.InsertBatch(tx, keys, vals)
	})
	check("InsertBatch(256)", trips, grants, 459, 428)
}
