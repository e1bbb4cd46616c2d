package repro

import (
	"bytes"
	"fmt"
	"math/rand"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/invariant"
	"repro/internal/workload"
)

// raceEnabled is set by race_test.go in -race builds.
var raceEnabled bool

// TestScanAllocsIndependentOfRows pins the scan's allocation discipline:
// a scan copies each leaf into one pooled buffer, so a 1 000-row scan
// allocates exactly as often as a 100-row one.
func TestScanAllocsIndependentOfRows(t *testing.T) {
	if invariant.Enabled {
		t.Skip("the invariants build tracks every lock and latch it takes")
	}
	if raceEnabled {
		t.Skip("under the race detector sync.Pool drops a random quarter of its Puts")
	}
	db, err := Open(Options{PageSize: 4096})
	if err != nil {
		t.Fatal(err)
	}
	const n = 5000
	if err := workload.Load(db, n, 48, "seq", 1); err != nil {
		t.Fatal(err)
	}
	lo := workload.Key(1000)
	allocs := func(rows int) float64 {
		return testing.AllocsPerRun(50, func() {
			count := 0
			if err := db.Scan(lo, nil, func(_, _ []byte) bool {
				count++
				return count < rows
			}); err != nil {
				t.Fatal(err)
			}
			if count != rows {
				t.Fatalf("scan delivered %d rows, want %d", count, rows)
			}
		})
	}
	a100, a1000 := allocs(100), allocs(1000)
	if a100 != a1000 {
		t.Fatalf("scan allocations grow with rows: %v for 100 rows, %v for 1000", a100, a1000)
	}
}

// TestConcurrentScansBesideWriters runs two scanners, which share the
// tree's buffer pool, beside auto-commit updaters and a Reorganize of a
// sparsified tree. Every row a scan delivers must carry the value of
// its own key, and each scan's keys must ascend.
func TestConcurrentScansBesideWriters(t *testing.T) {
	db, err := Open(Options{PageSize: 1024})
	if err != nil {
		t.Fatal(err)
	}
	const n = 2000
	if err := workload.Load(db, n, 24, "random", 3); err != nil {
		t.Fatal(err)
	}
	keep, err := workload.Sparsify(db, n, 0.3)
	if err != nil {
		t.Fatal(err)
	}

	stop := make(chan struct{})
	errc := make(chan error, 1) // the first failure; fail drops later ones
	fail := func(err error) {
		select {
		case errc <- err:
		default:
		}
	}
	var wg sync.WaitGroup
	var rows atomic.Int64
	for s := 0; s < 2; s++ {
		wg.Add(1)
		go func(s int) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(int64(s) + 11))
			var prev []byte
			for {
				select {
				case <-stop:
					return
				default:
				}
				lo := rng.Intn(n)
				prev = prev[:0]
				var bad error
				err := db.Scan(workload.Key(lo), workload.Key(lo+300), func(k, v []byte) bool {
					// Keys are "user%08d", values "val-%08d-...".
					if len(k) != 12 || len(v) < 12 || !bytes.Equal(k[4:], v[4:12]) {
						bad = fmt.Errorf("scanner %d: key %q delivered with value %q", s, k, v)
						return false
					}
					if len(prev) > 0 && bytes.Compare(k, prev) <= 0 {
						bad = fmt.Errorf("scanner %d: key %q after %q", s, k, prev)
						return false
					}
					prev = append(prev[:0], k...)
					rows.Add(1)
					return true
				})
				if err == nil {
					err = bad
				}
				if err != nil {
					fail(err)
					return
				}
			}
		}(s)
	}
	for u := 0; u < 2; u++ {
		wg.Add(1)
		go func(u int) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(int64(u) + 21))
			for {
				select {
				case <-stop:
					return
				default:
				}
				i := rng.Intn(n)
				if !keep(i) {
					continue
				}
				// Alternate value sizes so rows shift within the leaves.
				if err := db.Update(workload.Key(i), workload.Value(i, 16+rng.Intn(3)*16)); err != nil {
					fail(fmt.Errorf("updater %d: key %d: %w", u, i, err))
					return
				}
			}
		}(u)
	}

	// Scans must be running when the reorganization starts and must
	// deliver rows after its switch.
	waitRowsPast := func(n int64) {
		for rows.Load() <= n && len(errc) == 0 {
			time.Sleep(time.Millisecond)
		}
	}
	waitRowsPast(0)
	_, rerr := db.Reorganize(DefaultReorgConfig())
	waitRowsPast(rows.Load())
	close(stop)
	wg.Wait()
	if rerr != nil {
		t.Fatalf("reorganize beside scans: %v", rerr)
	}
	select {
	case err := <-errc:
		t.Fatal(err)
	default:
	}
	if rows.Load() == 0 {
		t.Fatal("scanners delivered no rows")
	}
	if err := db.Check(); err != nil {
		t.Fatal(err)
	}
}
