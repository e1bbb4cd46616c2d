package repro_test

// Micro-benchmarks of the primitive operations: entry points for
// profiling (`go test -run '^$' -bench Get -cpuprofile ...`), with no
// checked-in numbers. The performance record is bench/ (BENCHMARK.json);
// the paper's tables come from `reorg-bench exp`.

import (
	"sync/atomic"
	"testing"
	"time"

	repro "repro"
	"repro/internal/lock"
	"repro/internal/metrics"
	"repro/internal/workload"
)

// BenchmarkE1LockManager exercises the lock manager's hot path; the
// compatibility matrix itself is pinned by TestTable1Compatibility.
func BenchmarkE1LockManager(b *testing.B) {
	m := lock.NewManager()
	res := lock.PageRes(1)
	b.RunParallel(func(pb *testing.PB) {
		owner := uint64(time.Now().UnixNano())
		for pb.Next() {
			if err := m.Lock(owner, res, lock.S); err != nil {
				b.Fatal(err)
			}
			m.Unlock(owner, res)
		}
	})
}

func BenchmarkInsert(b *testing.B) {
	db, _ := repro.Open(repro.Options{PageSize: 4096})
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := db.Insert(workload.Key(i), workload.Value(i, 48)); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkInsertBatch measures batched inserts (one transaction, one
// descent per leaf run) against the record-at-a-time path above; ns/op
// is per record, so the ratio to BenchmarkInsert is the batch win.
func BenchmarkInsertBatch(b *testing.B) {
	const batch = 256
	db, _ := repro.Open(repro.Options{PageSize: 4096})
	keys := make([][]byte, batch)
	vals := make([][]byte, batch)
	b.ResetTimer()
	for i := 0; i < b.N; i += batch {
		for j := 0; j < batch; j++ {
			keys[j] = workload.Key(i + j)
			vals[j] = workload.Value(i+j, 48)
		}
		if err := db.InsertBatch(keys, vals); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkTxnInsertMany runs one explicit transaction of 4 096
// Inserts per iteration. The transaction ends up holding two locks per
// record (the leaf's IX and the record's X), so a lock manager whose
// bookkeeping grows with the locks an owner holds shows here first;
// ns/record is the per-insert cost.
func BenchmarkTxnInsertMany(b *testing.B) {
	const perTxn = 4096
	db, _ := repro.Open(repro.Options{PageSize: 4096})
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		tx := db.Begin()
		for j := 0; j < perTxn; j++ {
			k := i*perTxn + j
			if err := tx.Insert(workload.Key(k), workload.Value(k, 48)); err != nil {
				b.Fatal(err)
			}
		}
		if err := tx.Commit(); err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*perTxn), "ns/record")
}

func BenchmarkGet(b *testing.B) {
	db, _ := repro.Open(repro.Options{PageSize: 4096})
	const n = 20000
	if err := workload.Load(db, n, 48, "random", 1); err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := db.Get(workload.Key(i % n)); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkGetParallel(b *testing.B) {
	db, _ := repro.Open(repro.Options{PageSize: 4096})
	const n = 20000
	if err := workload.Load(db, n, 48, "random", 1); err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	b.RunParallel(func(pb *testing.PB) {
		i := 0
		for pb.Next() {
			if _, err := db.Get(workload.Key(i % n)); err != nil {
				b.Fatal(err)
			}
			i++
		}
	})
}

// BenchmarkInsertParallel measures concurrent insert throughput on the
// sharded pool + group-commit hot path. Each worker inserts from its
// own key range so the contention is infrastructural (pool shards, log
// tail, lock-manager), not key conflicts.
func BenchmarkInsertParallel(b *testing.B) {
	db, _ := repro.Open(repro.Options{PageSize: 4096})
	var worker atomic.Int64
	b.ResetTimer()
	b.RunParallel(func(pb *testing.PB) {
		base := int(worker.Add(1)) * 10_000_000
		i := 0
		for pb.Next() {
			if err := db.Insert(workload.Key(base+i), workload.Value(i, 48)); err != nil {
				b.Fatal(err)
			}
			i++
		}
	})
}

// BenchmarkMixedParallel measures a 80/20 read/write mix: the common
// OLTP shape where reads ride the log-free fast path and writes share
// forced log writes through group commit.
func BenchmarkMixedParallel(b *testing.B) {
	db, _ := repro.Open(repro.Options{PageSize: 4096})
	const n = 20000
	if err := workload.Load(db, n, 48, "random", 1); err != nil {
		b.Fatal(err)
	}
	var worker atomic.Int64
	b.ResetTimer()
	b.RunParallel(func(pb *testing.PB) {
		base := int(worker.Add(1)) * 10_000_000
		i := 0
		for pb.Next() {
			if i%5 == 4 {
				if err := db.Insert(workload.Key(base+i), workload.Value(i, 48)); err != nil {
					b.Fatal(err)
				}
			} else {
				if _, err := db.Get(workload.Key(i % n)); err != nil {
					b.Fatal(err)
				}
			}
			i++
		}
	})
}

// BenchmarkCommitGroup measures commit latency under concurrency, and
// reports how many forced log writes the run needed per commit
// (forces/op < 1 is group commit working).
func BenchmarkCommitGroup(b *testing.B) {
	db, _ := repro.Open(repro.Options{PageSize: 4096})
	var worker atomic.Int64
	before := db.PerfCounters().Snapshot()
	b.ResetTimer()
	b.RunParallel(func(pb *testing.PB) {
		base := int(worker.Add(1)) * 10_000_000
		i := 0
		for pb.Next() {
			if err := db.Insert(workload.Key(base+i), workload.Value(i, 48)); err != nil {
				b.Fatal(err)
			}
			i++
		}
	})
	b.StopTimer()
	after := db.PerfCounters().Snapshot()
	forces := after[metrics.WALForcedWrites] - before[metrics.WALForcedWrites]
	saved := after[metrics.WALForcesSaved] - before[metrics.WALForcesSaved]
	if n := forces + saved; n > 0 {
		b.ReportMetric(float64(forces)/float64(n), "forces/commit")
	}
}

func BenchmarkScan100(b *testing.B) {
	db, _ := repro.Open(repro.Options{PageSize: 4096})
	const n = 20000
	if err := workload.Load(db, n, 48, "seq", 1); err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		lo := (i * 97) % n
		count := 0
		if err := db.Scan(workload.Key(lo), nil, func(_, _ []byte) bool {
			count++
			return count < 100
		}); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkDelete(b *testing.B) {
	db, _ := repro.Open(repro.Options{PageSize: 4096})
	if err := workload.Load(db, b.N+1, 48, "seq", 1); err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := db.Delete(workload.Key(i)); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkCrashRestart(b *testing.B) {
	for i := 0; i < b.N; i++ {
		b.StopTimer()
		db, err := repro.Open(repro.Options{PageSize: 4096})
		if err != nil {
			b.Fatal(err)
		}
		if err := workload.Load(db, 5000, 48, "random", 42); err != nil {
			b.Fatal(err)
		}
		if _, err := workload.Sparsify(db, 5000, 0.25); err != nil {
			b.Fatal(err)
		}
		db.Crash()
		b.StartTimer()
		if _, err := db.Restart(); err != nil {
			b.Fatal(err)
		}
	}
}
