package repro

import (
	"encoding/json"
	"net"
	"net/http"
	"os"
	"testing"
	"time"

	"repro/internal/metrics"
	"repro/internal/obs"
	"repro/internal/workload"
)

// TestObsEventsMatchCountersDuringReorg drives a Zipfian read-mostly
// mix concurrently with repeated reorganization passes, then — after
// everything quiesces — checks that the trace ring's per-type counts
// agree EXACTLY with the lock manager's counters, and that the wait
// histograms sampled exactly one duration per counted wait. The event
// emit and the counter increment sit on the same code path under the
// same mutex, so any drift is a wiring bug, not scheduling noise.
// Run with -race and -tags invariants for the full checking build.
func TestObsEventsMatchCountersDuringReorg(t *testing.T) {
	db, err := Open(Options{PageSize: 4096})
	if err != nil {
		t.Fatalf("open: %v", err)
	}
	defer func() {
		if err := db.Close(); err != nil {
			t.Fatalf("close: %v", err)
		}
	}()
	const records = 5000
	if err := workload.Load(db, records, 64, "random", 9); err != nil {
		t.Fatalf("load: %v", err)
	}
	if _, err := workload.Sparsify(db, records, 0.25); err != nil {
		t.Fatalf("sparsify: %v", err)
	}

	stop := make(chan struct{})
	done := make(chan struct{})
	go func() {
		defer close(done)
		workload.RunClientsOpts(db, workload.ClientOpts{
			Clients: 4, Mix: workload.ReadMostly, KeySpace: records,
			ValueSize: 64, ZipfS: 1.2}, stop)
	}()
	// Keep the reorganizer running against live traffic for a while so
	// forgoes and lock waits actually happen.
	deadline := time.Now().Add(300 * time.Millisecond)
	for time.Now().Before(deadline) {
		if _, err := db.Reorganize(DefaultReorgConfig()); err != nil {
			close(stop)
			<-done
			t.Fatalf("reorganize: %v", err)
		}
	}
	close(stop)
	<-done

	// Quiesced: every counter its matching event, exactly.
	ring := db.Obs().Trace()
	ls := db.LockStats()
	if got, want := ring.Count(obs.EvForgo), uint64(ls.Forgoes.Load()); got != want {
		t.Errorf("EvForgo events = %d, Forgoes counter = %d", got, want)
	}
	if got, want := ring.Count(obs.EvDeadlockVictim), uint64(ls.Deadlocks.Load()); got != want {
		t.Errorf("EvDeadlockVictim events = %d, Deadlocks counter = %d", got, want)
	}
	waitSamples := db.Obs().H(obs.OpUserLockWait).Count() +
		db.Obs().H(obs.OpReorgLockWait).Count()
	waitCounts := uint64(ls.UserWaits.Load() + ls.ReorgWaits.Load())
	if waitSamples != waitCounts {
		t.Errorf("lock-wait histogram samples = %d, UserWaits+ReorgWaits = %d",
			waitSamples, waitCounts)
	}
	// Every unit that began also ended (deadlocked units end after their
	// undo), and each end recorded exactly one duration sample.
	if s, e := ring.Count(obs.EvReorgUnitStart), ring.Count(obs.EvReorgUnitEnd); s != e {
		t.Errorf("reorg unit events unbalanced: %d starts, %d ends", s, e)
	}
	if h, e := db.Obs().H(obs.OpReorgUnit).Count(), ring.Count(obs.EvReorgUnitEnd); h != e {
		t.Errorf("reorg-unit histogram samples = %d, EvReorgUnitEnd events = %d", h, e)
	}
	if ring.Count(obs.EvReorgUnitEnd) == 0 {
		t.Error("no reorg units ran; the test exercised nothing")
	}
	// A forgo-wait sample is recorded after the instant-RS wait that
	// follows each forgo, so samples can never exceed forgoes.
	if fw, fg := db.Obs().H(obs.OpForgoWait).Count(), ring.Count(obs.EvForgo); fw > fg {
		t.Errorf("forgo-wait samples = %d exceed forgo events = %d", fw, fg)
	}

	// The per-op histograms saw the workload, and quantiles are sane.
	snap := db.Obs().H(obs.OpGet).Snapshot()
	if snap.Total == 0 {
		t.Fatal("get histogram empty after a read-mostly workload")
	}
	p50, p99, p999 := snap.Quantile(0.5), snap.Quantile(0.99), snap.Quantile(0.999)
	if !(p50 <= p99 && p99 <= p999 && p999 <= snap.Max()) {
		t.Errorf("quantiles out of order: p50=%v p99=%v p999=%v max=%v",
			p50, p99, p999, snap.Max())
	}

	// Occupancy gauges reflect a live tree: records present, fills in
	// (0, 1], free-map accounting consistent.
	occ, err := db.Occupancy(4)
	if err != nil {
		t.Fatalf("occupancy: %v", err)
	}
	if len(occ.Ranges) == 0 {
		t.Fatal("occupancy returned no ranges")
	}
	total := 0
	for _, r := range occ.Ranges {
		total += r.Records
		if r.Leaves > 0 && (r.AvgFill <= 0 || r.AvgFill > 1) {
			t.Errorf("range [%q, %q): avg fill %v out of (0, 1]", r.LoKey, r.HiKey, r.AvgFill)
		}
	}
	if total == 0 {
		t.Error("occupancy gauges count zero records in a populated tree")
	}
	// The free map scans ids [1, highWater): page 0 is the superblock.
	if occ.Free.Allocated+occ.Free.Free != occ.Free.HighWater-1 {
		t.Errorf("free map inconsistent: allocated %d + free %d != high water %d - 1",
			occ.Free.Allocated, occ.Free.Free, occ.Free.HighWater)
	}

	if err := db.Check(); err != nil {
		t.Fatalf("tree check after reorg under load: %v", err)
	}
}

// TestObsDisabled pins the off switch: with DisableObservability no
// set, ring, or histograms exist and the accessors degrade gracefully.
func TestObsDisabled(t *testing.T) {
	db, err := Open(Options{PageSize: 4096, DisableObservability: true})
	if err != nil {
		t.Fatalf("open: %v", err)
	}
	defer db.Close()
	if err := db.Insert([]byte("k"), []byte("v")); err != nil {
		t.Fatalf("insert: %v", err)
	}
	if _, err := db.Get([]byte("k")); err != nil {
		t.Fatalf("get: %v", err)
	}
	if db.Obs() != nil {
		t.Fatal("Obs() non-nil with observability disabled")
	}
	if evs := db.TraceSnapshot(); evs != nil {
		t.Fatalf("TraceSnapshot returned %d events with observability disabled", len(evs))
	}
	if rows := db.MetricsSnapshot().Latencies; rows != nil {
		t.Fatalf("MetricsSnapshot returned %d latency rows with observability disabled", len(rows))
	}
}

// TestMetricsSnapshotMutexWait: every snapshot carries the runtime's
// cumulative mutex wait and the lock manager's trips, and neither
// shrinks from one snapshot to the next.
func TestMetricsSnapshotMutexWait(t *testing.T) {
	db, err := Open(Options{PageSize: 1024})
	if err != nil {
		t.Fatalf("open: %v", err)
	}
	defer db.Close()
	first := db.MetricsSnapshot().Counters
	for i := 0; i < 200; i++ {
		if err := db.Insert(workload.Key(i), workload.Value(i, 32)); err != nil {
			t.Fatalf("insert %d: %v", i, err)
		}
	}
	second := db.MetricsSnapshot().Counters
	for _, name := range []string{metrics.RuntimeMutexWaitNs, metrics.LockTrips} {
		a, ok1 := first[name]
		b, ok2 := second[name]
		if !ok1 || !ok2 {
			t.Fatalf("%s missing from MetricsSnapshot counters", name)
		}
		if b < a {
			t.Errorf("%s fell from %d to %d", name, a, b)
		}
	}
	if second[metrics.LockTrips] <= first[metrics.LockTrips] {
		t.Errorf("lock.trips did not grow over 200 inserts: %d -> %d",
			first[metrics.LockTrips], second[metrics.LockTrips])
	}
}

// TestDebugEndpoint serves /metrics and /trace on Options.DebugAddr:
// the snapshot's log counter is the one PerfCounters reports at
// quiescence, the trace holds the run's events, and Close stops the
// listener.
func TestDebugEndpoint(t *testing.T) {
	db, err := Open(Options{PageSize: 1024, DebugAddr: "127.0.0.1:0"})
	if err != nil {
		t.Fatalf("open: %v", err)
	}
	for i := 0; i < 200; i++ {
		if err := db.Insert(workload.Key(i), workload.Value(i, 32)); err != nil {
			t.Fatalf("insert %d: %v", i, err)
		}
	}
	if _, err := db.Get(workload.Key(7)); err != nil {
		t.Fatalf("get: %v", err)
	}
	addr := db.DebugAddr()
	get := func(path string, v any) {
		t.Helper()
		resp, err := http.Get("http://" + addr + path)
		if err != nil {
			t.Fatalf("GET %s: %v", path, err)
		}
		defer resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("GET %s: %s", path, resp.Status)
		}
		if err := json.NewDecoder(resp.Body).Decode(v); err != nil {
			t.Fatalf("GET %s: decode: %v", path, err)
		}
	}
	var snap obs.MetricsSnapshot
	get("/metrics", &snap)
	want := db.PerfCounters().Get(metrics.WALBytesAppended)
	if got := snap.Counters[metrics.WALBytesAppended]; got != want || want == 0 {
		t.Errorf("/metrics %s = %d, PerfCounters %d", metrics.WALBytesAppended, got, want)
	}
	var events []obs.Event
	get("/trace", &events)
	if len(events) == 0 {
		t.Error("/trace holds no events after 200 inserts")
	}
	if err := db.Close(); err != nil {
		t.Fatalf("close: %v", err)
	}
	if conn, err := net.DialTimeout("tcp", addr, time.Second); err == nil {
		conn.Close()
		t.Errorf("%s still accepts connections after Close", addr)
	}
}

// TestDebugAddrErrorsReturnNoDatabase: Open refuses DebugAddr without
// observability before it opens anything, and a listen failure closes
// the database it built and returns none.
func TestDebugAddrErrorsReturnNoDatabase(t *testing.T) {
	t.Run("observability disabled", func(t *testing.T) {
		dir := t.TempDir()
		db, err := Open(Options{Dir: dir, DisableObservability: true, DebugAddr: "127.0.0.1:0"})
		if db != nil || err == nil {
			t.Fatalf("Open returned a database: %t, error: %v; want none and an error", db != nil, err)
		}
		if entries, _ := os.ReadDir(dir); len(entries) != 0 {
			t.Errorf("refused Open left %d entries in %s", len(entries), dir)
		}
	})
	t.Run("address in use", func(t *testing.T) {
		ln, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			t.Fatal(err)
		}
		defer ln.Close()
		dir := t.TempDir()
		db, err := Open(Options{Dir: dir, DebugAddr: ln.Addr().String()})
		if db != nil || err == nil {
			t.Fatalf("Open returned a database: %t, error: %v; want none and an error", db != nil, err)
		}
		// The failed Open closed what it built: the directory reopens.
		db, err = Open(Options{Dir: dir})
		if err != nil {
			t.Fatalf("reopen: %v", err)
		}
		if err := db.Close(); err != nil {
			t.Fatalf("close: %v", err)
		}
	})
}
