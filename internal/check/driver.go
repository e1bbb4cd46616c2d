package check

import (
	"bytes"
	"fmt"
	"os"
	"runtime"
	"sync"

	"repro"
	"repro/internal/daemon"
	"repro/internal/fault"
	"repro/internal/metrics"
)

// The crash driver. Both crash harnesses — the exhaustive sweep
// (sweep.go) and the equivalence schedules (equiv.go) — run a seeded,
// single-goroutine program of named steps on a database opened here,
// crash it at one post-open fault-point hit, restart it and hold the
// result to verify. They differ only in what follows the restart: the
// sweep verifies the recovered state and stops, the equivalence run
// re-runs the interrupted step and finishes its program first.

const (
	// pageSize is the smallest size whose value limit admits the
	// harness payloads; small pages keep the programs short while still
	// building multi-level trees.
	pageSize = 512
	// keepEvery thins a loaded range to every keepEvery-th record
	// (~33% occupancy, the paper's sparse regime).
	keepEvery = 3
	// drainTicks bounds a daemon drain: a policy that has not gone idle
	// by then never will.
	drainTicks = 500
)

// dbConfig says how the driver opens a program's database.
type dbConfig struct {
	dir        string // parent of a fresh run directory; "" = in-memory
	pool       int    // resident frames (0 = unbounded)
	walSeg     int64  // file backend WAL segment size (0 = default)
	checkpoint int64  // automatic-checkpoint interval in log bytes (0 = default)
	daemon     bool   // wire in the daemon, ticked by the harness
}

// run is one program's database.
type run struct {
	db  *repro.DB
	inj *fault.Injector // nil: the run is never crashed
	dir string          // run directory ("" = in-memory)
}

// open opens a fresh database for one run. Open itself runs uninjected:
// nothing is armed until drive arms the crash.
func open(c dbConfig, inj *fault.Injector) (*run, error) {
	opts := repro.Options{
		PageSize:        pageSize,
		BufferPoolPages: c.pool,
		FaultInjector:   inj,
		WALSegmentBytes: c.walSeg,
	}
	if c.daemon {
		dcfg := daemon.DefaultConfig()
		dcfg.Manual = true
		dcfg.Ranges = 8
		dcfg.UnitsPerTick = 4
		dcfg.MinLeaves = 2
		opts.Daemon = &dcfg
	}
	r := &run{inj: inj}
	if c.dir != "" {
		dir, err := os.MkdirTemp(c.dir, "run-")
		if err != nil {
			return nil, fmt.Errorf("check: run dir: %w", err)
		}
		r.dir, opts.Dir = dir, dir
	}
	db, err := repro.Open(opts)
	if err != nil {
		r.close()
		return nil, err
	}
	r.db = db
	if c.checkpoint > 0 {
		db.Tree().Log().SetCheckpointInterval(c.checkpoint)
	}
	return r, nil
}

// close releases the run's database (file handles matter: a sweep
// performs thousands of runs) and removes its directory. Errors are
// discarded: the run's verdict is already decided.
func (r *run) close() {
	r.inj.Disarm() // Close must not trip a crash armed past the program's end
	if r.db != nil {
		_ = r.db.Close()
	}
	if r.dir != "" {
		_ = os.RemoveAll(r.dir)
	}
}

// drain ticks the manual daemon until three consecutive ticks run no
// increment: the policy has gone idle on the current tree. An armed
// crash panics out of Tick into drive's fault.Catch; a drain is
// idempotent, so a resumed program simply re-enters it.
func (r *run) drain() error {
	idle := 0
	for ticks := 0; idle < 3; ticks++ {
		if ticks > drainTicks {
			return fmt.Errorf("daemon never went idle within %d ticks", ticks)
		}
		d := r.db.Daemon() // re-fetch: a restart rebuilds the daemon
		before := d.Metrics().Get(metrics.DaemonIncrements)
		if err := d.Tick(); err != nil {
			return err
		}
		if d.Metrics().Get(metrics.DaemonIncrements) == before {
			idle++
		} else {
			idle = 0
		}
	}
	return nil
}

// step is one named piece of a harness program.
type step struct {
	name string
	fn   func() error
}

// crash is where drive crashes a program: at its hit-th post-open
// fault-point hit (0: nowhere), tearing the write in flight when torn,
// and with second > 0 crashing the restart that follows too, at its
// second-th wal.append hit.
type crash struct {
	hit    int
	torn   bool
	second int64
}

// outcome is what one driven program did.
type outcome struct {
	crashed bool
	point   string // fault point the crash fired at
	step    string // step it interrupted
	info    *repro.RestartInfo
	// appends counts the wal.append hits of a restart that completed a
	// unit or cleaned up a pass 3: the second-crash schedules of the hit.
	appends int64
	hits    int64 // post-open fault-point hits of the whole program
}

// drive runs steps on r with c armed. The crash is followed by
// restart; with resume the interrupted step then runs again and the
// program goes on, without it drive returns at once.
func (r *run) drive(steps []step, c crash, resume bool) (*outcome, error) {
	start := r.inj.Seq()
	if c.hit > 0 {
		r.inj.ArmCrashAtSeq(start+int64(c.hit), c.torn)
	}
	out := &outcome{}
	for i := 0; i < len(steps); {
		cr, err := fault.Catch(steps[i].fn)
		if err != nil {
			return out, fmt.Errorf("step %s: %w", steps[i].name, err)
		}
		if cr == nil {
			i++
			continue
		}
		out.crashed, out.point, out.step = true, cr.Point, steps[i].name
		if err := r.restart(c.second, out); err != nil {
			return out, fmt.Errorf("crash in %s: %w", steps[i].name, err)
		}
		if !resume {
			return out, nil
		}
	}
	out.hits = r.inj.Seq() - start
	r.inj.Disarm() // a crash armed past the program's end never fires
	return out, nil
}

// restart crashes the database and restarts it disarmed: recovery is
// not re-injected, except that with second > 0 the first restart is
// itself crashed at its second-th wal.append hit (the log and disk keep
// the injector across a restart) and the one after it is the restart
// that must succeed.
func (r *run) restart(second int64, out *outcome) error {
	r.inj.Disarm()
	r.db.Crash()
	if second > 0 {
		r.inj.Arm(fault.WALAppend, fault.Schedule{Kind: fault.KindCrash,
			OnHit: r.inj.HitCounts()[fault.WALAppend] + second})
		cr, err := fault.Catch(func() error {
			_, err := r.db.Restart()
			return err
		})
		if err != nil {
			return fmt.Errorf("restart failed before its armed crash: %w", err)
		}
		if cr == nil {
			return fmt.Errorf("restart completed without reaching its wal.append hit %d", second)
		}
		r.inj.Disarm()
		r.db.Crash()
	}
	before := r.inj.HitCounts()[fault.WALAppend]
	info, err := r.db.Restart()
	if err != nil {
		return fmt.Errorf("restart: %w", err)
	}
	out.info = info
	if info.UnitCompleted || info.Pass3Abandoned || info.Pass3Completed {
		out.appends = r.inj.HitCounts()[fault.WALAppend] - before
	}
	return nil
}

// op is a mutation in flight at a crash: fully applied or fully absent
// after restart, never a mixture.
type op struct {
	kind string // "insert", "update", "delete"
	key  string
	val  string
}

// verify holds a quiescent database to every invariant the harness
// knows: the structure oracle (Tree), scan order, exactly the committed
// records of model (pend, the mutation in flight at a crash, either
// fully applied or absent), and a liveness probe.
func verify(db *repro.DB, model map[string]string, pend *op) error {
	if rep := Tree(db); !rep.OK() {
		return fmt.Errorf("structure oracle: %w", rep.Err())
	}

	got := make(map[string]string)
	var prev []byte
	var orderErr error
	err := db.Scan([]byte(""), nil, func(k, v []byte) bool {
		if prev != nil && bytes.Compare(prev, k) >= 0 && orderErr == nil {
			orderErr = fmt.Errorf("scan order violation: %q after %q", k, prev)
		}
		got[string(k)] = string(v)
		prev = append(prev[:0], k...)
		return true
	})
	if err != nil {
		return fmt.Errorf("full scan: %w", err)
	}
	if orderErr != nil {
		return orderErr
	}

	// Committed-data durability: every acknowledged record is readable
	// with exactly its committed value.
	for k, v := range model {
		if pend != nil && pend.key == k {
			continue // in flight at the crash: checked below
		}
		gv, ok := got[k]
		if !ok {
			return fmt.Errorf("committed key %q lost", k)
		}
		if gv != v {
			return fmt.Errorf("committed key %q: got %q, want %q", k, gv, v)
		}
	}
	// No dirty reads: nothing outside the model (modulo the pending op)
	// may exist.
	for k, gv := range got {
		if _, ok := model[k]; ok {
			continue
		}
		if pend != nil && pend.key == k && pend.kind == "insert" {
			if gv != pend.val {
				return fmt.Errorf("pending insert %q: got %q, want %q or absence", k, gv, pend.val)
			}
			continue
		}
		return fmt.Errorf("uncommitted key %q survived", k)
	}
	// Crash atomicity of the operation in flight.
	if pend != nil {
		gv, present := got[pend.key]
		switch pend.kind {
		case "insert":
			// absence or the new value; both checked above
		case "update":
			old := model[pend.key]
			if !present {
				return fmt.Errorf("pending update lost key %q entirely", pend.key)
			}
			if gv != old && gv != pend.val {
				return fmt.Errorf("pending update %q: got %q, want %q or %q",
					pend.key, gv, old, pend.val)
			}
		case "delete":
			if present && gv != model[pend.key] {
				return fmt.Errorf("pending delete %q: surviving value %q != committed %q",
					pend.key, gv, model[pend.key])
			}
		}
	}

	// Liveness probe: the database accepts new work.
	probeK, probeV := []byte("zz-probe"), []byte("probe-value")
	if err := db.Insert(probeK, probeV); err != nil {
		return fmt.Errorf("probe insert: %w", err)
	}
	v, err := db.Get(probeK)
	if err != nil || !bytes.Equal(v, probeV) {
		return fmt.Errorf("probe get: %w (val %q)", err, v)
	}
	if err := db.Delete(probeK); err != nil {
		return fmt.Errorf("probe delete: %w", err)
	}
	return nil
}

// parallel runs job(0) … job(n-1) on runtime.GOMAXPROCS(0) workers,
// each job on a database of its own. Jobs start in index order and none
// starts after a failure, so every job below a failing one has run: the
// error returned, the lowest failing index's, is the same whatever the
// interleaving.
func parallel(n int, job func(i int) error) error {
	var (
		mu      sync.Mutex
		next    int
		failed  = n
		failErr error
		wg      sync.WaitGroup
	)
	for w := 0; w < runtime.GOMAXPROCS(0); w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				mu.Lock()
				i := next
				if i >= n || failed < n {
					mu.Unlock()
					return
				}
				next++
				mu.Unlock()
				if err := job(i); err != nil {
					mu.Lock()
					if i < failed {
						failed, failErr = i, err
					}
					mu.Unlock()
				}
			}
		}()
	}
	wg.Wait()
	return failErr
}

// spread picks n crash hits evenly over [1, hits], first and last
// included.
func spread(hits, n int) []int {
	out := make([]int, n)
	for j := range out {
		out[j] = 1 + j*(hits-1)/max(n-1, 1)
	}
	return out
}
