// Package sweep implements the exhaustive crash-schedule sweep (E5b):
// a scripted sparse-load → concurrent-update → reorganize workload is
// run once with a tracing fault.Injector to enumerate every fault-point
// hit, then re-run once per hit index with a crash armed at exactly
// that hit. After each injected crash the harness calls Crash() and
// Restart() and asserts the recovery invariants:
//
//   - tree.Check() passes (structural integrity),
//   - every committed key is readable with its committed value,
//   - no uncommitted key survives,
//   - the operation in flight at the crash is atomic (fully applied or
//     fully absent),
//   - the reorganization unit in flight is fully absent or fully
//     forward-completed (implied by the first three plus scan order),
//   - the recovered database accepts new work (liveness probe).
//
// Every schedule whose restart forward-completes a reorganization unit
// is then run again with a second crash armed at each wal.append hit
// inside that restart (the log and disk keep the injector across a
// restart), followed by a second restart held to the same invariants:
// forward completion is the live unit's own code and must be idempotent
// under a crash of its own.
//
// The workload is strictly single-goroutine so the hit sequence is
// deterministic: "concurrent" updates are injected from the
// reorganizer's OnEvent hook at stages where the reorganizer holds no
// lock that the update needs (pass3.base targets keys in bases already
// read; pass3.built runs after every base has been read, so updates
// flow through the side file).
//
// Hits during repro.Open (initial formatting of a fresh database) are
// excluded: a crash before Open returns leaves no database to recover.
// Torn crashes are armed only at wal.force (the log tail tears at a
// record boundary after Log.Crash truncation); torn data pages would
// need full-page writes to recover, which the storage layer does not
// implement (documented in DESIGN.md).
//
// With Config.CheckpointEvery set, the log's automatic-checkpoint
// interval is lowered to that many bytes, so commits in the script take
// automatic checkpoints, and the reorganizer's event hook takes one at
// every stage where one is due — as a concurrent committer would inside
// a unit or a pass 3. Crash schedules then land inside checkpoints (the
// pager flush, disk.write, the checkpoint append and force, and on the
// file backend each wal.truncate segment deletion) and after
// checkpoints whose redo point lies inside a unit or a pass 3.
//
// With Config.Daemon set, the sweep runs a second workload shape: the
// explicit reorganization passes are replaced by harness-driven ticks
// of the autonomous daemon (manual mode) drained to quiescence between
// update waves. The hit trace then includes daemon.tick and
// daemon.unit.start plus every pass-1 unit fault point reached from a
// daemon-initiated slice, and a crash is armed at each — so recovery
// is verified when the reorganization in flight was the daemon's
// decision, not a test's.
package sweep

import (
	"bytes"
	"fmt"
	"os"
	"sort"

	"repro"
	"repro/internal/daemon"
	"repro/internal/fault"
	"repro/internal/metrics"
	"repro/internal/workload"
)

// Config sizes the sweep. The zero value gets usable defaults.
type Config struct {
	// Records loaded before sparsification (default 48).
	Records int
	// ValueSize in bytes per record (default 40).
	ValueSize int
	// PageSize of the database (default 512, the smallest size whose
	// value limit admits the 40-byte payloads; small pages keep the
	// workload short while still building a multi-level tree).
	PageSize int
	// BufferPool caps resident frames (default 4; a small pool forces
	// evictions so pager.evict, pager.flush and disk.read are
	// exercised continuously).
	BufferPool int
	// KeepEvery keeps every KeepEvery-th record at sparsification
	// (default 3: ~33% occupancy, the paper's sparse regime).
	KeepEvery int
	// Seed for the injector RNG (default 1; the sweep itself arms only
	// deterministic crash schedules).
	Seed int64
	// Stride crashes at every Stride-th hit (default 1 = every hit).
	Stride int
	// Torn additionally re-runs every wal.force hit with a torn log
	// tail (default true when Stride == 1 semantics are wanted; set by
	// callers explicitly).
	Torn bool
	// MaxRuns caps the number of crash runs (0 = unlimited).
	MaxRuns int
	// SecondCrashStride arms the second crash of the double-crash leg at
	// every SecondCrashStride-th wal.append hit inside a restart that
	// completes a unit or cleans up a pass 3 (default 1 = every hit).
	SecondCrashStride int
	// Backend selects the storage backend: "mem" (default) or "file".
	// The file backend gives every run a fresh directory under Dir, so
	// each crash recovers against real page and segment files.
	Backend string
	// Dir is the parent directory for file-backend run directories
	// (default: the OS temp dir).
	Dir string
	// WALSegmentBytes overrides the file backend's WAL rotation
	// threshold (0 keeps the default); small values make the sweep
	// cross segment boundaries constantly.
	WALSegmentBytes int64
	// CheckpointEvery, when > 0, lowers the log's automatic-checkpoint
	// interval to this many bytes and has the reorganizer's event hook
	// checkpoint whenever one is due (pass workload only).
	CheckpointEvery int64
	// Daemon switches the workload to the autonomous-daemon shape: the
	// explicit reorganization passes are replaced by manual daemon
	// ticks drained to quiescence, so crash schedules land inside
	// daemon-initiated increments and at the daemon's own fault points.
	Daemon bool
	// Logf receives progress output (nil = silent).
	Logf func(format string, args ...any)
}

func (c Config) withDefaults() Config {
	if c.Records <= 0 {
		c.Records = 96
	}
	if c.ValueSize <= 0 {
		c.ValueSize = 40
	}
	if c.PageSize <= 0 {
		c.PageSize = 512
	}
	if c.BufferPool <= 0 {
		c.BufferPool = 4
	}
	if c.KeepEvery <= 0 {
		c.KeepEvery = 3
	}
	if c.Seed == 0 {
		c.Seed = 1
	}
	if c.Stride <= 0 {
		c.Stride = 1
	}
	if c.SecondCrashStride <= 0 {
		c.SecondCrashStride = 1
	}
	if c.Backend == "" {
		c.Backend = "mem"
	}
	return c
}

// Result summarises a sweep.
type Result struct {
	// TotalHits is the number of fault-point hits enumerated in the
	// scripted workload (after Open).
	TotalHits int
	// Points is the sorted set of distinct fault points hit.
	Points []string
	// CrashRuns and TornRuns count the crash re-runs performed;
	// DoubleCrashRuns those of them that crashed again inside restart.
	CrashRuns       int
	TornRuns        int
	DoubleCrashRuns int
	// ForwardCompleted counts restarts that finished an in-flight
	// reorganization unit forward; Pass3Abandoned/Pass3Completed count
	// the two pass-3 reconciliation outcomes.
	ForwardCompleted int
	Pass3Abandoned   int
	Pass3Completed   int
	// AutoCheckpoints counts the automatic checkpoints commits took in
	// the enumeration run; HookCheckpoints the checkpoints its event hook
	// took inside units and pass 3 (both zero without CheckpointEvery).
	AutoCheckpoints int
	HookCheckpoints int
}

// op is one scripted mutation, tracked for crash-atomicity checking.
type op struct {
	kind string // "insert", "update", "delete"
	key  string
	val  string
}

// script is one deterministic execution of the workload plus the
// committed-state model used to verify recovery.
type script struct {
	cfg Config
	db  *repro.DB
	// dir is the run's database directory (file backend; "" for mem).
	dir string
	// model holds exactly the committed (acknowledged) records.
	model map[string]string
	// pending is the mutation in flight; at a crash it is ambiguous
	// (fully applied or fully absent) and checked as such.
	pending *op
	// hookCkpts counts the checkpoints taken from the event hook.
	hookCkpts int
}

func newScript(cfg Config, inj *fault.Injector) (*script, error) {
	opts := repro.Options{
		PageSize:        cfg.PageSize,
		BufferPoolPages: cfg.BufferPool,
		FaultInjector:   inj,
		WALSegmentBytes: cfg.WALSegmentBytes,
	}
	if cfg.Daemon {
		dcfg := daemon.DefaultConfig()
		dcfg.Manual = true
		dcfg.Ranges = 8
		dcfg.UnitsPerTick = 4
		dcfg.MinLeaves = 2
		opts.Daemon = &dcfg
	}
	var dir string
	if cfg.Backend == "file" {
		var err error
		dir, err = os.MkdirTemp(cfg.Dir, "sweep-run-")
		if err != nil {
			return nil, fmt.Errorf("sweep: run dir: %w", err)
		}
		opts.Dir = dir
	}
	db, err := repro.Open(opts)
	if err != nil {
		if dir != "" {
			os.RemoveAll(dir)
		}
		return nil, err
	}
	if cfg.CheckpointEvery > 0 {
		db.Tree().Log().SetCheckpointInterval(cfg.CheckpointEvery)
	}
	return &script{cfg: cfg, db: db, dir: dir, model: make(map[string]string)}, nil
}

// cleanup closes the run's database (releasing file descriptors — a
// sweep performs hundreds of runs) and deletes its directory. Errors
// are discarded: the run's verdict has already been decided.
func (s *script) cleanup() {
	_ = s.db.Close()
	if s.dir != "" {
		_ = os.RemoveAll(s.dir)
	}
}

func (s *script) key(i int) string { return string(workload.Key(i)) }

// val derives a value for key i; gen distinguishes successive updates.
func (s *script) val(i, gen int) string {
	return string(workload.Value(i+gen*1_000_000, s.cfg.ValueSize))
}

func (s *script) insert(i, gen int) error {
	k, v := s.key(i), s.val(i, gen)
	s.pending = &op{kind: "insert", key: k, val: v}
	if err := s.db.Insert([]byte(k), []byte(v)); err != nil {
		return fmt.Errorf("insert %s: %w", k, err)
	}
	s.model[k] = v
	s.pending = nil
	return nil
}

func (s *script) update(i, gen int) error {
	k, v := s.key(i), s.val(i, gen)
	s.pending = &op{kind: "update", key: k, val: v}
	if err := s.db.Update([]byte(k), []byte(v)); err != nil {
		return fmt.Errorf("update %s: %w", k, err)
	}
	s.model[k] = v
	s.pending = nil
	return nil
}

func (s *script) delete(i int) error {
	k := s.key(i)
	s.pending = &op{kind: "delete", key: k}
	if err := s.db.Delete([]byte(k)); err != nil {
		return fmt.Errorf("delete %s: %w", k, err)
	}
	delete(s.model, k)
	s.pending = nil
	return nil
}

// run executes the scripted workload: load, sparsify, checkpoint, then
// either the three explicit reorganization passes with update waves
// between them (default) or, with cfg.Daemon, daemon-tick drains in
// place of each pass.
func (s *script) run() error {
	n, every := s.cfg.Records, s.cfg.KeepEvery

	// Sparse load: insert in a stride-permuted order (so page
	// allocation order differs from key order and pass 2 has swapping
	// to do), then delete all but every KeepEvery-th record (the
	// paper's "large numbers of deletions").
	step := 7
	for step%n == 0 || gcd(step, n) != 1 {
		step++
	}
	for i := 0; i < n; i++ {
		if err := s.insert(i*step%n, 0); err != nil {
			return err
		}
	}
	for i := 0; i < n; i++ {
		if i%every == 0 {
			continue
		}
		if err := s.delete(i); err != nil {
			return err
		}
	}
	if err := s.db.Checkpoint(); err != nil {
		return fmt.Errorf("checkpoint: %w", err)
	}

	if s.cfg.Daemon {
		return s.runDaemon()
	}
	return s.runPasses()
}

// runDaemon is the autonomous-daemon workload shape: each explicit
// pass of runPasses becomes "tick the manual daemon until the policy
// goes idle", with the same update waves in between. The daemon runs
// pass 1 only, so there is no OnEvent hook to ride — the waves apply
// directly, and the drains decide for themselves how many increments
// the tree needs.
func (s *script) runDaemon() error {
	n, every := s.cfg.Records, s.cfg.KeepEvery

	if err := s.daemonDrain("drain1"); err != nil {
		return err
	}

	// Update wave 1: high-key inserts re-grow the tail the sparsify
	// hollowed out; the delete re-opens a hole for the next drain.
	if err := s.update(0, 1); err != nil {
		return err
	}
	for i := n + 11; i < n+11+n/8; i++ {
		if err := s.insert(i, 0); err != nil {
			return err
		}
	}
	if err := s.delete(2 * every); err != nil {
		return err
	}
	if err := s.db.Checkpoint(); err != nil {
		return fmt.Errorf("mid checkpoint: %w", err)
	}
	if err := s.daemonDrain("drain2"); err != nil {
		return err
	}

	// Update wave 2.
	if err := s.update(3*every, 1); err != nil {
		return err
	}
	if err := s.insert(n+3, 0); err != nil {
		return err
	}
	if err := s.delete(4 * every); err != nil {
		return err
	}
	return s.daemonDrain("drain3")
}

// daemonDrain ticks the manual daemon until three consecutive ticks
// run no increment. An armed crash panics out of Tick into the
// caller's fault.Catch like any other scripted operation.
func (s *script) daemonDrain(name string) error {
	idle := 0
	for ticks := 0; idle < 3; ticks++ {
		if ticks > 300 {
			return fmt.Errorf("%s: daemon never went idle within %d ticks", name, ticks)
		}
		d := s.db.Daemon()
		before := d.Metrics().Get(metrics.DaemonIncrements)
		if err := d.Tick(); err != nil {
			return fmt.Errorf("%s: %w", name, err)
		}
		if d.Metrics().Get(metrics.DaemonIncrements) == before {
			idle++
		} else {
			idle = 0
		}
	}
	return nil
}

// runPasses is the explicit-reorganization workload shape.
func (s *script) runPasses() error {
	n, every := s.cfg.Records, s.cfg.KeepEvery

	// Pass-3 update bursts fire from the reorganizer's event hook.
	// pass3.base: the current base's S lock is already released when the
	// event fires (only the *next*, higher-keyed base is still locked),
	// so updates to the lowest keys cannot block against the
	// reorganizer. pass3.built: every base has been read; updates flow
	// through the side file and exercise catch-up and the final drain.
	var burstBase, burstBuilt bool
	rcfg := repro.DefaultReorgConfig()
	rcfg.OnEvent = func(stage string) error {
		if s.cfg.CheckpointEvery > 0 && s.db.Tree().Log().CheckpointDue() {
			if err := s.db.Checkpoint(); err != nil {
				return fmt.Errorf("checkpoint at %s: %w", stage, err)
			}
			s.hookCkpts++
		}
		switch stage {
		case "pass3.base":
			if burstBase {
				return nil
			}
			burstBase = true
			// Re-insert sparsified low keys: the compacted first leaf is
			// near the target fill, so these force a leaf split whose
			// new base entry must flow through the side file.
			for _, i := range []int{1, 2, 4, 5} {
				if err := s.insert(i, 0); err != nil {
					return err
				}
			}
			return s.update(0, 2)
		case "pass3.built":
			if burstBuilt {
				return nil
			}
			burstBuilt = true
			// High-key inserts past the last leaf: splits here append
			// side-file entries that only the final drain can apply.
			for i := n + 5; i < n+11; i++ {
				if err := s.insert(i, 0); err != nil {
					return err
				}
			}
			if err := s.delete(6 * every); err != nil {
				return err
			}
			return s.update(9*every, 1)
		}
		return nil
	}
	r := s.db.Reorganizer(rcfg)

	if err := r.CompactLeaves(); err != nil {
		return fmt.Errorf("pass1: %w", err)
	}
	// Update wave 1: between passes the reorganizer holds no locks.
	// The high-key insert burst deliberately consumes the free pages
	// that pass 1 released: the new (high-keyed) leaves land on low
	// page ids, so pass 2 finds leaves out of key order with no free
	// slots below them and must use Swap units, not just Moves.
	if err := s.update(0, 1); err != nil {
		return err
	}
	for i := n + 11; i < n+11+n/8; i++ {
		if err := s.insert(i, 0); err != nil {
			return err
		}
	}
	if err := s.delete(2 * every); err != nil {
		return err
	}
	if err := s.db.Checkpoint(); err != nil {
		return fmt.Errorf("mid checkpoint: %w", err)
	}

	if err := r.SwapLeaves(); err != nil {
		return fmt.Errorf("pass2: %w", err)
	}
	// Update wave 2.
	if err := s.update(3*every, 1); err != nil {
		return err
	}
	if err := s.insert(n+3, 0); err != nil {
		return err
	}
	if err := s.delete(4 * every); err != nil {
		return err
	}

	if err := r.RebuildInternal(); err != nil {
		return fmt.Errorf("pass3: %w", err)
	}
	return nil
}

// verify asserts the recovery invariants against the committed-state
// model after Restart.
func (s *script) verify() error {
	if err := s.db.Check(); err != nil {
		return fmt.Errorf("tree check failed: %w", err)
	}

	got := make(map[string]string)
	var prev []byte
	var orderErr error
	err := s.db.Scan([]byte(""), nil, func(k, v []byte) bool {
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

	pend := s.pending
	// Committed-data durability: every acknowledged record is readable
	// with exactly its committed value.
	for k, v := range s.model {
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
		if _, ok := s.model[k]; ok {
			continue
		}
		if pend != nil && pend.key == k && pend.kind == "insert" {
			if gv != pend.val {
				return fmt.Errorf("pending insert %q: got %q, want %q or absence", k, gv, pend.val)
			}
			continue
		}
		return fmt.Errorf("uncommitted key %q survived the crash", k)
	}
	// Crash atomicity of the operation in flight: fully applied or
	// fully absent, never a mixture.
	if pend != nil {
		gv, present := got[pend.key]
		switch pend.kind {
		case "insert":
			// absence or the new value; both checked above
		case "update":
			old := s.model[pend.key]
			if !present {
				return fmt.Errorf("pending update lost key %q entirely", pend.key)
			}
			if gv != old && gv != pend.val {
				return fmt.Errorf("pending update %q: got %q, want %q or %q",
					pend.key, gv, old, pend.val)
			}
		case "delete":
			if present && gv != s.model[pend.key] {
				return fmt.Errorf("pending delete %q: surviving value %q != committed %q",
					pend.key, gv, s.model[pend.key])
			}
		}
	}

	// Liveness probe: the recovered database accepts new work.
	probeK, probeV := []byte("zz-probe"), []byte("probe-value")
	if err := s.db.Insert(probeK, probeV); err != nil {
		return fmt.Errorf("probe insert: %w", err)
	}
	v, err := s.db.Get(probeK)
	if err != nil || !bytes.Equal(v, probeV) {
		return fmt.Errorf("probe get: %w (val %q)", err, v)
	}
	if err := s.db.Delete(probeK); err != nil {
		return fmt.Errorf("probe delete: %w", err)
	}
	return nil
}

// Enumerate runs the scripted workload once under a tracing injector
// and returns the post-Open hit trace (hit i of the sweep is
// trace[i-1]).
func Enumerate(cfg Config) ([]string, error) {
	res, err := enumerate(cfg.withDefaults())
	if err != nil {
		return nil, err
	}
	return res.trace, nil
}

// enumeration is what the clean run of the script yields.
type enumeration struct {
	trace                []string
	autoCkpts, hookCkpts int
}

func enumerate(cfg Config) (*enumeration, error) {
	inj := fault.New(cfg.Seed)
	s, err := newScript(cfg, inj)
	if err != nil {
		return nil, err
	}
	defer s.cleanup()
	inj.StartTrace()
	if err := s.run(); err != nil {
		return nil, fmt.Errorf("enumeration run: %w", err)
	}
	res := &enumeration{trace: inj.StopTrace(), hookCkpts: s.hookCkpts,
		autoCkpts: int(s.db.PerfCounters().Get(metrics.CkptAuto))}
	// The clean run must itself satisfy the invariants.
	if err := s.verify(); err != nil {
		return nil, fmt.Errorf("enumeration run verify: %w", err)
	}
	return res, nil
}

// Run performs the full sweep and returns its summary. The first
// failing crash index aborts the sweep with a descriptive error.
func Run(cfg Config) (*Result, error) {
	cfg = cfg.withDefaults()
	en, err := enumerate(cfg)
	if err != nil {
		return nil, err
	}
	trace := en.trace
	res := &Result{TotalHits: len(trace), Points: distinct(trace),
		AutoCheckpoints: en.autoCkpts, HookCheckpoints: en.hookCkpts}
	if cfg.Logf != nil {
		cfg.Logf("sweep: %d hits across %d fault points", len(trace), len(res.Points))
	}

	for i := 1; i <= len(trace); i += cfg.Stride {
		if cfg.MaxRuns > 0 && res.CrashRuns+res.TornRuns >= cfg.MaxRuns {
			if cfg.Logf != nil {
				cfg.Logf("sweep: stopping at MaxRuns=%d (hit %d/%d)", cfg.MaxRuns, i, len(trace))
			}
			break
		}
		appends, err := runOne(cfg, i, false, 0, res)
		if err != nil {
			return res, fmt.Errorf("crash at hit %d (%s): %w", i, trace[i-1], err)
		}
		res.CrashRuns++
		for k := int64(1); k <= appends; k += int64(cfg.SecondCrashStride) {
			if _, err := runOne(cfg, i, false, k, nil); err != nil {
				return res, fmt.Errorf("crash at hit %d (%s), then at wal.append %d of the restart: %w",
					i, trace[i-1], k, err)
			}
			res.DoubleCrashRuns++
		}
		if cfg.Torn && trace[i-1] == fault.WALForce {
			if _, err := runOne(cfg, i, true, 0, res); err != nil {
				return res, fmt.Errorf("torn crash at hit %d (%s): %w", i, trace[i-1], err)
			}
			res.TornRuns++
		}
		if cfg.Logf != nil && res.CrashRuns%100 == 0 {
			cfg.Logf("sweep: %d/%d crash points verified", i, len(trace))
		}
	}
	return res, nil
}

// runOne re-runs the script with a crash armed at the given post-Open
// hit index, then restarts and verifies. With second > 0 that restart
// is itself crashed, at its second-th wal.append hit, and it is the
// restart after that one which must satisfy the invariants. The outcome
// is tallied into res (nil: not tallied); the return value is how many
// wal.append hits a restart made that completed a unit or cleaned up a
// pass 3 — the second-crash schedules of this hit — and 0 for any
// other restart.
func runOne(cfg Config, hit int, torn bool, second int64, res *Result) (int64, error) {
	inj := fault.New(cfg.Seed)
	s, err := newScript(cfg, inj) // Open runs uninjected (nothing armed)
	if err != nil {
		return 0, fmt.Errorf("open: %w", err)
	}
	defer func() {
		inj.Disarm() // cleanup's Close must not trip a still-armed crash
		s.cleanup()
	}()
	inj.ArmCrashAtSeq(inj.Seq()+int64(hit), torn)
	crash, err := fault.Catch(s.run)
	if err != nil {
		return 0, fmt.Errorf("script failed before the armed crash: %w", err)
	}
	if crash == nil {
		return 0, fmt.Errorf("script completed without reaching hit %d", hit)
	}
	inj.Disarm() // recovery must not be re-injected
	s.db.Crash()
	if second > 0 {
		inj.Arm(fault.WALAppend, fault.Schedule{Kind: fault.KindCrash,
			OnHit: inj.HitCounts()[fault.WALAppend] + second})
		crash, err := fault.Catch(func() error {
			_, err := s.db.Restart()
			return err
		})
		if err != nil {
			return 0, fmt.Errorf("restart failed before its armed crash: %w", err)
		}
		if crash == nil {
			return 0, fmt.Errorf("restart completed without reaching its wal.append hit %d", second)
		}
		inj.Disarm()
		s.db.Crash()
	}
	before := inj.HitCounts()[fault.WALAppend]
	info, err := s.db.Restart()
	if err != nil {
		return 0, fmt.Errorf("restart: %w", err)
	}
	var appends int64
	if info.UnitCompleted || info.Pass3Abandoned || info.Pass3Completed {
		appends = inj.HitCounts()[fault.WALAppend] - before
	}
	if res != nil {
		if info.UnitCompleted {
			res.ForwardCompleted++
		}
		if info.Pass3Abandoned {
			res.Pass3Abandoned++
		}
		if info.Pass3Completed {
			res.Pass3Completed++
		}
	}
	return appends, s.verify()
}

func gcd(a, b int) int {
	for b != 0 {
		a, b = b, a%b
	}
	return a
}

func distinct(trace []string) []string {
	set := make(map[string]struct{})
	for _, p := range trace {
		set[p] = struct{}{}
	}
	out := make([]string, 0, len(set))
	for p := range set {
		out = append(out, p)
	}
	sort.Strings(out)
	return out
}
