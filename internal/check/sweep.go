package check

import (
	"fmt"
	"sort"
	"sync"

	"repro"
	"repro/internal/core"
	"repro/internal/fault"
	"repro/internal/metrics"
	"repro/internal/workload"
)

// The exhaustive crash-schedule sweep (E5b): a scripted sparse-load →
// update → reorganize program is run once under a tracing injector to
// enumerate every post-open fault-point hit, then once per hit with a
// crash armed at exactly that hit. After each crash the driver restarts
// the database and verify holds it to the committed-state model: the
// structure oracle, every committed key readable with its committed
// value, no uncommitted key, the operation in flight fully applied or
// fully absent, and a liveness probe. A reorganization unit in flight
// must be fully absent or fully forward-completed, which the first
// four imply.
//
// Every schedule whose restart forward-completes a unit or cleans up a
// pass 3 is then run again with a second crash armed at each wal.append
// hit inside that restart, followed by a second restart held to the
// same invariants: forward completion is the live unit's own code and
// must be idempotent under a crash of its own.
//
// The program is strictly single-goroutine so the hit sequence is
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
// implement (DESIGN.md §8).

const (
	sweepRecords   = 96 // loaded before sparsification
	sweepValueSize = 40
	// sweepPool is small so that pager.evict, pager.flush and disk.read
	// are exercised continuously.
	sweepPool = 4
)

// SweepConfig shapes a sweep. The zero value crashes every hit of the
// passes program once, in memory.
type SweepConfig struct {
	// Stride crashes at every Stride-th hit (default 1 = every hit).
	Stride int
	// Torn additionally re-runs every wal.force hit with a torn log tail.
	Torn bool
	// MaxRuns caps the number of crash runs (0 = unlimited).
	MaxRuns int
	// SecondCrashStride arms the second crash at every
	// SecondCrashStride-th wal.append hit inside a restart that completes
	// a unit or cleans up a pass 3 (default 1 = every hit).
	SecondCrashStride int
	// Dir, when set, puts every run on the file backend, in a fresh
	// directory under Dir, so each crash recovers against real page and
	// segment files.
	Dir string
	// WALSegmentBytes overrides the file backend's WAL rotation
	// threshold (0 keeps the default); small values make the sweep
	// cross segment boundaries constantly.
	WALSegmentBytes int64
	// CheckpointEvery, when > 0, lowers the log's automatic-checkpoint
	// interval to this many bytes and has the reorganizer's event hook
	// checkpoint whenever one is due, as a concurrent committer would
	// inside a unit or a pass 3 (passes program only). Crashes then
	// land inside checkpoints (the pager flush, disk.write, the
	// checkpoint append and force, and on the file backend each
	// wal.truncate segment deletion) and after checkpoints whose redo
	// point lies inside a unit or a pass 3.
	CheckpointEvery int64
	// Daemon replaces the explicit reorganization passes with manual
	// daemon ticks drained to quiescence, so crashes land inside
	// daemon-initiated increments and at the daemon's own fault points
	// (daemon.tick, daemon.unit.start): recovery is verified when the
	// reorganization in flight was the daemon's decision.
	Daemon bool
	// Logf receives progress output (nil = silent).
	Logf func(format string, args ...any)
}

func (c SweepConfig) withDefaults() SweepConfig {
	c.Stride = max(c.Stride, 1)
	c.SecondCrashStride = max(c.SecondCrashStride, 1)
	if c.Logf == nil {
		c.Logf = func(string, ...any) {}
	}
	return c
}

// SweepResult summarises a sweep.
type SweepResult struct {
	// TotalHits is the number of post-open fault-point hits of the
	// program.
	TotalHits int
	// Points is the sorted set of distinct fault points hit.
	Points []string
	// CrashRuns and TornRuns count the crash runs performed;
	// DoubleCrashRuns those that crashed again inside restart.
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

// add tallies one crash run's restart into res.
func (res *SweepResult) add(info *repro.RestartInfo) {
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

// script is one execution of the sweep program plus the
// committed-state model it is verified against.
type script struct {
	*run
	cfg SweepConfig
	// model holds exactly the committed (acknowledged) records.
	model map[string]string
	// pending is the mutation in flight; at a crash it is ambiguous
	// (fully applied or fully absent) and verified as such.
	pending   *op
	reorg     *core.Reorganizer // the passes program's reorganizer
	hookCkpts int               // checkpoints taken from the event hook
	// burstBase and burstBuilt mark the pass-3 update bursts as done.
	burstBase, burstBuilt bool
}

func newScript(cfg SweepConfig) (*script, error) {
	// The injector's seed only drives probabilistic schedules, which
	// the sweep never arms.
	r, err := open(dbConfig{dir: cfg.Dir, pool: sweepPool, walSeg: cfg.WALSegmentBytes,
		checkpoint: cfg.CheckpointEvery, daemon: cfg.Daemon}, fault.New(1))
	if err != nil {
		return nil, err
	}
	return &script{run: r, cfg: cfg, model: make(map[string]string)}, nil
}

// do applies one mutation of key i (gen distinguishes successive
// values), in flight until it is acknowledged.
func (s *script) do(kind string, i, gen int) error {
	o := &op{kind: kind, key: string(workload.Key(i)), val: string(ValueFor(i, gen, sweepValueSize))}
	s.pending = o
	var err error
	switch kind {
	case "insert":
		err = s.db.Insert([]byte(o.key), []byte(o.val))
	case "update":
		err = s.db.Update([]byte(o.key), []byte(o.val))
	case "delete":
		err = s.db.Delete([]byte(o.key))
	}
	if err != nil {
		return fmt.Errorf("%s %s: %w", kind, o.key, err)
	}
	if kind == "delete" {
		delete(s.model, o.key)
	} else {
		s.model[o.key] = o.val
	}
	s.pending = nil
	return nil
}

func (s *script) insert(i, gen int) error { return s.do("insert", i, gen) }
func (s *script) update(i, gen int) error { return s.do("update", i, gen) }
func (s *script) delete(i int) error      { return s.do("delete", i, 0) }

// steps is the sweep program: a sparse load, then three reorganizations
// with update waves between them — the explicit passes, or with
// cfg.Daemon daemon drains in their place. The daemon runs pass 1 only,
// so it has no pass-3 hook to ride and the drains decide for themselves
// how many increments the tree needs.
func (s *script) steps() []step {
	reorg := []step{{"drain1", s.drain}, {"drain2", s.drain}, {"drain3", s.drain}}
	if !s.cfg.Daemon {
		reorg = []step{
			{"pass1", func() error {
				s.reorg = s.db.Reorganizer(s.reorgConfig())
				return s.reorg.CompactLeaves()
			}},
			{"pass2", func() error { return s.reorg.SwapLeaves() }},
			{"pass3", func() error { return s.reorg.RebuildInternal() }},
		}
	}
	return []step{
		{"load", s.load},
		reorg[0],
		{"wave1", s.wave1},
		reorg[1],
		{"wave2", s.wave2},
		reorg[2],
	}
}

// load inserts in a stride-permuted order (so page allocation order
// differs from key order and pass 2 has swapping to do), then deletes
// all but every keepEvery-th record (the paper's "large numbers of
// deletions") and checkpoints.
func (s *script) load() error {
	n := sweepRecords
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
		if i%keepEvery == 0 {
			continue
		}
		if err := s.delete(i); err != nil {
			return err
		}
	}
	return s.db.Checkpoint()
}

// wave1 runs between the first two reorganizations, which hold no
// locks then. The high-key insert burst deliberately consumes the free
// pages that pass 1 released: the new (high-keyed) leaves land on low
// page ids, so pass 2 finds leaves out of key order with no free slots
// below them and must use Swap units, not just Moves. The delete
// re-opens a hole for the next reorganization.
func (s *script) wave1() error {
	n := sweepRecords
	if err := s.update(0, 1); err != nil {
		return err
	}
	for i := n + 11; i < n+11+n/8; i++ {
		if err := s.insert(i, 0); err != nil {
			return err
		}
	}
	if err := s.delete(2 * keepEvery); err != nil {
		return err
	}
	return s.db.Checkpoint()
}

func (s *script) wave2() error {
	if err := s.update(3*keepEvery, 1); err != nil {
		return err
	}
	if err := s.insert(sweepRecords+3, 0); err != nil {
		return err
	}
	return s.delete(4 * keepEvery)
}

// reorgConfig fires the pass-3 update bursts from the reorganizer's
// event hook. pass3.base: the current base's S lock is already released
// when the event fires (only the next, higher-keyed base is still
// locked), so updates to the lowest keys cannot block against the
// reorganizer. pass3.built: every base has been read; updates flow
// through the side file and exercise catch-up and the final drain.
func (s *script) reorgConfig() repro.ReorgConfig {
	rcfg := repro.DefaultReorgConfig()
	rcfg.OnEvent = func(stage string) error {
		if s.cfg.CheckpointEvery > 0 && s.db.Tree().Log().CheckpointDue() {
			if err := s.db.Checkpoint(); err != nil {
				return fmt.Errorf("checkpoint at %s: %w", stage, err)
			}
			s.hookCkpts++
		}
		switch {
		case stage == "pass3.base" && !s.burstBase:
			s.burstBase = true
			// Re-insert sparsified low keys: the compacted first leaf is
			// near the target fill, so these force a leaf split whose
			// new base entry must flow through the side file.
			for _, i := range []int{1, 2, 4, 5} {
				if err := s.insert(i, 0); err != nil {
					return err
				}
			}
			return s.update(0, 2)
		case stage == "pass3.built" && !s.burstBuilt:
			s.burstBuilt = true
			// High-key inserts past the last leaf: splits here append
			// side-file entries that only the final drain can apply.
			for i := sweepRecords + 5; i < sweepRecords+11; i++ {
				if err := s.insert(i, 0); err != nil {
					return err
				}
			}
			if err := s.delete(6 * keepEvery); err != nil {
				return err
			}
			return s.update(9*keepEvery, 1)
		}
		return nil
	}
	return rcfg
}

// crashAt runs the program crashed as c says, restarts it and verifies
// the recovered database.
func (cfg SweepConfig) crashAt(c crash) (*outcome, error) {
	s, err := newScript(cfg)
	if err != nil {
		return nil, fmt.Errorf("open: %w", err)
	}
	defer s.close()
	out, err := s.drive(s.steps(), c, false)
	if err != nil {
		return nil, err
	}
	if !out.crashed {
		return nil, fmt.Errorf("program completed without reaching hit %d", c.hit)
	}
	if err := verify(s.db, s.model, s.pending); err != nil {
		return nil, err
	}
	return out, nil
}

// enumerate runs the program once, uncrashed, under a tracing injector.
// It returns the hit trace (hit i of the sweep is trace[i-1]) and a
// result holding what the clean run counts.
func (cfg SweepConfig) enumerate() ([]string, *SweepResult, error) {
	s, err := newScript(cfg)
	if err != nil {
		return nil, nil, err
	}
	defer s.close()
	s.inj.StartTrace()
	_, err = s.drive(s.steps(), crash{}, false)
	trace := s.inj.StopTrace()
	if err != nil {
		return nil, nil, fmt.Errorf("enumeration run: %w", err)
	}
	res := &SweepResult{TotalHits: len(trace), Points: distinct(trace), HookCheckpoints: s.hookCkpts,
		AutoCheckpoints: int(s.db.PerfCounters().Get(metrics.CkptAuto))}
	// The clean run must itself satisfy the invariants.
	if err := verify(s.db, s.model, nil); err != nil {
		return nil, nil, fmt.Errorf("enumeration run verify: %w", err)
	}
	return trace, res, nil
}

// Sweep performs the sweep and returns its summary. A failure is
// reported at the lowest failing hit.
func Sweep(cfg SweepConfig) (*SweepResult, error) {
	cfg = cfg.withDefaults()
	trace, res, err := cfg.enumerate()
	if err != nil {
		return nil, err
	}
	cfg.Logf("sweep: %d hits across %d fault points", len(trace), len(res.Points))

	var hits []int
	for i, runs := 1, 0; i <= len(trace); i += cfg.Stride {
		if cfg.MaxRuns > 0 && runs >= cfg.MaxRuns {
			cfg.Logf("sweep: stopping at MaxRuns=%d (hit %d/%d)", cfg.MaxRuns, i, len(trace))
			break
		}
		hits = append(hits, i)
		runs++
		if cfg.Torn && trace[i-1] == fault.WALForce {
			runs++
		}
	}
	var mu sync.Mutex
	err = parallel(len(hits), func(j int) error {
		var t SweepResult
		err := cfg.sweepHit(hits[j], trace[hits[j]-1], &t)
		mu.Lock()
		defer mu.Unlock()
		res.CrashRuns += t.CrashRuns
		res.TornRuns += t.TornRuns
		res.DoubleCrashRuns += t.DoubleCrashRuns
		res.ForwardCompleted += t.ForwardCompleted
		res.Pass3Abandoned += t.Pass3Abandoned
		res.Pass3Completed += t.Pass3Completed
		if err == nil && res.CrashRuns%100 == 0 {
			cfg.Logf("sweep: %d/%d crash points verified", res.CrashRuns, len(hits))
		}
		return err
	})
	return res, err
}

// sweepHit runs every schedule of one hit: the crash at hit; when its
// restart completed a unit or cleaned up a pass 3, the same crash plus a
// second one at every SecondCrashStride-th wal.append of that restart;
// and at a wal.force, the crash with a torn log tail. The runs are
// tallied into t.
func (cfg SweepConfig) sweepHit(hit int, point string, t *SweepResult) error {
	out, err := cfg.crashAt(crash{hit: hit})
	if err != nil {
		return fmt.Errorf("crash at hit %d (%s): %w", hit, point, err)
	}
	t.CrashRuns++
	t.add(out.info)
	for k := int64(1); k <= out.appends; k += int64(cfg.SecondCrashStride) {
		if _, err := cfg.crashAt(crash{hit: hit, second: k}); err != nil {
			return fmt.Errorf("crash at hit %d (%s), then at wal.append %d of the restart: %w",
				hit, point, k, err)
		}
		t.DoubleCrashRuns++
	}
	if cfg.Torn && point == fault.WALForce {
		out, err := cfg.crashAt(crash{hit: hit, torn: true})
		if err != nil {
			return fmt.Errorf("torn crash at hit %d (%s): %w", hit, point, err)
		}
		t.TornRuns++
		t.add(out.info)
	}
	return nil
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
