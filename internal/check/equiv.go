package check

import (
	"errors"
	"fmt"
	"sync"

	"repro"
	"repro/internal/fault"
	"repro/internal/metrics"
	"repro/internal/storage"
	"repro/internal/workload"
)

// EquivConfig shapes one equivalence experiment: the same seeded,
// idempotent mutation program is executed on a database that
// reorganizes mid-stream (optionally crashing at a chosen fault-point
// hit and recovering forward) and on a reference database that never
// reorganizes. Each must end with exactly the program's records and
// pass the driver's verify, structure oracle included.
type EquivConfig struct {
	Seed int64
	// CrashHit > 0 arms a crash at exactly that post-Open fault-point
	// hit of the reorganizing run; the run then restarts, recovers and
	// resumes the program. Use EquivHits to learn the schedule size.
	CrashHit int
	// Dir, when non-empty, runs every database on the file backend,
	// each in a fresh directory created under Dir (real page file +
	// WAL segments; crashes recover by re-scanning them).
	Dir string
	// Daemon adds a third arm: the same program on a database whose
	// reorganization is driven by the autonomous daemon (manual ticks,
	// pacing off) instead of explicit passes. CrashHit then arms the
	// crash on the daemon arm — including at daemon-initiated unit
	// boundaries — and the manual arm runs clean; the side-file
	// assertion stays on the manual arm (the daemon runs pass 1 only).
	Daemon bool
}

const (
	equivRecords    = 240 // initial sequential load
	equivSegOps     = 40  // mutations per segment, 2 segments
	equivCatchupOps = 16  // mutations injected at pass3.built
	equivValueSize  = 24
	equivPool       = 8 // resident frames
)

// EquivResult reports what one experiment did.
type EquivResult struct {
	Crashed     bool   // the armed crash fired
	SideApplied int64  // side-file entries replayed into the new tree
	Records     int    // final record count (every database)
	CrashPoint  string // fault point the armed crash fired at
	CrashStep   string // program step that was interrupted
	DaemonUnits int64  // reorg units the daemon arm ran (Daemon only)
}

// program is the pure, pre-generated op list: everything the run does
// is derived from the seed BEFORE execution, so a crashed run can
// resume by re-running its interrupted step — every mutation is an
// idempotent upsert or a tolerant delete.
type program struct {
	seg1, catch, seg2 []workload.Op
	want              map[string]string // the records the program leaves
}

func buildProgram(seed int64) *program {
	keySpace := equivRecords + equivRecords/2 // headroom: puts create new keys
	g := workload.NewOpGen(seed, keySpace, workload.OpMix{PutPct: 55, DeletePct: 45})
	p := &program{
		seg1:  g.Take(equivSegOps),
		catch: g.Take(equivCatchupOps),
		seg2:  g.Take(equivSegOps),
	}
	// Remap the leading catch-up ops to fresh, ascending high keys: they
	// all land in the tree's last leaf, and enough of them overflow one
	// page no matter how empty the compaction remainder left it — so at
	// least one split (a base change) is guaranteed to flow through the
	// side file on every seed.
	splitNeed := min((pageSize-storage.HeaderSize)/(equivValueSize+20)+2, len(p.catch))
	for i := 0; i < splitNeed; i++ {
		p.catch[i].Kind = workload.OpPut
		p.catch[i].Key = keySpace + i
	}
	p.want = p.model()
	return p
}

// applyOp executes one program op against a database. Put and Delete
// are the only kinds the equivalence mix generates; both converge when
// re-executed after a crash.
func applyOp(db *repro.DB, op workload.Op) error {
	key := workload.Key(op.Key)
	switch op.Kind {
	case workload.OpPut:
		return put(db, key, ValueFor(op.Key, op.Gen, equivValueSize))
	case workload.OpDelete:
		if err := db.Delete(key); err != nil && !errors.Is(err, repro.ErrNotFound) {
			return err
		}
		return nil
	default:
		return fmt.Errorf("check: equivalence program op %v", op.Kind)
	}
}

// model applies the whole program to a plain map — the ground truth
// every database must match.
func (p *program) model() map[string]string {
	m := make(map[string]string)
	for i := 0; i < equivRecords; i++ {
		m[string(workload.Key(i))] = string(ValueFor(i, 0, equivValueSize))
	}
	for i := 0; i < equivRecords; i++ {
		if i%keepEvery != 0 {
			delete(m, string(workload.Key(i)))
		}
	}
	for _, seg := range [][]workload.Op{p.seg1, p.catch, p.seg2} {
		for _, op := range seg {
			k := string(workload.Key(op.Key))
			switch op.Kind {
			case workload.OpPut:
				m[k] = string(ValueFor(op.Key, op.Gen, equivValueSize))
			case workload.OpDelete:
				delete(m, k)
			}
		}
	}
	return m
}

// shape is how an arm of the experiment reorganizes.
type shape int

const (
	manualShape    shape = iota // explicit passes, catch-up ops inside pass 3
	daemonShape                 // manual daemon drains after each segment
	referenceShape              // never reorganizes
)

// equivRun executes the program on one database, step by step. cursor
// tracks consumed catch-up ops across crash/restart so each is applied
// at least once and in order.
type equivRun struct {
	*run
	prog        *program
	cursor      int
	sideApplied int64
	daemonUnits int64
}

func (r *equivRun) load() error {
	for i := 0; i < equivRecords; i++ {
		if err := put(r.db, workload.Key(i), ValueFor(i, 0, equivValueSize)); err != nil {
			return fmt.Errorf("load %d: %w", i, err)
		}
	}
	return nil
}

func (r *equivRun) sparsify() error {
	for i := 0; i < equivRecords; i++ {
		if i%keepEvery == 0 {
			continue
		}
		err := r.db.Delete(workload.Key(i))
		if err != nil && !errors.Is(err, repro.ErrNotFound) {
			return fmt.Errorf("sparsify %d: %w", i, err)
		}
	}
	return r.db.Checkpoint()
}

func (r *equivRun) segment(ops []workload.Op) error {
	for _, op := range ops {
		if err := applyOp(r.db, op); err != nil {
			return err
		}
	}
	return nil
}

// applyCatchup consumes catch-up ops from the shared cursor (from the
// pass3.built hook on the manual arm; directly on the others).
func (r *equivRun) applyCatchup() error {
	for r.cursor < len(r.prog.catch) {
		if err := applyOp(r.db, r.prog.catch[r.cursor]); err != nil {
			return err
		}
		r.cursor++ // only after success: a crashed apply re-runs
	}
	return nil
}

// pass1 compacts and then audits: no adjacent pair under one base may
// be mergeable.
func (r *equivRun) pass1() error {
	rcfg := repro.DefaultReorgConfig()
	if err := r.db.Reorganizer(rcfg).CompactLeaves(); err != nil {
		return fmt.Errorf("pass1: %w", err)
	}
	rep := TreeWith(r.db, TreeOptions{MergeableFill: rcfg.TargetFill})
	if err := rep.Err(); err != nil {
		return fmt.Errorf("after pass1: %w", err)
	}
	return nil
}

// pass2 sorts leaves into disk key order and audits contiguity plus
// the seek model.
func (r *equivRun) pass2() error {
	rcfg := repro.DefaultReorgConfig()
	if err := r.db.Reorganizer(rcfg).SwapLeaves(); err != nil {
		return fmt.Errorf("pass2: %w", err)
	}
	rep := TreeWith(r.db, TreeOptions{
		MergeableFill:    rcfg.TargetFill,
		ExpectContiguous: true,
	})
	if err := rep.Err(); err != nil {
		return fmt.Errorf("after pass2: %w", err)
	}
	return nil
}

// pass3 rebuilds the internal levels while the catch-up ops run from
// the pass3.built hook — after every base has been read, so each one's
// base change flows through the side file and the drain rounds.
func (r *equivRun) pass3() error {
	rcfg := repro.DefaultReorgConfig()
	var hookErr error
	rcfg.OnEvent = func(stage string) error {
		if stage != "pass3.built" {
			return nil
		}
		if err := r.applyCatchup(); err != nil {
			hookErr = err
			return err
		}
		return nil
	}
	reorg := r.db.Reorganizer(rcfg)
	if err := reorg.RebuildInternal(); err != nil {
		if hookErr != nil {
			return fmt.Errorf("pass3 catch-up: %w", hookErr)
		}
		return fmt.Errorf("pass3: %w", err)
	}
	r.sideApplied += reorg.Metrics().Get(metrics.Pass3SideApply)
	return nil
}

// daemonDrain drains the daemon and counts the units it has run.
func (r *equivRun) daemonDrain() error {
	if err := r.drain(); err != nil {
		return err
	}
	r.daemonUnits += r.db.Daemon().Metrics().Get(metrics.DaemonUnits)
	return nil
}

// steps is the program in one shape. The daemon runs pass 1 only, so
// its arm applies the catch-up ops directly: there is no pass-3 hook to
// ride.
func (r *equivRun) steps(s shape) []step {
	load := []step{
		{"load", r.load},
		{"sparsify", r.sparsify},
		{"seg1", func() error { return r.segment(r.prog.seg1) }},
	}
	seg2 := step{"seg2", func() error { return r.segment(r.prog.seg2) }}
	switch s {
	case manualShape:
		return append(load,
			step{"pass1", r.pass1},
			step{"pass2", r.pass2},
			step{"pass3", r.pass3},
			// Safety net: if recovery abandoned pass 3 after the hook had
			// stopped firing, unconsumed catch-up ops are applied here.
			step{"catchup-rest", r.applyCatchup},
			seg2)
	case daemonShape:
		return append(load,
			step{"daemon1", r.daemonDrain},
			step{"catchup", r.applyCatchup},
			seg2,
			step{"daemon2", r.daemonDrain})
	}
	return append(load, step{"catchup", r.applyCatchup}, seg2)
}

// runArm executes the program in shape s on a fresh database crashed at
// hit (0: clean), resuming after the restart, and verifies the finished
// database against the program's records.
func runArm(cfg EquivConfig, p *program, s shape, hit int) (*equivRun, *outcome, error) {
	var inj *fault.Injector // the reference arm runs uninjected
	if s != referenceShape {
		inj = fault.New(cfg.Seed)
	}
	rn, err := open(dbConfig{dir: cfg.Dir, pool: equivPool, daemon: s == daemonShape}, inj)
	if err != nil {
		return nil, nil, err
	}
	defer rn.close()
	r := &equivRun{run: rn, prog: p}
	out, err := r.drive(r.steps(s), crash{hit: hit}, true)
	if err != nil {
		return r, out, err
	}
	return r, out, verify(r.db, p.want, nil)
}

// Equiv runs one equivalence experiment and returns its result, or an
// error describing the first divergence or invariant violation.
func Equiv(cfg EquivConfig) (*EquivResult, error) {
	p := buildProgram(cfg.Seed)
	// With the daemon arm enabled, the crash schedule moves onto it: the
	// manual arm then runs clean.
	manualHit := cfg.CrashHit
	if cfg.Daemon {
		manualHit = 0
	}
	m, out, err := runArm(cfg, p, manualShape, manualHit)
	if err != nil {
		return nil, fmt.Errorf("reorganizing run: %w", err)
	}
	res := &EquivResult{SideApplied: m.sideApplied, Records: len(p.want),
		Crashed: out.crashed, CrashPoint: out.point, CrashStep: out.step}

	// The daemon arm must match the program too, and — on clean runs —
	// have actually reorganized: a policy that never triggers on a
	// third-full tree is a broken policy, and a check that silently
	// stops checking it is worse.
	if cfg.Daemon {
		d, out, err := runArm(cfg, p, daemonShape, cfg.CrashHit)
		if err != nil {
			return nil, fmt.Errorf("daemon run: %w", err)
		}
		if cfg.CrashHit == 0 && d.daemonUnits == 0 {
			return nil, fmt.Errorf("daemon arm ran no reorganization units on a sparse tree")
		}
		res.Crashed, res.CrashPoint, res.CrashStep = out.crashed, out.point, out.step
		res.DaemonUnits = d.daemonUnits
	}

	if _, _, err := runArm(cfg, p, referenceShape, 0); err != nil {
		return nil, fmt.Errorf("reference run: %w", err)
	}

	// A clean run with catch-up traffic must actually have exercised
	// the side file — otherwise the suite silently stopped testing §7.2.
	if cfg.CrashHit == 0 && res.SideApplied == 0 {
		return nil, fmt.Errorf(
			"no side-file entries applied: catch-up ops did not reach the side file")
	}
	return res, nil
}

// EquivHits enumerates the fault-point hit count of a clean
// reorganizing run for cfg — crash schedules index into [1, hits].
// With cfg.Daemon set it enumerates the daemon arm instead, since that
// is the arm the schedules then crash.
func EquivHits(cfg EquivConfig) (int, error) {
	s := manualShape
	if cfg.Daemon {
		s = daemonShape
	}
	_, out, err := runArm(cfg, buildProgram(cfg.Seed), s, 0)
	if err != nil {
		return 0, fmt.Errorf("enumeration run: %w", err)
	}
	return int(out.hits), nil
}

// EquivSchedules runs the experiment of cfg crashed at n hits spread
// evenly over its enumerated hits, first and last included, on the
// driver's workers. It returns the hit count and how many schedules
// crashed; an error is the lowest failing schedule's, with its repro
// command.
func EquivSchedules(cfg EquivConfig, n int) (hits, crashed int, err error) {
	hits, err = EquivHits(cfg)
	if err != nil {
		return 0, 0, fmt.Errorf("%w\nrepro: %s", err, cfg.reproCmd())
	}
	at := spread(hits, n)
	var mu sync.Mutex
	err = parallel(n, func(j int) error {
		c := cfg
		c.CrashHit = at[j]
		res, err := Equiv(c)
		if err != nil {
			return fmt.Errorf("crash schedule %d/%d (hit %d of %d): %w\nrepro: %s",
				j+1, n, at[j], hits, err, c.reproCmd())
		}
		if res.Crashed {
			mu.Lock()
			crashed++
			mu.Unlock()
		}
		return nil
	})
	return hits, crashed, err
}

// reproCmd is the command line that re-runs the experiment of cfg alone.
func (cfg EquivConfig) reproCmd() string {
	s := fmt.Sprintf("reorg-bench check -seed %d -histories 0 -crashes 0", cfg.Seed)
	if cfg.CrashHit > 0 {
		s += fmt.Sprintf(" -crashhit %d", cfg.CrashHit)
	}
	if cfg.Daemon {
		s += " -daemon"
	}
	return s
}
