package check

import (
	"fmt"
)

// SmokeConfig sizes one deterministic smoke run of the whole harness:
// a clean equivalence experiment, a budget of random concurrent
// histories, and a spread of crash-point equivalence schedules.
type SmokeConfig struct {
	// Seed is the base seed; history i uses Seed+i, so a failing
	// history's repro command is exact, not positional.
	Seed int64
	// Histories is the number of random concurrent histories (default
	// 100). Half of them run against a live reorganization.
	Histories int
	// CrashSchedules is the number of crash-point equivalence runs,
	// spread evenly over the enumerated fault-point hits (default 10).
	CrashSchedules int
	// Shrink, when a history fails, re-runs smaller variants to find a
	// tighter repro (bounded work).
	Shrink bool
	// Dir, when non-empty, runs the equivalence and crash-schedule legs
	// on the file backend, each run in a fresh directory under Dir.
	// (Histories stay in-memory: they probe concurrency, not media.)
	Dir string
	// Daemon runs the equivalence and crash-schedule legs with the
	// autonomous-daemon arm enabled: the crash schedules then index the
	// daemon run's fault-point hits, including daemon.tick and
	// daemon.unit.start.
	Daemon bool
	// Logf receives progress output (nil = silent).
	Logf func(format string, args ...any)

	// Overrides for single-repro invocations: when HistoryClients or
	// HistoryOps is set, derived history shapes are clamped to them.
	HistoryClients int
	HistoryOps     int
}

func (c SmokeConfig) withDefaults() SmokeConfig {
	if c.Seed == 0 {
		c.Seed = 1
	}
	if c.Histories < 0 {
		c.Histories = 0
	} else if c.Histories == 0 {
		c.Histories = 100
	}
	if c.CrashSchedules < 0 {
		c.CrashSchedules = 0
	} else if c.CrashSchedules == 0 {
		c.CrashSchedules = 10
	}
	return c
}

// SmokeResult summarises a completed smoke run.
type SmokeResult struct {
	Histories   int // histories run and verified
	CrashRuns   int // crash-point equivalence runs verified
	Hits        int // enumerated fault-point hits of the equivalence program
	SideApplied int64
}

// splitmix64 turns a seed into independent derived draws.
func splitmix64(x uint64) uint64 {
	x += 0x9E3779B97F4A7C15
	x = (x ^ (x >> 30)) * 0xBF58476D1CE4E5B9
	x = (x ^ (x >> 27)) * 0x94D049BB133111EB
	return x ^ (x >> 31)
}

// HistoryConfigFor derives a history shape purely from its seed: the
// same seed always yields the same clients/ops/keyspace/reorg choice,
// so "-seed N -histories 1" replays exactly the failing history.
func HistoryConfigFor(seed int64) RunConfig {
	h := splitmix64(uint64(seed))
	return RunConfig{
		Seed:         seed,
		Clients:      2 + int(h%4),        // 2..5
		OpsPerClient: 30 + int(h>>8%4)*15, // 30..75
		KeySpace:     []int{48, 64, 96}[int(h>>16%3)],
		Reorganize:   h>>24%2 == 0,
	}
}

// runOneHistory executes and verifies a single derived history.
func runOneHistory(hcfg RunConfig) error {
	h, db, err := RunHistory(hcfg)
	if err != nil {
		return err
	}
	if err := Linearize(h, hcfg); err != nil {
		return err
	}
	if rep := Tree(db); !rep.OK() {
		return rep.Err()
	}
	return nil
}

// shrinkHistory tries smaller variants of a failing history and
// returns the smallest configuration that still fails (bounded work;
// concurrency failures need not reproduce, in which case the original
// stands).
func shrinkHistory(hcfg RunConfig) RunConfig {
	best := hcfg
	for round := 0; round < 8; round++ {
		cand := best
		switch round % 2 {
		case 0:
			if cand.OpsPerClient <= 5 {
				continue
			}
			cand.OpsPerClient /= 2
		case 1:
			if cand.Clients <= 1 {
				continue
			}
			cand.Clients--
		}
		if runOneHistory(cand) != nil {
			best = cand
		}
	}
	return best
}

// Smoke runs the standing harness at the given budget. Any failure's
// error includes a single-line repro command.
func Smoke(cfg SmokeConfig) (*SmokeResult, error) {
	cfg = cfg.withDefaults()
	res := &SmokeResult{}
	logf := cfg.Logf
	if logf == nil {
		logf = func(string, ...any) {}
	}

	// --- clean equivalence + structure oracle on every pass boundary
	ecfg := EquivConfig{Seed: cfg.Seed, Dir: cfg.Dir, Daemon: cfg.Daemon}
	eq, err := Equiv(ecfg)
	if err != nil {
		return res, fmt.Errorf("%w\nrepro: %s", err, ecfg.reproCmd())
	}
	res.SideApplied = eq.SideApplied
	if cfg.Daemon {
		logf("check: clean equivalence ok (%d records, %d side-file applies, %d daemon units)",
			eq.Records, eq.SideApplied, eq.DaemonUnits)
	} else {
		logf("check: clean equivalence ok (%d records, %d side-file applies)",
			eq.Records, eq.SideApplied)
	}

	// --- random concurrent histories
	for i := 0; i < cfg.Histories; i++ {
		seed := cfg.Seed + int64(i)
		hcfg := HistoryConfigFor(seed)
		if cfg.HistoryClients > 0 {
			hcfg.Clients = cfg.HistoryClients
		}
		if cfg.HistoryOps > 0 {
			hcfg.OpsPerClient = cfg.HistoryOps
		}
		if err := runOneHistory(hcfg); err != nil {
			repro := fmt.Sprintf("reorg-bench check -seed %d -histories 1 -crashes 0", seed)
			if cfg.Shrink {
				if small := shrinkHistory(hcfg); small != hcfg {
					repro = fmt.Sprintf(
						"reorg-bench check -seed %d -histories 1 -crashes 0 -clients %d -ops %d",
						seed, small.Clients, small.OpsPerClient)
				}
			}
			return res, fmt.Errorf("history seed %d (clients=%d ops=%d reorg=%v): %w\nrepro: %s",
				seed, hcfg.Clients, hcfg.OpsPerClient, hcfg.Reorganize, err, repro)
		}
		res.Histories++
		if (i+1)%20 == 0 {
			logf("check: %d/%d histories linearizable", i+1, cfg.Histories)
		}
	}

	// --- crash-point equivalence schedules
	if cfg.CrashSchedules > 0 {
		hits, _, err := EquivSchedules(ecfg, cfg.CrashSchedules)
		if err != nil {
			return res, err
		}
		res.Hits, res.CrashRuns = hits, cfg.CrashSchedules
		logf("check: %d crash schedules over %d hits equivalent", res.CrashRuns, hits)
	}
	return res, nil
}
