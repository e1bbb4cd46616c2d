package experiments

import (
	"sync"
	"time"

	repro "repro"
	"repro/internal/baseline"
	"repro/internal/lock"
	"repro/internal/workload"
)

// --- E1: Table 1 ---

// E1LockTable renders the lock compatibility matrix as implemented,
// which the tests pin to the paper's Table 1.
func E1LockTable() *Table {
	modes := []lock.Mode{lock.IS, lock.IX, lock.S, lock.X, lock.R, lock.RX, lock.RS}
	granted := []lock.Mode{lock.IS, lock.IX, lock.S, lock.X, lock.R, lock.RX}
	t := &Table{Title: "E1 / Table 1: lock compatibility (granted x requested)",
		Header: append([]string{"granted\\req"}, func() []string {
			out := make([]string, len(modes))
			for i, m := range modes {
				out[i] = m.String()
			}
			return out
		}()...)}
	for _, g := range granted {
		row := []string{g.String()}
		for _, q := range modes {
			if lock.Compatible(g, q) {
				row = append(row, "yes")
			} else {
				row = append(row, "no")
			}
		}
		t.Rows = append(t.Rows, row)
	}
	return t
}

// --- E4: concurrency vs the whole-file-locking baseline (§8) ---

// E4Row is one (system, clients) measurement.
type E4Row struct {
	System     string
	Clients    int
	Throughput float64
	AvgLatency time.Duration
	MaxLatency time.Duration
	BlockedMs  float64 // total user lock-wait time
	Errors     int64
}

// E4Concurrency measures client throughput while each reorganizer runs.
func E4Concurrency(p Params, clientCounts []int) ([]E4Row, error) {
	var rows []E4Row
	run := func(system string, clients int,
		reorg func(db *repro.DB) error) error {
		db, _, err := buildSparse(p, 0.25)
		if err != nil {
			return err
		}
		stop := make(chan struct{})
		var wg sync.WaitGroup
		var stats workload.ClientStats
		wg.Add(1)
		go func() {
			defer wg.Done()
			stats = workload.RunClients(db, clients, 0, workload.Balanced,
				p.Records, p.ValueSize, stop)
		}()
		time.Sleep(50 * time.Millisecond) // client ramp-up
		start := time.Now()
		waitBefore := db.LockStats().UserWaitNanos.Load()
		var rerr error
		if reorg != nil {
			rerr = reorg(db)
		}
		// Keep a minimum measurement window so a fast reorganization
		// still yields a meaningful throughput sample.
		if rest := 400*time.Millisecond - time.Since(start); rest > 0 {
			time.Sleep(rest)
		}
		close(stop)
		wg.Wait()
		if rerr != nil {
			return rerr
		}
		if err := db.Check(); err != nil {
			return err
		}
		blocked := float64(db.LockStats().UserWaitNanos.Load()-waitBefore) / 1e6
		rows = append(rows, E4Row{System: system, Clients: clients,
			Throughput: stats.Throughput(), AvgLatency: stats.AvgLatency(),
			MaxLatency: time.Duration(stats.MaxNanos), BlockedMs: blocked,
			Errors: stats.Errors})
		return nil
	}
	for _, c := range clientCounts {
		if err := run("none (control)", c, nil); err != nil {
			return nil, err
		}
		if err := run("paper (RX units)", c, func(db *repro.DB) error {
			_, err := db.Reorganize(repro.DefaultReorgConfig())
			return err
		}); err != nil {
			return nil, err
		}
		if err := run("smith90 (file X)", c, func(db *repro.DB) error {
			b := baseline.New(db.Tree(), baseline.Config{TargetFill: 0.9, SwapPass: true})
			return b.Run()
		}); err != nil {
			return nil, err
		}
	}
	return rows, nil
}

// E4Table renders the comparison.
func E4Table(rows []E4Row) *Table {
	t := &Table{Title: "E4 / §8: user throughput while reorganizing",
		Header: []string{"reorganizer", "clients", "ops/s", "avg lat", "max lat", "blocked(ms)", "errors"}}
	for _, r := range rows {
		t.Rows = append(t.Rows, []string{r.System, di(r.Clients),
			f0(r.Throughput), ms(r.AvgLatency), ms(r.MaxLatency),
			f0(r.BlockedMs), d(r.Errors)})
	}
	return t
}

// --- E9: availability during pass 3 (§7.5) ---

// E9Row is one availability measurement.
type E9Row struct {
	Phase      string
	Throughput float64
	AvgLatency time.Duration
	MaxLatency time.Duration
	BlockedMs  float64
}

// E9Pass3Availability compares client service while the internal-page
// rebuild runs (one S lock at a time + brief switch) against an idle
// control and against the baseline's whole-file swap pass.
func E9Pass3Availability(p Params) ([]E9Row, error) {
	var rows []E9Row
	run := func(name string, reorg func(db *repro.DB) error) error {
		db, _, err := buildSparse(p, 0.25)
		if err != nil {
			return err
		}
		// Compact first so only the measured phase runs with clients.
		if _, err := db.Reorganize(repro.ReorgConfig{TargetFill: 0.9, CarefulWriting: true}); err != nil {
			return err
		}
		stop := make(chan struct{})
		var wg sync.WaitGroup
		var stats workload.ClientStats
		wg.Add(1)
		go func() {
			defer wg.Done()
			stats = workload.RunClients(db, 8, 0, workload.Balanced,
				p.Records, p.ValueSize, stop)
		}()
		time.Sleep(50 * time.Millisecond) // client ramp-up
		start := time.Now()
		blockedBefore := db.LockStats().UserWaitNanos.Load()
		var rerr error
		if reorg != nil {
			rerr = reorg(db)
		}
		if rest := 400*time.Millisecond - time.Since(start); rest > 0 {
			time.Sleep(rest)
		}
		close(stop)
		wg.Wait()
		if rerr != nil {
			return rerr
		}
		if err := db.Check(); err != nil {
			return err
		}
		rows = append(rows, E9Row{Phase: name,
			Throughput: stats.Throughput(), AvgLatency: stats.AvgLatency(),
			MaxLatency: time.Duration(stats.MaxNanos),
			BlockedMs:  float64(db.LockStats().UserWaitNanos.Load()-blockedBefore) / 1e6})
		return nil
	}
	if err := run("control (no reorg)", nil); err != nil {
		return nil, err
	}
	if err := run("pass 3 (S lock + switch)", func(db *repro.DB) error {
		r := db.Reorganizer(repro.ReorgConfig{TargetFill: 0.9})
		return r.RebuildInternal()
	}); err != nil {
		return nil, err
	}
	if err := run("smith90 swap pass (file X)", func(db *repro.DB) error {
		b := baseline.New(db.Tree(), baseline.Config{TargetFill: 0.9, SwapPass: true})
		return b.Run()
	}); err != nil {
		return nil, err
	}
	return rows, nil
}

// E9Table renders the comparison.
func E9Table(rows []E9Row) *Table {
	t := &Table{Title: "E9 / §7.5: client service during internal-page reorganization",
		Header: []string{"phase", "ops/s", "avg lat", "max lat", "blocked(ms)"}}
	for _, r := range rows {
		t.Rows = append(t.Rows, []string{r.Phase, f0(r.Throughput),
			ms(r.AvgLatency), ms(r.MaxLatency), f0(r.BlockedMs)})
	}
	return t
}
