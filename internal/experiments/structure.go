package experiments

import (
	"fmt"
	"time"

	repro "repro"
	"repro/internal/core"
	"repro/internal/metrics"
	"repro/internal/workload"
)

// --- E2: three-pass behaviour (Figures 1 and 2) ---

// E2Result captures before/after physical state per pass.
type E2Result struct {
	Stages []E2Stage
}

// E2Stage is the tree's physical state after one stage.
type E2Stage struct {
	Name       string
	LeafPages  int
	AvgFill    float64
	Height     int
	Inversions int
	Elapsed    time.Duration
}

// E2ThreePass runs the three passes one at a time, sampling physical
// statistics between them.
func E2ThreePass(p Params) (*E2Result, error) {
	db, keep, err := buildSparse(p, 0.25)
	if err != nil {
		return nil, err
	}
	res := &E2Result{}
	sample := func(name string, elapsed time.Duration) error {
		s, err := db.GatherStats()
		if err != nil {
			return err
		}
		res.Stages = append(res.Stages, E2Stage{Name: name, LeafPages: s.LeafPages,
			AvgFill: s.AvgLeafFill, Height: s.Height,
			Inversions: s.OutOfOrderPairs, Elapsed: elapsed})
		return nil
	}
	if err := sample("sparse (before)", 0); err != nil {
		return nil, err
	}
	r := db.Reorganizer(repro.ReorgConfig{TargetFill: 0.9, CarefulWriting: true})
	start := time.Now()
	if err := r.CompactLeaves(); err != nil {
		return nil, err
	}
	if err := sample("after pass 1 (compact)", time.Since(start)); err != nil {
		return nil, err
	}
	start = time.Now()
	if err := r.SwapLeaves(); err != nil {
		return nil, err
	}
	if err := sample("after pass 2 (swap/move)", time.Since(start)); err != nil {
		return nil, err
	}
	start = time.Now()
	if err := r.RebuildInternal(); err != nil {
		return nil, err
	}
	if err := sample("after pass 3 (shrink)", time.Since(start)); err != nil {
		return nil, err
	}
	if err := verifyAll(db, keep, p.Records); err != nil {
		return nil, err
	}
	return res, nil
}

// Table renders E2.
func (r *E2Result) Table() *Table {
	t := &Table{Title: "E2 / Figures 1-2: three-pass reorganization",
		Header: []string{"stage", "leaves", "avg fill", "height", "inversions", "time"}}
	for _, s := range r.Stages {
		t.Rows = append(t.Rows, []string{s.Name, di(s.LeafPages), f2(s.AvgFill),
			di(s.Height), di(s.Inversions), ms(s.Elapsed)})
	}
	return t
}

// --- E3: Find-Free-Space heuristic vs alternatives (§6.1 / [ZS95]) ---

// E3Row is one (fill, policy) cell.
type E3Row struct {
	Fill     float64
	Policy   string
	Swaps    int64
	Moves    int64
	LogBytes int64
}

// E3SwapReduction sweeps initial fill factors and placement policies,
// counting the pass-2 swaps each policy leaves behind.
func E3SwapReduction(p Params) ([]E3Row, error) {
	var rows []E3Row
	for _, fill := range []float64{0.125, 0.25, 0.3333, 0.50} {
		for _, pol := range []struct {
			name string
			p    core.Placement
		}{
			{"heuristic", repro.PlacementHeuristic},
			{"first-fit", repro.PlacementFirstFit},
			{"in-place", repro.PlacementInPlace},
		} {
			db, keep, err := buildSparse(p, fill)
			if err != nil {
				return nil, err
			}
			logBefore := db.LogBytes()
			m, err := db.Reorganize(repro.ReorgConfig{TargetFill: 0.9,
				Placement: pol.p, SwapPass: true, CarefulWriting: true})
			if err != nil {
				return nil, err
			}
			if err := verifyAll(db, keep, p.Records); err != nil {
				return nil, fmt.Errorf("E3 %s fill %.2f: %w", pol.name, fill, err)
			}
			rows = append(rows, E3Row{Fill: fill, Policy: pol.name,
				Swaps: m.Get(metrics.Pass2Swaps), Moves: m.Get(metrics.Pass2Moves),
				LogBytes: db.LogBytes() - logBefore})
		}
	}
	return rows, nil
}

// E3Table renders the sweep.
func E3Table(rows []E3Row) *Table {
	t := &Table{Title: "E3 / §6.1: pass-2 swaps by Find-Free-Space policy",
		Header: []string{"initial fill", "policy", "swaps", "moves", "reorg log bytes"}}
	for _, r := range rows {
		t.Rows = append(t.Rows, []string{f2(r.Fill), r.Policy, d(r.Swaps),
			d(r.Moves), d(r.LogBytes)})
	}
	return t
}

// --- E8: range-query I/O before/after reorganization (§1 motivation) ---

// E8Row is one stage's scan cost.
type E8Row struct {
	Stage        string
	Leaves       int
	AvgFill      float64
	Inversions   int
	ReadsPerScan float64
	SeeksPerScan float64
}

// E8RangeScanIO measures physical reads per 200-record range scan with
// a small buffer pool, at each reorganization stage.
func E8RangeScanIO(p Params) ([]E8Row, error) {
	stages := []struct {
		name string
		cfg  *repro.ReorgConfig
	}{
		{"sparse (no reorg)", nil},
		{"after pass 1", &repro.ReorgConfig{TargetFill: 0.9, CarefulWriting: true}},
		{"after passes 1+2", &repro.ReorgConfig{TargetFill: 0.9, SwapPass: true, CarefulWriting: true}},
		{"after passes 1+2+3", &repro.ReorgConfig{TargetFill: 0.9, SwapPass: true, InternalPass: true, CarefulWriting: true}},
	}
	var rows []E8Row
	for _, st := range stages {
		db, err := repro.Open(repro.Options{PageSize: p.PageSize, BufferPoolPages: 24})
		if err != nil {
			return nil, err
		}
		if err := workload.Load(db, p.Records, p.ValueSize, "random", p.Seed); err != nil {
			return nil, err
		}
		if _, err := workload.Sparsify(db, p.Records, 0.25); err != nil {
			return nil, err
		}
		if st.cfg != nil {
			if _, err := db.Reorganize(*st.cfg); err != nil {
				return nil, err
			}
		}
		stats, _ := db.GatherStats()
		// Warm nothing: random scan starts defeat the small pool.
		const scans = 200
		before := db.IOStats()
		rng := newRNG(p.Seed)
		for i := 0; i < scans; i++ {
			lo := rng.Intn(p.Records)
			count := 0
			if err := db.Scan(workload.Key(lo), nil, func(_, _ []byte) bool {
				count++
				return count < 200
			}); err != nil {
				return nil, err
			}
		}
		after := db.IOStats()
		rows = append(rows, E8Row{Stage: st.name, Leaves: stats.LeafPages,
			AvgFill: stats.AvgLeafFill, Inversions: stats.OutOfOrderPairs,
			ReadsPerScan: float64(after.Reads-before.Reads) / scans,
			SeeksPerScan: float64(after.Seeks-before.Seeks) / scans})
	}
	return rows, nil
}

// E8Table renders the stages.
func E8Table(rows []E8Row) *Table {
	t := &Table{Title: "E8 / §1: physical reads per 200-record range scan",
		Header: []string{"stage", "leaves", "avg fill", "inversions", "reads/scan", "seeks/scan"}}
	for _, r := range rows {
		t.Rows = append(t.Rows, []string{r.Stage, di(r.Leaves), f2(r.AvgFill),
			di(r.Inversions), f2(r.ReadsPerScan), f2(r.SeeksPerScan)})
	}
	return t
}

// newRNG is a tiny seeded linear-congruential generator so experiments
// are reproducible without pulling math/rand state around.
type lcg struct{ s uint64 }

func newRNG(seed int64) *lcg { return &lcg{s: uint64(seed)*2862933555777941757 + 3037000493} }

func (r *lcg) Intn(n int) int {
	r.s = r.s*6364136223846793005 + 1442695040888963407
	return int((r.s >> 33) % uint64(n))
}
