package experiments

import (
	"strings"
	"testing"
)

// Small-scale smoke tests so the experiment harness itself is covered
// by `go test ./...`; full-scale runs are `reorg-bench exp`.

func smallParams() Params {
	return Params{Records: 2500, ValueSize: 32, PageSize: 1024, Seed: 7}
}

func render(t *testing.T, tab *Table) string {
	t.Helper()
	var sb strings.Builder
	if _, err := tab.WriteTo(&sb); err != nil {
		t.Fatal(err)
	}
	return sb.String()
}

func TestE1TableRenders(t *testing.T) {
	out := render(t, E1LockTable())
	for _, want := range []string{"IS", "RX", "RS", "yes", "no"} {
		if !strings.Contains(out, want) {
			t.Errorf("E1 output missing %q:\n%s", want, out)
		}
	}
}

func TestE2ShapeHolds(t *testing.T) {
	res, err := E2ThreePass(smallParams())
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Stages) != 4 {
		t.Fatalf("stages = %d", len(res.Stages))
	}
	before, p1, p2, p3 := res.Stages[0], res.Stages[1], res.Stages[2], res.Stages[3]
	if p1.LeafPages >= before.LeafPages {
		t.Errorf("pass 1 did not shrink leaves: %d -> %d", before.LeafPages, p1.LeafPages)
	}
	if p1.AvgFill <= before.AvgFill {
		t.Errorf("pass 1 did not raise fill: %.2f -> %.2f", before.AvgFill, p1.AvgFill)
	}
	if p2.Inversions != 0 {
		t.Errorf("pass 2 left %d inversions", p2.Inversions)
	}
	if p3.Height > p2.Height {
		t.Errorf("pass 3 grew height")
	}
	_ = render(t, res.Table())
}

func TestE3HeuristicBeatsFirstFit(t *testing.T) {
	rows, err := E3SwapReduction(smallParams())
	if err != nil {
		t.Fatal(err)
	}
	byKey := map[string]E3Row{}
	for _, r := range rows {
		byKey[r.Policy+f2(r.Fill)] = r
	}
	for _, fill := range []string{"0.12", "0.25", "0.33", "0.50"} {
		h, ok1 := byKey["heuristic"+fill]
		f, ok2 := byKey["first-fit"+fill]
		if !ok1 || !ok2 {
			t.Fatalf("missing rows for fill %s", fill)
		}
		if h.Swaps > f.Swaps {
			t.Errorf("fill %s: heuristic swaps %d > first-fit %d", fill, h.Swaps, f.Swaps)
		}
	}
	_ = render(t, E3Table(rows))
}

func TestE5ForwardVsRollback(t *testing.T) {
	rows, err := E5ForwardRecovery(smallParams())
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 2 {
		t.Fatalf("rows = %d", len(rows))
	}
	if rows[0].InFlight != "completed forward" {
		t.Errorf("paper in-flight = %q", rows[0].InFlight)
	}
	if rows[1].InFlight != "rolled back (work lost)" {
		t.Errorf("baseline in-flight = %q", rows[1].InFlight)
	}
	_ = render(t, E5Table(rows))
}

func TestE6CarefulSmallest(t *testing.T) {
	rows, err := E6LogVolume(smallParams())
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 3 {
		t.Fatalf("rows = %d", len(rows))
	}
	careful, full, smith := rows[0], rows[1], rows[2]
	if careful.BytesPerRec >= full.BytesPerRec {
		t.Errorf("careful %v >= full %v bytes/record", careful.BytesPerRec, full.BytesPerRec)
	}
	if full.BytesPerRec >= smith.BytesPerRec {
		t.Errorf("full %v >= smith %v bytes/record", full.BytesPerRec, smith.BytesPerRec)
	}
	_ = render(t, E6Table(rows))
}

func TestE7PaperNeedsFewerOps(t *testing.T) {
	rows, err := E7Granularity(smallParams())
	if err != nil {
		t.Fatal(err)
	}
	// At the sparsest setting the unit granularity advantage must show.
	var paper, smith int64
	for _, r := range rows {
		if r.Fill == 0.125 {
			if strings.HasPrefix(r.System, "paper") {
				paper = r.Ops
			} else {
				smith = r.Ops
			}
		}
	}
	if paper == 0 || smith == 0 || paper >= smith {
		t.Errorf("ops at fill 0.125: paper=%d smith=%d", paper, smith)
	}
	_ = render(t, E7Table(rows))
}

func TestE8ReorgReducesIO(t *testing.T) {
	rows, err := E8RangeScanIO(smallParams())
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 4 {
		t.Fatalf("rows = %d", len(rows))
	}
	sparse, full := rows[0], rows[3]
	if full.ReadsPerScan >= sparse.ReadsPerScan {
		t.Errorf("reads/scan did not improve: %.2f -> %.2f",
			sparse.ReadsPerScan, full.ReadsPerScan)
	}
	if full.SeeksPerScan >= sparse.SeeksPerScan {
		t.Errorf("seeks/scan did not improve: %.2f -> %.2f",
			sparse.SeeksPerScan, full.SeeksPerScan)
	}
	_ = render(t, E8Table(rows))
}
