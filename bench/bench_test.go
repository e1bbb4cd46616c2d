package main

import (
	"encoding/json"
	"os"
	"reflect"
	"regexp"
	"strings"
	"testing"
)

// testConfig is one workload at 1/100 scale with one client, so every
// count is a pure function of the seed.
func testConfig(t *testing.T, workload string, traced bool, seed int64) config {
	return config{workload: workload, seed: seed, seconds: 20, scale: 100, clients: 1,
		traced: traced, setups: 1, dataDir: t.TempDir()}
}

func mustRun(t *testing.T, cfg config) (map[string]float64, *result) {
	t.Helper()
	e, res, err := run(cfg)
	if err != nil {
		t.Fatalf("%s: %v (failed ops: %v)", cfg.workload, err, e.failures)
	}
	if res.rec.failed != 0 || !res.verified {
		t.Fatalf("%s: %d failed ops, verified %v: %v", cfg.workload, res.rec.failed, res.verified, e.failures)
	}
	if cfg.traced {
		return perLayerMetrics(e, res), res
	}
	return endToEndMetrics(e, res), res
}

// Same seed, same counts: the tapes are fixed work, so count metrics
// repeat exactly with one client. mem-churn-daemon keeps its wall-clock
// daemon, whose units add log records, so only its foreground counts
// are exact.
func TestCountsRepeatWithOneSeed(t *testing.T) {
	exactEndToEnd := []string{"wal_bytes_per_op", "space_amp", "leaf_fill"}
	exactPerLayer := []string{"core.units_compact", "core.units_move", "core.units_swap",
		"core.records_moved", "core.pages_freed", "recovery.redone_records",
		"btree.leaf_pages", "lock.grants_per_op", "wal.bytes_per_write_op", "disk.writes_per_op"}
	for _, wl := range workloads {
		wl := wl
		t.Run(wl.Name, func(t *testing.T) {
			for _, traced := range []bool{false, true} {
				a, ra := mustRun(t, testConfig(t, wl.Name, traced, 7))
				b, rb := mustRun(t, testConfig(t, wl.Name, traced, 7))
				if ra.rec.attempted != rb.rec.attempted || ra.rec.kinds != rb.rec.kinds {
					t.Fatalf("op counts differ between two runs of one seed: %v vs %v", ra.rec.kinds, rb.rec.kinds)
				}
				if wl.Name == wlChurn {
					continue
				}
				names := exactEndToEnd
				if traced {
					names = exactPerLayer
				}
				for _, n := range names {
					if a[n] != b[n] {
						t.Errorf("trace=%v %s: %v then %v with the same seed", traced, n, a[n], b[n])
					}
				}
			}
		})
	}
}

func TestEveryMetricIsReported(t *testing.T) {
	for _, wl := range workloads {
		e2e, _ := mustRun(t, testConfig(t, wl.Name, false, 3))
		for _, d := range endToEnd {
			if wl.Name == wlFileReorg && (strings.HasPrefix(d.Name, "get_") || strings.HasPrefix(d.Name, "write_")) {
				continue // single-record gets and writes are the second client's, absent with one
			}
			if v, ok := e2e[d.Name]; !ok || v == 0 {
				t.Errorf("%s: end-to-end metric %s = %v: every one must be reported and non-zero", wl.Name, d.Name, v)
			}
		}
		layers, res := mustRun(t, testConfig(t, wl.Name, true, 3))
		for _, d := range perLayer {
			if _, ok := layers[d.Name]; !ok {
				t.Errorf("%s: per-layer metric %s is missing", wl.Name, d.Name)
			}
		}
		if len(layers) != len(perLayer) {
			t.Errorf("%s: %d per-layer values for %d definitions", wl.Name, len(layers), len(perLayer))
		}
		// Predicted-no-move sanity: idle layers read zero.
		switch wl.Name {
		case wlMemHot, wlFileCommit:
			for name, v := range layers {
				if (strings.HasPrefix(name, "core.") || strings.HasPrefix(name, "daemon.")) && v != 0 {
					t.Errorf("%s: %s = %v, want 0 (layer idle)", wl.Name, name, v)
				}
			}
		case wlFileReorg:
			if layers["recovery.unit_completed"] != 1 || layers["core.units_compact"] == 0 || layers["fg.reorg_s"] == 0 {
				t.Errorf("file-reorg: unit_completed %v, units_compact %v, reorg_s %v",
					layers["recovery.unit_completed"], layers["core.units_compact"], layers["fg.reorg_s"])
			}
		}
		if wl.Name == wlMemHot {
			if layers["pool.hit_ratio"] != 1 || layers["fg.fsyncs_per_op"] != 0 {
				t.Errorf("mem-hot: hit ratio %v, fsyncs/op %v; want 1 and 0", layers["pool.hit_ratio"], layers["fg.fsyncs_per_op"])
			}
		}
		if len(res.tracers) == 0 || res.tracers[0].agg[spOp].n == 0 {
			t.Errorf("%s: the traced run recorded no op spans", wl.Name)
		}
	}
}

func TestSecondSeedChangesTheTape(t *testing.T) {
	a := memHotTape(1, 0, 2, 2000, 500)
	b := memHotTape(1, 0, 2, 2000, 500)
	c := memHotTape(2, 0, 2, 2000, 500)
	d := memHotTape(1, 1, 2, 2000, 500)
	if !reflect.DeepEqual(a, b) {
		t.Fatal("one (seed, workload, client) gave two different tapes")
	}
	if reflect.DeepEqual(a.ops, c.ops) {
		t.Fatal("a second seed gave the same tape")
	}
	if reflect.DeepEqual(a.ops, d.ops) {
		t.Fatal("a second client gave the same tape")
	}
	for _, o := range d.ops {
		if o.kind == opUpdate && o.key%2 != 1 {
			t.Fatalf("client 1 writes key %d outside its partition", o.key)
		}
	}
	if reflect.DeepEqual(fileCommitTape(1, 0, 2, 2000, 16000, 300).ops, fileCommitTape(2, 0, 2, 2000, 16000, 300).ops) {
		t.Fatal("file-commit: a second seed gave the same tape")
	}
	if reflect.DeepEqual(reorgCycleTape(1, 0, 1000).groups, reorgCycleTape(2, 0, 1000).groups) {
		t.Fatal("file-reorg: a second seed gave the same refill order")
	}
}

// The verifier must fail when the model and the database disagree in
// either direction.
func TestVerifierCatchesALostWriteAndAPhantom(t *testing.T) {
	cfg := testConfig(t, wlMemHot, false, 5)
	e := &env{cfg: cfg}
	defer e.teardown()
	if _, err := e.build(); err != nil {
		t.Fatal(err)
	}
	if err := verifyShadow(e.db, e.shadow, e.vals); err != nil {
		t.Fatalf("untouched model: %v", err)
	}
	// Drop one acknowledged write from the model: the database now holds
	// a row the model does not.
	saved := e.shadow[17]
	e.shadow[17] = 0
	if err := verifyShadow(e.db, e.shadow, e.vals); err == nil || !strings.Contains(err.Error(), "phantom") {
		t.Fatalf("dropped write not caught: %v", err)
	}
	// Claim a different last value for it.
	e.shadow[17] = saved%valuePool + 1
	if e.shadow[17] == saved {
		e.shadow[17]++
	}
	if err := verifyShadow(e.db, e.shadow, e.vals); err == nil || !strings.Contains(err.Error(), "last acknowledged") {
		t.Fatalf("stale value not caught: %v", err)
	}
	e.shadow[17] = saved
	// Inject a key the database never stored.
	if err := e.db.Delete(e.key(23)); err != nil {
		t.Fatal(err)
	}
	if err := verifyShadow(e.db, e.shadow, e.vals); err == nil || !strings.Contains(err.Error(), "missing") {
		t.Fatalf("model-only key not caught: %v", err)
	}
}

var (
	nameRE = regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)
	unitRE = regexp.MustCompile(`^[A-Za-z0-9_/%.-]{1,16}$`)
)

// BENCHMARK.json is the driver's copy of spec.go; this keeps them one.
func TestSpecMatchesBenchmarkJSON(t *testing.T) {
	raw, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var got map[string]json.RawMessage
	if err := json.Unmarshal(raw, &got); err != nil {
		t.Fatal(err)
	}
	want, err := json.Marshal(benchmarkJSON())
	if err != nil {
		t.Fatal(err)
	}
	var wantMap map[string]json.RawMessage
	_ = json.Unmarshal(want, &wantMap)
	if len(got) != len(wantMap) {
		t.Fatalf("BENCHMARK.json has %d keys, spec has %d", len(got), len(wantMap))
	}
	for k, w := range wantMap {
		var a, b any
		_ = json.Unmarshal(w, &a)
		_ = json.Unmarshal(got[k], &b)
		if !reflect.DeepEqual(a, b) {
			t.Errorf("BENCHMARK.json %q differs from spec.go (regenerate: bash bench/run.sh -spec > BENCHMARK.json)", k)
		}
	}

	seen := map[string]bool{}
	check := func(kind, name, unit string) {
		if !nameRE.MatchString(name) || seen[name] {
			t.Errorf("%s name %q is invalid or used twice", kind, name)
		}
		seen[name] = true
		if unit != "" && !unitRE.MatchString(unit) {
			t.Errorf("%s %s: unit %q is invalid", kind, name, unit)
		}
	}
	for _, w := range workloads {
		check("workload", w.Name, "")
		if len(w.Why) > 200 || strings.Contains(w.Why, "\n") {
			t.Errorf("workload %s: why is %d characters (max 200, one line)", w.Name, len(w.Why))
		}
	}
	hasSetup, maxBound := false, 0.0
	for _, d := range endToEnd {
		check("end-to-end", d.Name, d.Unit)
		if d.Bound <= 0 || d.Bound > 0.25 {
			t.Errorf("%s: bound %v outside (0, 0.25]", d.Name, d.Bound)
		}
		if d.Bound > maxBound {
			maxBound = d.Bound
		}
		if d.Name == "setup_s" {
			hasSetup = d.Unit == "s" && d.Better == "lower"
		}
	}
	if !hasSetup || endToEnd[0].Name != "setup_s" || endToEnd[0].Bound != maxBound {
		t.Error("setup_s must be an end-to-end metric in s, lower is better, with the largest bound")
	}
	for _, d := range perLayer {
		check("per-layer", d.Name, d.Unit)
		if !strings.Contains(d.Name, ".") {
			t.Errorf("per-layer metric %s is not <layer>.<metric>", d.Name)
		}
	}
	if len(perLayer) > 128 || len(endToEnd) > 16 || len(workloads) < 2 || len(workloads) > 8 {
		t.Errorf("%d workloads, %d end-to-end, %d per-layer metrics: outside the contract's limits",
			len(workloads), len(endToEnd), len(perLayer))
	}
}
