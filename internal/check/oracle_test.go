package check_test

import (
	"strings"
	"testing"

	"repro"
	"repro/internal/check"
	"repro/internal/kv"
	"repro/internal/storage"
	"repro/internal/workload"
)

func hasRule(rep *check.Report, rule string) bool {
	for _, v := range rep.Violations {
		if v.Rule == rule {
			return true
		}
	}
	return false
}

// checkFails asserts that DB.Check, which applies the same structure
// rules as the oracle, fails on db and names one of rules.
func checkFails(t *testing.T, db *repro.DB, rules ...string) {
	t.Helper()
	err := db.Check()
	if err == nil {
		t.Fatalf("DB.Check passed a tree the oracle flags %v", rules)
	}
	for _, rule := range rules {
		if strings.Contains(err.Error(), rule+":") {
			return
		}
	}
	t.Fatalf("DB.Check error %q names none of %v", err, rules)
}

func openLoaded(t *testing.T, records int) *repro.DB {
	t.Helper()
	db, err := repro.Open(repro.Options{PageSize: 512})
	if err != nil {
		t.Fatal(err)
	}
	if err := workload.Load(db, records, 32, "seq", 1); err != nil {
		t.Fatal(err)
	}
	return db
}

func TestOracleCleanOnHealthyTree(t *testing.T) {
	db := openLoaded(t, 300)
	if rep := check.Tree(db); !rep.OK() {
		t.Fatalf("healthy tree flagged:\n%s", rep)
	}
}

func TestOracleMergeableAudit(t *testing.T) {
	db := openLoaded(t, 400)
	if _, err := workload.Sparsify(db, 400, 0.25); err != nil {
		t.Fatal(err)
	}
	// Positive control: a freshly sparsified tree must have mergeable
	// neighbours — that is the condition Pass 1 exists to fix.
	rep := check.TreeWith(db, check.TreeOptions{MergeableFill: 0.9})
	if !hasRule(rep, "mergeable") {
		t.Fatalf("sparse tree reported no mergeable pairs:\n%s", rep)
	}

	cfg := repro.DefaultReorgConfig()
	cfg.SwapPass = false
	cfg.InternalPass = false
	if _, err := db.Reorganize(cfg); err != nil {
		t.Fatal(err)
	}
	rep = check.TreeWith(db, check.TreeOptions{MergeableFill: cfg.TargetFill})
	if err := rep.Err(); err != nil {
		t.Fatalf("after pass 1: %v", err)
	}
}

func TestOracleContiguityAfterFullReorg(t *testing.T) {
	db := openLoaded(t, 400)
	if _, err := workload.Sparsify(db, 400, 0.25); err != nil {
		t.Fatal(err)
	}
	cfg := repro.DefaultReorgConfig()
	if _, err := db.Reorganize(cfg); err != nil {
		t.Fatal(err)
	}
	rep := check.TreeWith(db, check.TreeOptions{
		MergeableFill:    cfg.TargetFill,
		ExpectContiguous: true,
	})
	if err := rep.Err(); err != nil {
		t.Fatalf("after full reorganization: %v", err)
	}
}

func TestOracleContiguityFlagsDisorder(t *testing.T) {
	db := openLoaded(t, 400)
	// Free low page ids, then grow at the high end: splits reuse the
	// freed low ids, putting high-key leaves at low disk addresses.
	for i := 100; i < 300; i++ {
		if err := db.Delete(workload.Key(i)); err != nil {
			t.Fatal(err)
		}
	}
	for i := 400; i < 700; i++ {
		if err := db.Insert(workload.Key(i), workload.Value(i, 32)); err != nil {
			t.Fatal(err)
		}
	}
	st, err := db.GatherStats()
	if err != nil {
		t.Fatal(err)
	}
	if st.OutOfOrderPairs == 0 {
		t.Skip("workload produced no disorder; nothing to flag")
	}
	rep := check.TreeWith(db, check.TreeOptions{ExpectContiguous: true})
	if !hasRule(rep, "contiguity") {
		t.Fatalf("disorder (%d out-of-order pairs) not flagged:\n%s",
			st.OutOfOrderPairs, rep)
	}
	// The unconditional rules must still pass on this tree.
	if rep := check.Tree(db); !rep.OK() {
		t.Fatalf("disordered-but-valid tree flagged:\n%s", rep)
	}
}

func TestOracleDetectsWALRuleViolation(t *testing.T) {
	db := openLoaded(t, 100)
	if err := db.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	st, err := db.GatherStats()
	if err != nil {
		t.Fatal(err)
	}
	disk := db.Tree().Pager().Disk()
	buf := make([]byte, db.PageSize())
	victim := st.LeafIDs[0]
	if err := disk.Read(victim, buf); err != nil {
		t.Fatal(err)
	}
	storage.Page(buf).SetLSN(1 << 40)
	if err := disk.Write(victim, buf); err != nil {
		t.Fatal(err)
	}
	if rep := check.Tree(db); !hasRule(rep, "wal-rule") {
		t.Fatalf("stable LSN past durable horizon not flagged:\n%s", rep)
	}
}

// corruptLeaf fetches a leaf frame, mutates it under the latch, and
// flushes it so the corruption is what the oracle sees.
func corruptLeaf(t *testing.T, db *repro.DB, id storage.PageID, mutate func(p storage.Page)) {
	t.Helper()
	pager := db.Tree().Pager()
	f, err := pager.Fix(id)
	if err != nil {
		t.Fatal(err)
	}
	f.Lock()
	mutate(f.Data())
	f.Unlock()
	pager.MarkDirty(f, 0)
	pager.Unfix(f)
	if err := pager.FlushPage(id); err != nil {
		t.Fatal(err)
	}
}

func TestOracleDetectsBrokenSiblingChain(t *testing.T) {
	db := openLoaded(t, 200)
	st, err := db.GatherStats()
	if err != nil {
		t.Fatal(err)
	}
	if len(st.LeafIDs) < 3 {
		t.Fatal("want at least 3 leaves")
	}
	corruptLeaf(t, db, st.LeafIDs[1], func(p storage.Page) {
		p.SetNext(st.LeafIDs[0]) // stale pointer: skips back instead of forward
	})
	if rep := check.Tree(db); !hasRule(rep, "chain") {
		t.Fatalf("stale sibling link not flagged:\n%s", rep)
	}
	checkFails(t, db, "chain")
}

func TestOracleDetectsKeyOrderCorruption(t *testing.T) {
	db := openLoaded(t, 200)
	st, err := db.GatherStats()
	if err != nil {
		t.Fatal(err)
	}
	corruptLeaf(t, db, st.LeafIDs[0], func(p storage.Page) {
		k := kv.SlotKey(p, 0)
		for i := range k {
			k[i] = 0xff // first key now sorts above every later key
		}
	})
	rep := check.Tree(db)
	if !hasRule(rep, "key-order") && !hasRule(rep, "bounds") {
		t.Fatalf("in-page key disorder not flagged:\n%s", rep)
	}
	checkFails(t, db, "key-order", "bounds")
}

func TestOracleDetectsFreeMapDrift(t *testing.T) {
	db := openLoaded(t, 200)
	st, err := db.GatherStats()
	if err != nil {
		t.Fatal(err)
	}
	fm := db.Tree().Pager().FreeMap()
	fm.Free(st.LeafIDs[0])
	if rep := check.Tree(db); !hasRule(rep, "freemap-drift") {
		t.Fatalf("free-map drift not flagged:\n%s", rep)
	}
	fm.MarkAllocated(st.LeafIDs[0])
	if rep := check.Tree(db); !rep.OK() {
		t.Fatalf("repaired map still flagged:\n%s", rep)
	}
}

func TestOracleDetectsLeakedPage(t *testing.T) {
	db := openLoaded(t, 200)
	pager := db.Tree().Pager()
	f, err := pager.Allocate(storage.PageLeaf)
	if err != nil {
		t.Fatal(err)
	}
	pager.MarkDirty(f, 0)
	pager.Unfix(f)
	if rep := check.Tree(db); !hasRule(rep, "freemap-leak") {
		t.Fatalf("unreachable allocated page not flagged:\n%s", rep)
	}
}

func TestOracleDetectsLevelCorruption(t *testing.T) {
	db := openLoaded(t, 200)
	rootID, _ := db.Tree().Root()
	corruptLeaf(t, db, rootID, func(p storage.Page) {
		p.SetAux(p.Aux() + 1)
	})
	rep := check.Tree(db)
	if !hasRule(rep, "level") {
		t.Fatalf("level corruption not flagged:\n%s", rep)
	}
	checkFails(t, db, "level")
}

func TestOracleDetectsPageVersion(t *testing.T) {
	db := openLoaded(t, 200)
	st, err := db.GatherStats()
	if err != nil {
		t.Fatal(err)
	}
	corruptLeaf(t, db, st.LeafIDs[1], func(p storage.Page) {
		p[18] = 0 // the header's format-version byte: a pre-versioned page
	})
	if rep := check.Tree(db); !hasRule(rep, "page-version") {
		t.Fatalf("stale page format not flagged:\n%s", rep)
	}
	checkFails(t, db, "page-version")
}

func TestOracleDetectsPageReachedTwice(t *testing.T) {
	db := openLoaded(t, 200)
	rootID, _ := db.Tree().Root()
	corruptLeaf(t, db, rootID, func(p storage.Page) {
		_, first := kv.DecodeIndexCell(p.Cell(0))
		key, _ := kv.DecodeIndexCell(p.Cell(1))
		key = append([]byte(nil), key...)
		if err := kv.IndexReplace(p, key, key, first); err != nil {
			t.Fatal(err)
		}
	})
	if rep := check.Tree(db); !hasRule(rep, "cycle") {
		t.Fatalf("page reached twice not flagged:\n%s", rep)
	}
	checkFails(t, db, "cycle")
}
