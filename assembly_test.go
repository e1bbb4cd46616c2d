package repro

import (
	"go/ast"
	"go/parser"
	"go/token"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"repro/internal/daemon"
	"repro/internal/fault"
	"repro/internal/metrics"
	"repro/internal/obs"
	"repro/internal/workload"
)

// TestCheckpointInsideStructureModification starts a checkpoint between
// a leaf split's log append and its apply, lets the inserts go on into
// the new right leaf, then crashes and restarts: every acknowledged key
// must be there. A checkpoint that read the log tail inside that window
// would take a redo point above the split and flush pages without it;
// restart would then replay the inserts that followed into a leaf no
// parent routes to.
func TestCheckpointInsideStructureModification(t *testing.T) {
	for backend, open := range backendOpeners() {
		t.Run(backend, func(t *testing.T) {
			db := open(t, Options{})
			defer db.Close()
			var ckptErr error
			ckptDone := make(chan struct{})
			armed := true
			db.tree.SetSMOHook(func() {
				if !armed {
					return
				}
				armed = false
				go func() {
					ckptErr = db.Checkpoint()
					close(ckptDone)
				}()
				select {
				case <-ckptDone: // the checkpoint ran inside the window
				case <-time.After(50 * time.Millisecond): // it waits for the apply
				}
			})
			n := 0
			insert := func() {
				t.Helper()
				if err := db.Insert(workload.Key(n), workload.Value(n, 32)); err != nil {
					t.Fatalf("insert %d: %v", n, err)
				}
				n++
			}
			for armed {
				insert()
			}
			for i := 0; i < 5; i++ {
				insert()
			}
			<-ckptDone
			if ckptErr != nil {
				t.Fatalf("Checkpoint: %v", ckptErr)
			}
			db.Crash()
			if _, err := db.Restart(); err != nil {
				t.Fatalf("Restart: %v", err)
			}
			if err := db.Check(); err != nil {
				t.Fatal(err)
			}
			for i := 0; i < n; i++ {
				if _, err := db.Get(workload.Key(i)); err != nil {
					t.Fatalf("acknowledged key %d of %d: %v", i, n, err)
				}
			}
		})
	}
}

// TestReopenAndRestartBuildTheSameSystem: Open on an existing directory
// and Crash + Restart each bring up an incarnation wired like a freshly
// created one — the fault injector on the pager, the observability
// hooks, the pool's counters and the configured daemon.
func TestReopenAndRestartBuildTheSameSystem(t *testing.T) {
	restart := func(t *testing.T, db *DB, _ Options) *DB {
		db.Crash()
		if _, err := db.Restart(); err != nil {
			t.Fatalf("Restart: %v", err)
		}
		return db
	}
	reopen := func(t *testing.T, db *DB, opts Options) *DB {
		if err := db.Close(); err != nil {
			t.Fatalf("Close: %v", err)
		}
		db, err := Open(opts)
		if err != nil {
			t.Fatalf("reopen: %v", err)
		}
		return db
	}
	for _, tc := range []struct {
		name string
		file bool
		next func(*testing.T, *DB, Options) *DB
	}{
		{"restart/mem", false, restart},
		{"restart/file", true, restart},
		{"reopen/file", true, reopen},
	} {
		t.Run(tc.name, func(t *testing.T) {
			inj := fault.New(1)
			cfg := daemon.DefaultConfig()
			cfg.Manual = true
			opts := Options{PageSize: 1024, FaultInjector: inj, Daemon: &cfg}
			if tc.file {
				opts.Dir = t.TempDir()
			}
			db, err := Open(opts)
			if err != nil {
				t.Fatal(err)
			}
			if err := workload.Load(db, 300, 32, "seq", 1); err != nil {
				t.Fatal(err)
			}
			checkIncarnation(t, db, inj)
			db = tc.next(t, db, opts)
			defer db.Close()
			checkIncarnation(t, db, inj)
		})
	}
}

// checkIncarnation checks that the DB's current pager, log, tree and
// daemon are wired to its options.
func checkIncarnation(t *testing.T, db *DB, inj *fault.Injector) {
	t.Helper()
	checkpoints := func() int {
		n := 0
		for _, ev := range db.TraceSnapshot() {
			if ev.Type == obs.EvCheckpoint {
				n++
			}
		}
		return n
	}
	if err := db.Update(workload.Key(0), workload.Value(0, 40)); err != nil {
		t.Fatal(err)
	}
	flushes, events := inj.HitCounts()[fault.PagerFlush], checkpoints()
	if err := db.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	if inj.HitCounts()[fault.PagerFlush] == flushes {
		t.Error("checkpoint flushed no page through the fault injector")
	}
	if checkpoints() != events+1 {
		t.Errorf("trace ring got %d checkpoint events, want 1", checkpoints()-events)
	}
	gets, hits := db.Obs().H(obs.OpGet).Count(), perf(db, metrics.PoolHits)
	if _, err := db.Get(workload.Key(1)); err != nil {
		t.Fatal(err)
	}
	if got := db.Obs().H(obs.OpGet).Count(); got != gets+1 {
		t.Errorf("get histogram counted %d gets, want 1", got-gets)
	}
	if perf(db, metrics.PoolHits) <= hits {
		t.Error("pool hits did not move with a get")
	}
	if db.Daemon() == nil {
		t.Fatal("no daemon for Options.Daemon")
	}
	if err := db.Daemon().Tick(); err != nil {
		t.Errorf("daemon tick: %v", err)
	}
}

// TestOneAssemblyPath pins where the system's subsystems are built: the
// product code outside bench/ calls storage.NewPager, lock.NewManager
// and txn.NewManager exactly once each, and internal/recovery calls none
// of them — recovery runs on the subsystems the DB assembles.
func TestOneAssemblyPath(t *testing.T) {
	want := []string{"storage.NewPager", "lock.NewManager", "txn.NewManager"}
	calls := map[string][]string{}
	fset := token.NewFileSet()
	err := filepath.WalkDir(".", func(path string, d os.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() {
			if path == "bench" || d.Name() == "testdata" || strings.HasPrefix(d.Name(), ".") && path != "." {
				return filepath.SkipDir
			}
			return nil
		}
		if !strings.HasSuffix(path, ".go") || strings.HasSuffix(path, "_test.go") {
			return nil
		}
		f, err := parser.ParseFile(fset, path, nil, 0)
		if err != nil {
			return err
		}
		ast.Inspect(f, func(n ast.Node) bool {
			call, ok := n.(*ast.CallExpr)
			if !ok {
				return true
			}
			sel, ok := call.Fun.(*ast.SelectorExpr)
			if !ok {
				return true
			}
			if pkg, ok := sel.X.(*ast.Ident); ok {
				name := pkg.Name + "." + sel.Sel.Name
				calls[name] = append(calls[name], fset.Position(call.Pos()).String())
			}
			return true
		})
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	for _, name := range want {
		if len(calls[name]) != 1 {
			t.Errorf("%s called %d times in product code, want 1: %v", name, len(calls[name]), calls[name])
		}
		for _, at := range calls[name] {
			if strings.HasPrefix(filepath.ToSlash(at), "internal/recovery/") {
				t.Errorf("%s called in internal/recovery at %s", name, at)
			}
		}
	}
}
