package check

import (
	"go/ast"
	"go/parser"
	"go/token"
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"testing"

	"repro/internal/storage"
	"repro/internal/workload"
)

// TestVerifyFailsAPlantedLeak plants a free-map leak — one page
// allocated and never linked — in a quiescent database. The tree itself
// is sound, so db.Check alone passes it; the driver's verify must not.
func TestVerifyFailsAPlantedLeak(t *testing.T) {
	r, err := open(dbConfig{}, nil)
	if err != nil {
		t.Fatal(err)
	}
	defer r.close()
	model := make(map[string]string)
	for i := 0; i < 200; i++ {
		k, v := workload.Key(i), ValueFor(i, 0, 32)
		if err := r.db.Insert(k, v); err != nil {
			t.Fatal(err)
		}
		model[string(k)] = string(v)
	}
	if err := verify(r.db, model, nil); err != nil {
		t.Fatalf("healthy database: %v", err)
	}

	pager := r.db.Tree().Pager()
	f, err := pager.Allocate(storage.PageLeaf)
	if err != nil {
		t.Fatal(err)
	}
	pager.MarkDirty(f, 0)
	pager.Unfix(f)
	if err := r.db.Check(); err != nil {
		t.Fatalf("db.Check: %v", err)
	}
	if err := verify(r.db, model, nil); err == nil || !strings.Contains(err.Error(), "[freemap-leak]") {
		t.Fatalf("verify = %v, want a freemap-leak violation", err)
	}
}

// TestOneCrashDriver pins the crash driver to one copy: non-test code
// under internal/ arms a crash at a global hit once, restarts a crashed
// database in one function, sets up the manual daemon once and drains
// it in one loop. A second harness that builds its own scaffolding
// fails here.
func TestOneCrashDriver(t *testing.T) {
	counts := map[string][]string{}
	fset := token.NewFileSet()
	err := filepath.WalkDir("..", func(path string, d os.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() {
			if d.Name() == "testdata" {
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
		injects := false
		for _, imp := range f.Imports {
			if p, _ := strconv.Unquote(imp.Path.Value); p == "repro/internal/fault" {
				injects = true
			}
		}
		add := func(what string, n ast.Node) {
			counts[what] = append(counts[what], fset.Position(n.Pos()).String())
		}
		for _, decl := range f.Decls {
			fn, ok := decl.(*ast.FuncDecl)
			if !ok || fn.Body == nil {
				continue
			}
			crashed, restarted := false, false
			ast.Inspect(fn.Body, func(n ast.Node) bool {
				switch n := n.(type) {
				case *ast.CallExpr:
					switch name := calleeName(n); name {
					case "ArmCrashAtSeq", "daemon.DefaultConfig":
						add(name, n)
					case "Crash":
						crashed = true
					case "Restart":
						if crashed && injects && !restarted {
							restarted = true
							add("Crash then Restart", fn)
						}
					}
				case *ast.ForStmt:
					if calls(n.Body, "Tick") && mentions(n.Body, "DaemonIncrements") {
						add("drain loop", n)
					}
				}
				return true
			})
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	for _, what := range []string{"ArmCrashAtSeq", "Crash then Restart", "daemon.DefaultConfig", "drain loop"} {
		if len(counts[what]) != 1 {
			t.Errorf("%s: %d sites in non-test code under internal/, want 1: %v",
				what, len(counts[what]), counts[what])
		}
	}
}

// calleeName is "pkg.F" for a package-qualified call, "M" for a method
// call and "" otherwise.
func calleeName(call *ast.CallExpr) string {
	sel, ok := call.Fun.(*ast.SelectorExpr)
	if !ok {
		return ""
	}
	if pkg, ok := sel.X.(*ast.Ident); ok && pkg.Name == "daemon" {
		return "daemon." + sel.Sel.Name
	}
	return sel.Sel.Name
}

func calls(n ast.Node, method string) bool {
	found := false
	ast.Inspect(n, func(n ast.Node) bool {
		if call, ok := n.(*ast.CallExpr); ok && calleeName(call) == method {
			found = true
		}
		return !found
	})
	return found
}

func mentions(n ast.Node, name string) bool {
	found := false
	ast.Inspect(n, func(n ast.Node) bool {
		if id, ok := n.(*ast.Ident); ok && id.Name == name {
			found = true
		}
		return !found
	})
	return found
}
