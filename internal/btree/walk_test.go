package btree

import (
	"go/ast"
	"go/parser"
	"go/token"
	"io/fs"
	"path/filepath"
	"slices"
	"strings"
	"testing"

	"repro/internal/storage"
)

// TestOneTreeWalk pins the single whole-tree walk: in the product code
// under internal/ and cmd/, no function or function literal other than
// Walk's own recursion fixes pages, decodes index cells and either
// calls itself on them or gathers the decoded child pointers to visit
// them level by level. Checks, statistics, the oracle, pass 3's page
// lists, the comparator and btree-inspect all walk the tree through
// Walk.
func TestOneTreeWalk(t *testing.T) {
	var found []string
	fset := token.NewFileSet()
	for _, root := range []string{"..", "../../cmd"} {
		err := filepath.WalkDir(root, func(path string, d fs.DirEntry, err error) error {
			if err != nil {
				return err
			}
			if d.IsDir() && d.Name() == "testdata" {
				return filepath.SkipDir
			}
			if d.IsDir() || !strings.HasSuffix(path, ".go") || strings.HasSuffix(path, "_test.go") {
				return nil
			}
			f, err := parser.ParseFile(fset, path, nil, 0)
			if err != nil {
				return err
			}
			report := func(n ast.Node, name string) {
				found = append(found, fset.Position(n.Pos()).String()+" "+name)
			}
			ast.Inspect(f, func(n ast.Node) bool {
				switch n := n.(type) {
				case *ast.FuncDecl:
					if n.Body == nil || path == filepath.Join("..", "btree", "walk.go") && n.Name.Name == "walk" {
						return true
					}
					recv := ""
					if n.Recv != nil && len(n.Recv.List[0].Names) == 1 {
						recv = n.Recv.List[0].Names[0].Name
					}
					if walksTree(n.Body) && (callsSelf(n.Body, recv, n.Name.Name) || gathersChildren(n.Body)) {
						report(n, n.Name.Name)
					}
				case *ast.AssignStmt:
					for i, rhs := range n.Rhs {
						lit, ok := rhs.(*ast.FuncLit)
						id, isIdent := n.Lhs[i].(*ast.Ident)
						if ok && isIdent && walksTree(lit.Body) && callsSelf(lit.Body, "", id.Name) {
							report(lit, id.Name+" (func literal)")
						}
					}
				}
				return true
			})
			return nil
		})
		if err != nil {
			t.Fatal(err)
		}
	}
	if len(found) > 0 {
		t.Errorf("%d whole-tree walks outside btree.Walk:\n%s", len(found), strings.Join(found, "\n"))
	}
}

// walksTree reports calls X.Fix(...) and X.DecodeIndexCell(...) in
// body: pages fixed and their child pointers read.
func walksTree(body ast.Node) bool {
	calls := func(name string) bool {
		return hasCall(body, func(call *ast.CallExpr) bool {
			sel, ok := call.Fun.(*ast.SelectorExpr)
			return ok && sel.Sel.Name == name
		})
	}
	return calls("Fix") && calls("DecodeIndexCell")
}

// callsSelf reports a call name(...), or recv.name(...) for a method,
// in body.
func callsSelf(body ast.Node, recv, name string) bool {
	return hasCall(body, func(call *ast.CallExpr) bool {
		switch fn := call.Fun.(type) {
		case *ast.Ident:
			return recv == "" && fn.Name == name
		case *ast.SelectorExpr:
			x, ok := fn.X.(*ast.Ident)
			return ok && recv != "" && x.Name == recv && fn.Sel.Name == name
		}
		return false
	})
}

// gathersChildren reports `_, c := kv.DecodeIndexCell(...)` followed by
// append(..., c, ...) in body: child pointers collected to be visited.
func gathersChildren(body ast.Node) bool {
	var children []string
	ast.Inspect(body, func(n ast.Node) bool {
		as, ok := n.(*ast.AssignStmt)
		if !ok || len(as.Lhs) != 2 || len(as.Rhs) != 1 {
			return true
		}
		if call, ok := as.Rhs[0].(*ast.CallExpr); ok {
			if sel, ok := call.Fun.(*ast.SelectorExpr); ok && sel.Sel.Name == "DecodeIndexCell" {
				if id, ok := as.Lhs[1].(*ast.Ident); ok {
					children = append(children, id.Name)
				}
			}
		}
		return true
	})
	return hasCall(body, func(call *ast.CallExpr) bool {
		fn, ok := call.Fun.(*ast.Ident)
		if !ok || fn.Name != "append" {
			return false
		}
		for _, arg := range call.Args[1:] {
			if id, ok := arg.(*ast.Ident); ok && slices.Contains(children, id.Name) {
				return true
			}
		}
		return false
	})
}

func hasCall(body ast.Node, match func(*ast.CallExpr) bool) bool {
	found := false
	ast.Inspect(body, func(n ast.Node) bool {
		if call, ok := n.(*ast.CallExpr); ok && match(call) {
			found = true
		}
		return !found
	})
	return found
}

// TestWalkSteps: SkipChildren keeps a walk off a page's subtree, so a
// walk of the internal levels reads no leaf, and Stop ends the walk
// where the visitor says (leaves come in key order).
func TestWalkSteps(t *testing.T) {
	e := newEnv(t, 512)
	for i := 0; i < 3000; i++ {
		e.put(t, i)
	}
	st, err := e.tree.GatherStats()
	if err != nil {
		t.Fatal(err)
	}
	root, _ := e.tree.Root()
	var leaves []storage.PageID
	internals := 0
	err = Walk(e.pager, root, func(n *Node) (Step, error) {
		if n.Page.Type() == storage.PageLeaf {
			leaves = append(leaves, n.ID)
			return Descend, nil
		}
		internals++
		if n.Level == 1 {
			return SkipChildren, nil
		}
		return Descend, nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(leaves) != 0 || internals != st.InternalPages {
		t.Errorf("skipping base pages' children: %d leaves and %d of %d internal pages visited",
			len(leaves), internals, st.InternalPages)
	}
	err = Walk(e.pager, root, func(n *Node) (Step, error) {
		if n.Page.Type() != storage.PageLeaf {
			return Descend, nil
		}
		leaves = append(leaves, n.ID)
		if len(leaves) == 3 {
			return Stop, nil
		}
		return Descend, nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if !slices.Equal(leaves, st.LeafIDs[:3]) {
		t.Errorf("stopped walk visited leaves %v, want the first three %v", leaves, st.LeafIDs[:3])
	}
}
