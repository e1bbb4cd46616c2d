package btree

import (
	"go/ast"
	"go/parser"
	"go/token"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// TestOneReleasePath pins the shape of page-lock release: in the
// product code of this package and of internal/core, no call passes a
// pageRes(...) argument to an Unlock, and no call reaches the lock
// manager's Couple (which releases or downgrades a parent), outside
// Hold's methods. Every walk records the page locks it takes in a Hold
// and gives them back through it, so no exit path keeps its own list of
// locks to let go.
func TestOneReleasePath(t *testing.T) {
	var found []string
	fset := token.NewFileSet()
	for _, dir := range []string{".", "../core"} {
		entries, err := os.ReadDir(dir)
		if err != nil {
			t.Fatal(err)
		}
		for _, e := range entries {
			name := e.Name()
			if !strings.HasSuffix(name, ".go") || strings.HasSuffix(name, "_test.go") {
				continue
			}
			f, err := parser.ParseFile(fset, filepath.Join(dir, name), nil, 0)
			if err != nil {
				t.Fatal(err)
			}
			for _, decl := range f.Decls {
				fd, ok := decl.(*ast.FuncDecl)
				if !ok || fd.Body == nil || isHoldMethod(fd) {
					continue
				}
				ast.Inspect(fd.Body, func(n ast.Node) bool {
					if call, ok := n.(*ast.CallExpr); ok && (isPageUnlock(call) || isManagerCouple(call)) {
						found = append(found, fset.Position(call.Pos()).String())
					}
					return true
				})
			}
		}
	}
	if len(found) > 0 {
		t.Errorf("%d page releases outside Hold's methods:\n%s",
			len(found), strings.Join(found, "\n"))
	}
}

func isHoldMethod(fd *ast.FuncDecl) bool {
	if fd.Recv == nil || len(fd.Recv.List) != 1 {
		return false
	}
	typ := fd.Recv.List[0].Type
	if star, ok := typ.(*ast.StarExpr); ok {
		typ = star.X
	}
	id, ok := typ.(*ast.Ident)
	return ok && id.Name == "Hold"
}

// isPageUnlock reports X.Unlock(..., pageRes(...), ...).
func isPageUnlock(call *ast.CallExpr) bool {
	sel, ok := call.Fun.(*ast.SelectorExpr)
	if !ok || sel.Sel.Name != "Unlock" {
		return false
	}
	for _, arg := range call.Args {
		if inner, ok := arg.(*ast.CallExpr); ok {
			if id, ok := inner.Fun.(*ast.Ident); ok && id.Name == "pageRes" {
				return true
			}
		}
	}
	return false
}

// isManagerCouple reports X.Couple(owner, res, mode, opt, parent,
// parentTo): the lock manager's coupling step, told from Hold.Couple
// (three arguments) by its arity.
func isManagerCouple(call *ast.CallExpr) bool {
	sel, ok := call.Fun.(*ast.SelectorExpr)
	return ok && sel.Sel.Name == "Couple" && len(call.Args) == 6
}
