// Package fixunfix enforces the pager pin protocol (PR 1 house rule):
// every frame obtained from Pager.Fix / Allocate* must be released by
// Pager.Unfix on every path out of the acquiring function, unless
// custody genuinely transfers — the frame is returned, stored into a
// structure, or handed to a helper that itself releases or stores it.
//
// v2 is interprocedural. A whole-program fixed point computes, for
// every function in the module, a may-summary:
//
//   - pinned:   result indices that carry a freshly pinned frame
//     (seeded by Pager.Fix/Allocate* result 0, propagated through
//     helpers that return those results, unless they also store it);
//   - releases: parameter indices the function eventually passes to
//     Pager.Unfix, directly or through further helpers;
//   - stores:   parameter indices the function stores into a field,
//     slice, map, channel or closure — custody leaves the caller.
//
// The per-function check then classifies each use of a pinned frame:
//
//   - a release when it reaches a releases-parameter;
//   - an escape when it is returned, stored, or reaches a
//     stores-parameter (or an unresolvable callee — conservative);
//   - neutral when it is a selector receiver, a nil comparison, an
//     assignment target, or — the v2 change — a bare argument to a
//     helper that neither releases nor stores it. v1 treated any bare
//     pass as an escape, which let `check(f)`-style helpers silently
//     discharge the obligation; now the obligation stays with the
//     caller until a summary proves it moved.
//
// Two checks run per function: totality (a pinned frame with no
// release and no escape anywhere is a definite leak) and early-return
// paths (each return lexically after a straight-line fix must be
// preceded by a release or escape; the `if err != nil` guard on the
// fix's own error is exempt — the frame is nil there). Fixes inside
// loops get only the totality check. Methods on Pager and Frame are
// exempt: the pool manages pin counts directly.
package fixunfix

import (
	"go/ast"
	"go/token"
	"go/types"

	"repro/internal/analysis"
)

// Analyzer is the fixunfix check.
var Analyzer = &analysis.Analyzer{
	Name:       "fixunfix",
	Doc:        "every Pager.Fix/Allocate result must be Unfixed or transfer custody on all paths",
	RunProgram: run,
}

// fixMethods are the pin-acquiring methods on Pager.
var fixMethods = map[string]bool{
	"Fix":         true,
	"Allocate":    true,
	"AllocateEnd": true,
	"AllocateIn":  true,
	"AllocateAt":  true,
}

// maxSummaryRounds bounds the fixed point; summaries only grow, so in
// practice convergence takes call-chain-depth rounds.
const maxSummaryRounds = 30

// summary is one function's may-behavior with respect to pinned frames.
type summary struct {
	pinned   map[int]bool // result index carries a pinned frame
	releases map[int]bool // param index reaches Pager.Unfix
	stores   map[int]bool // param index is stored (custody transfer)
}

func newSummary() *summary {
	return &summary{
		pinned:   make(map[int]bool),
		releases: make(map[int]bool),
		stores:   make(map[int]bool),
	}
}

// state is the whole-program analysis context.
type state struct {
	pass *analysis.ProgramPass
	sums map[string]*summary // types.Func.FullName -> summary
}

func run(pass *analysis.ProgramPass) error {
	st := &state{pass: pass, sums: make(map[string]*summary)}
	st.buildSummaries()
	for _, pkg := range pass.Prog.Packages {
		for _, file := range pkg.Files {
			for _, decl := range file.Decls {
				fd, ok := decl.(*ast.FuncDecl)
				if !ok || fd.Body == nil {
					continue
				}
				if recvIsPoolInternal(pkg.Info, fd) {
					continue
				}
				for _, scope := range scopesIn(fd.Body) {
					st.checkScope(pkg.Info, scope)
				}
			}
		}
	}
	return nil
}

// --- summaries ---

// buildSummaries iterates the module's FuncDecls to a fixed point.
func (st *state) buildSummaries() {
	type fn struct {
		decl *ast.FuncDecl
		info *types.Info
		key  string
	}
	var fns []fn
	for _, pkg := range st.pass.Prog.Packages {
		for _, file := range pkg.Files {
			for _, decl := range file.Decls {
				fd, ok := decl.(*ast.FuncDecl)
				if !ok || fd.Body == nil {
					continue
				}
				obj, ok := pkg.Info.Defs[fd.Name].(*types.Func)
				if !ok {
					continue
				}
				key := obj.FullName()
				st.sums[key] = newSummary()
				fns = append(fns, fn{decl: fd, info: pkg.Info, key: key})
			}
		}
	}
	for round := 0; round < maxSummaryRounds; round++ {
		changed := false
		for _, f := range fns {
			if st.summarize(f.info, f.decl, st.sums[f.key]) {
				changed = true
			}
		}
		if !changed {
			return
		}
	}
}

// summarize recomputes one function's summary in place; reports growth.
func (st *state) summarize(info *types.Info, fd *ast.FuncDecl, sum *summary) bool {
	grew := false
	set := func(m map[int]bool, i int) {
		if !m[i] {
			m[i] = true
			grew = true
		}
	}

	// Frame-typed parameters, by index.
	params := make(map[types.Object]int)
	idx := 0
	if fd.Type.Params != nil {
		for _, field := range fd.Type.Params.List {
			for _, name := range field.Names {
				if obj := info.Defs[name]; obj != nil && isFrameType(obj.Type()) {
					params[obj] = idx
				}
				idx++
			}
			if len(field.Names) == 0 {
				idx++
			}
		}
	}

	// Locals pinned by a summarized call in this body.
	pinnedVars := make(map[types.Object]bool)
	ast.Inspect(fd.Body, func(n ast.Node) bool {
		as, ok := n.(*ast.AssignStmt)
		if !ok || len(as.Rhs) != 1 {
			return true
		}
		call, ok := as.Rhs[0].(*ast.CallExpr)
		if !ok {
			return true
		}
		cs, known := st.calleeSummary(info, call)
		if !known || cs == nil {
			return true
		}
		for k := range cs.pinned {
			if k < len(as.Lhs) {
				if obj := objOf(info, as.Lhs[k]); obj != nil {
					pinnedVars[obj] = true
				}
			}
		}
		return true
	})

	// Classify parameter uses and returned pinned values.
	var walk func(parent, n ast.Node)
	walk = func(parent, n ast.Node) {
		switch p := n.(type) {
		case *ast.ReturnStmt:
			for k, res := range p.Results {
				if id, ok := ast.Unparen(res).(*ast.Ident); ok {
					if obj := info.Uses[id]; pinnedVars[obj] && !st.discharged(info, fd.Body, obj) {
						set(sum.pinned, k)
					}
					continue
				}
				if call, ok := ast.Unparen(res).(*ast.CallExpr); ok {
					if cs, known := st.calleeSummary(info, call); known && cs != nil {
						// `return p.Fix(id)`: callee results align with ours
						// when the call is the k-th (usually only) result.
						for ci := range cs.pinned {
							if len(p.Results) == 1 {
								set(sum.pinned, ci)
							} else {
								set(sum.pinned, k+ci)
							}
						}
					}
				}
			}
		}
		if id, ok := n.(*ast.Ident); ok {
			pi, isParam := params[info.Uses[id]]
			if !isParam {
				return
			}
			switch k := st.classifyUse(info, parent, id); k {
			case useRelease:
				set(sum.releases, pi)
			case useEscape:
				set(sum.stores, pi)
			}
			return
		}
		children(n, func(c ast.Node) { walk(n, c) })
	}
	walk(nil, fd.Body)
	return grew
}

// discharged reports whether body stores the frame obj somewhere other
// than its results (a pin ledger recording a fix): the caller then gets
// a borrowed reference. A release on some path does not count, as the
// paths that return the frame still hand its pin up.
func (st *state) discharged(info *types.Info, body *ast.BlockStmt, obj types.Object) bool {
	found := false
	var walk func(parent, n ast.Node)
	walk = func(parent, n ast.Node) {
		if found {
			return
		}
		if id, ok := n.(*ast.Ident); ok && info.Uses[id] == obj {
			if _, ret := parent.(*ast.ReturnStmt); !ret {
				found = st.classifyUse(info, parent, id) == useEscape
			}
			return
		}
		children(n, func(c ast.Node) { walk(n, c) })
	}
	walk(nil, body)
	return found
}

// isFrameType reports *T where T is a named type called Frame.
func isFrameType(t types.Type) bool {
	p, ok := t.(*types.Pointer)
	if !ok {
		return false
	}
	n, ok := p.Elem().(*types.Named)
	return ok && n.Obj().Name() == "Frame"
}

// calleeSummary resolves a call's effect on frame arguments. known is
// false when the callee cannot be resolved (function values, interface
// methods) — callers must be conservative.
func (st *state) calleeSummary(info *types.Info, call *ast.CallExpr) (*summary, bool) {
	var obj types.Object
	switch fun := ast.Unparen(call.Fun).(type) {
	case *ast.Ident:
		obj = info.Uses[fun]
	case *ast.SelectorExpr:
		obj = info.Uses[fun.Sel]
	default:
		return nil, false
	}
	switch o := obj.(type) {
	case *types.Builtin:
		if o.Name() == "append" {
			// Appending a frame to a slice stores it.
			s := newSummary()
			for i := range call.Args {
				s.stores[i] = true
			}
			return s, true
		}
		return newSummary(), true // len, cap, ... are neutral
	case *types.Func:
		if recv := recvTypeName(o); recv != "" {
			switch {
			case recv == "Pager" && fixMethods[o.Name()]:
				s := newSummary()
				s.pinned[0] = true
				return s, true
			case recv == "Pager" && o.Name() == "Unfix":
				s := newSummary()
				s.releases[0] = true
				return s, true
			case recv == "Pager" || recv == "Frame":
				return newSummary(), true // pool internals are neutral
			}
		}
		if s, ok := st.sums[o.FullName()]; ok {
			return s, true
		}
		// External function without source: frames cannot reach
		// Unfix there, but we cannot see stores either.
		return nil, false
	case *types.TypeName:
		return newSummary(), true // conversion
	}
	return nil, false
}

// recvTypeName names a method's receiver type, "" for plain functions.
func recvTypeName(f *types.Func) string {
	sig, ok := f.Type().(*types.Signature)
	if !ok || sig.Recv() == nil {
		return ""
	}
	return namedTypeName(sig.Recv().Type())
}

// recvIsPoolInternal reports whether fd is a method on Pager or Frame.
func recvIsPoolInternal(info *types.Info, fd *ast.FuncDecl) bool {
	if fd.Recv == nil || len(fd.Recv.List) == 0 {
		return false
	}
	name := namedTypeName(info.TypeOf(fd.Recv.List[0].Type))
	return name == "Pager" || name == "Frame"
}

func namedTypeName(t types.Type) string {
	if t == nil {
		return ""
	}
	if p, ok := t.(*types.Pointer); ok {
		t = p.Elem()
	}
	if n, ok := t.(*types.Named); ok {
		return n.Obj().Name()
	}
	return ""
}

// scopesIn returns body plus every function-literal body nested in it.
func scopesIn(body *ast.BlockStmt) []*ast.BlockStmt {
	scopes := []*ast.BlockStmt{body}
	ast.Inspect(body, func(n ast.Node) bool {
		if fl, ok := n.(*ast.FuncLit); ok && fl.Body != nil {
			scopes = append(scopes, fl.Body)
		}
		return true
	})
	return scopes
}

// fixPoint is one pin-acquiring assignment result.
type fixPoint struct {
	stmt   *ast.AssignStmt
	frame  types.Object // the *Frame variable
	errObj types.Object // the error result of the same assignment (may be nil)
	method string
	inLoop bool
}

// useKind classifies one identifier use of the frame variable.
type useKind int

const (
	useNeutral useKind = iota
	useRelease
	useEscape
)

// classifyUse decides what one identifier use does with a frame, given
// its parent node. Shared between the summary builder (parameter uses)
// and the per-function check (pinned-local uses).
func (st *state) classifyUse(info *types.Info, parent ast.Node, id *ast.Ident) useKind {
	switch p := parent.(type) {
	case *ast.SelectorExpr:
		if p.X == id {
			return useNeutral // f.Data(), f.Lock(), f.ID()...
		}
	case *ast.BinaryExpr:
		if p.Op == token.EQL || p.Op == token.NEQ {
			return useNeutral // nil comparison
		}
	case *ast.AssignStmt:
		for _, l := range p.Lhs {
			if l == id {
				return useNeutral // assignment target
			}
		}
		return useEscape // aliased or stored via assignment
	case *ast.CallExpr:
		if p.Fun == id {
			return useNeutral // calling a frame is not expressible; defensive
		}
		cs, known := st.calleeSummary(info, p)
		if !known {
			return useEscape // unresolvable callee: assume custody moved
		}
		argIdx := -1
		for i, a := range p.Args {
			if ast.Unparen(a) == id {
				argIdx = i
				break
			}
		}
		if argIdx < 0 {
			return useNeutral // nested deeper; the nested parent classifies it
		}
		switch {
		case cs.releases[argIdx]:
			return useRelease
		case cs.stores[argIdx]:
			return useEscape
		default:
			// v2: a bare pass to a helper that provably neither
			// releases nor stores leaves the obligation here.
			return useNeutral
		}
	}
	return useEscape // returned, composite literal, channel send, &f, ...
}

// useSites maps each frame-identifier use position to its kind.
func (st *state) useSites(info *types.Info, root ast.Node, frame types.Object) map[token.Pos]useKind {
	sites := make(map[token.Pos]useKind)
	var walk func(parent, n ast.Node)
	walk = func(parent, n ast.Node) {
		if id, ok := n.(*ast.Ident); ok && info.Uses[id] == frame {
			sites[id.Pos()] = st.classifyUse(info, parent, id)
			return
		}
		children(n, func(c ast.Node) { walk(n, c) })
	}
	walk(nil, root)
	return sites
}

// children invokes fn on n's immediate children.
func children(n ast.Node, fn func(ast.Node)) {
	first := true
	ast.Inspect(n, func(c ast.Node) bool {
		if first {
			first = false
			return true
		}
		if c != nil {
			fn(c)
		}
		return false
	})
}

// checkScope analyzes one function body.
func (st *state) checkScope(info *types.Info, body *ast.BlockStmt) {
	points := st.collectFixPoints(info, body)
	for _, fp := range points {
		if fp.frame == nil {
			continue
		}
		sites := st.useSites(info, body, fp.frame)
		released, escaped := false, false
		for _, k := range sites {
			switch k {
			case useRelease:
				released = true
			case useEscape:
				escaped = true
			}
		}
		if !released && !escaped {
			st.pass.Reportf(fp.stmt.Pos(),
				"frame %s pinned by %s is never Unfixed and never escapes (pin leak)",
				fp.frame.Name(), fp.method)
			continue
		}
		if !fp.inLoop {
			st.checkReturnPaths(info, body, fp, sites)
		}
	}
}

// collectFixPoints finds pin-acquiring assignments whose statements
// belong directly to body's scope (not to a nested function literal).
func (st *state) collectFixPoints(info *types.Info, body *ast.BlockStmt) []*fixPoint {
	var points []*fixPoint
	var walk func(n ast.Node, inLoop bool)
	walk = func(n ast.Node, inLoop bool) {
		switch s := n.(type) {
		case *ast.FuncLit:
			return // separate scope
		case *ast.ForStmt:
			if s.Body != nil {
				walk(s.Body, true)
			}
			return
		case *ast.RangeStmt:
			if s.Body != nil {
				walk(s.Body, true)
			}
			return
		case *ast.AssignStmt:
			for _, fp := range st.asFixPoints(info, s) {
				fp.inLoop = inLoop
				points = append(points, fp)
			}
		}
		children(n, func(c ast.Node) { walk(c, inLoop) })
	}
	walk(body, false)
	return points
}

// asFixPoints recognises assignments whose callee returns pinned
// frames — `f, err := p.Fix(...)` and helper wrappers alike — one
// fixPoint per pinned result.
func (st *state) asFixPoints(info *types.Info, s *ast.AssignStmt) []*fixPoint {
	if len(s.Rhs) != 1 {
		return nil
	}
	call, ok := s.Rhs[0].(*ast.CallExpr)
	if !ok {
		return nil
	}
	cs, known := st.calleeSummary(info, call)
	if !known || cs == nil || len(cs.pinned) == 0 {
		return nil
	}
	method := calleeName(info, call)
	var errObj types.Object
	for _, l := range s.Lhs {
		if obj := objOf(info, l); obj != nil && isErrorType(obj.Type()) {
			errObj = obj
		}
	}
	var points []*fixPoint
	for k := range cs.pinned {
		if k >= len(s.Lhs) {
			continue
		}
		obj := objOf(info, s.Lhs[k])
		if obj == nil || !isFrameType(obj.Type()) {
			continue
		}
		points = append(points, &fixPoint{stmt: s, frame: obj, errObj: errObj, method: method})
	}
	return points
}

func isErrorType(t types.Type) bool {
	return t != nil && t.String() == "error"
}

// calleeName renders the callee for diagnostics: Recv.Method or name.
func calleeName(info *types.Info, call *ast.CallExpr) string {
	switch fun := ast.Unparen(call.Fun).(type) {
	case *ast.Ident:
		return fun.Name
	case *ast.SelectorExpr:
		if f, ok := info.Uses[fun.Sel].(*types.Func); ok {
			if recv := recvTypeName(f); recv != "" {
				return recv + "." + f.Name()
			}
		}
		return fun.Sel.Name
	}
	return "call"
}

func objOf(info *types.Info, e ast.Expr) types.Object {
	id, ok := e.(*ast.Ident)
	if !ok || id.Name == "_" {
		return nil
	}
	if o := info.Defs[id]; o != nil {
		return o
	}
	return info.Uses[id]
}

// --- early-return path analysis ---

// pathCtx carries shared state for one fix point's path walk.
type pathCtx struct {
	st    *state
	info  *types.Info
	fp    *fixPoint
	sites map[token.Pos]useKind
}

// handled reports whether node contains a release or escape use.
func (c *pathCtx) handled(n ast.Node) bool {
	found := false
	ast.Inspect(n, func(x ast.Node) bool {
		if id, ok := x.(*ast.Ident); ok {
			if k, ok := c.sites[id.Pos()]; ok && k != useNeutral {
				found = true
			}
		}
		return !found
	})
	return found
}

// mentionsErr reports whether e mentions the fix's error result.
func (c *pathCtx) mentionsErr(e ast.Expr) bool {
	if c.fp.errObj == nil || e == nil {
		return false
	}
	found := false
	ast.Inspect(e, func(n ast.Node) bool {
		if id, ok := n.(*ast.Ident); ok && c.info.Uses[id] == c.fp.errObj {
			found = true
		}
		return !found
	})
	return found
}

// checkReturnPaths walks the statements lexically after fp.stmt and
// reports returns reachable without a release or escape. The walk
// bails out (no report) on constructs it cannot reason about soundly:
// loops, selects, labeled statements, goto/break/continue.
func (st *state) checkReturnPaths(info *types.Info, body *ast.BlockStmt, fp *fixPoint, sites map[token.Pos]useKind) {
	chain := blockChainTo(body, fp.stmt)
	if chain == nil {
		return
	}
	c := &pathCtx{st: st, info: info, fp: fp, sites: sites}
	released := false
	for level := len(chain) - 1; level >= 0; level-- {
		blk := chain[level].block
		idx := chain[level].index
		cont, rel := c.walkStmts(blk.List[idx+1:], released)
		released = rel
		if !cont {
			return
		}
	}
}

type blockPos struct {
	block *ast.BlockStmt
	index int
}

// blockChainTo returns, outermost block first, the statement index on
// the path from body down to the block directly holding target.
func blockChainTo(body *ast.BlockStmt, target ast.Stmt) []blockPos {
	var chain []blockPos
	var find func(b *ast.BlockStmt) bool
	find = func(b *ast.BlockStmt) bool {
		for i, s := range b.List {
			if s == target {
				chain = append(chain, blockPos{b, i})
				return true
			}
			if !containsNode(s, target) {
				continue
			}
			chain = append(chain, blockPos{b, i})
			found := false
			ast.Inspect(s, func(n ast.Node) bool {
				if found {
					return false
				}
				if inner, ok := n.(*ast.BlockStmt); ok {
					if containsNode(inner, target) {
						found = find(inner)
						return false
					}
				}
				return true
			})
			return found
		}
		return false
	}
	if !find(body) {
		return nil
	}
	return chain
}

func containsNode(root, target ast.Node) bool {
	found := false
	ast.Inspect(root, func(n ast.Node) bool {
		if n == target {
			found = true
		}
		return !found
	})
	return found
}

// walkStmts scans a statement list. released is the path state on
// entry; it returns (continue-to-lexical-successors, released-after).
func (c *pathCtx) walkStmts(stmts []ast.Stmt, released bool) (bool, bool) {
	for _, s := range stmts {
		cont, rel := c.walkStmt(s, released)
		released = rel
		if !cont {
			return false, released
		}
	}
	return true, released
}

func (c *pathCtx) walkStmt(s ast.Stmt, released bool) (bool, bool) {
	if released {
		return false, true
	}
	switch n := s.(type) {
	case *ast.ExprStmt, *ast.DeferStmt, *ast.GoStmt:
		if c.handled(s) {
			return false, true
		}
	case *ast.AssignStmt:
		// Reassignment of the frame variable ends this fix point's
		// obligation window (the new value is its own fix point).
		for _, l := range n.Lhs {
			if id, ok := l.(*ast.Ident); ok {
				if c.info.Uses[id] == c.fp.frame || c.info.Defs[id] == c.fp.frame {
					return false, released
				}
			}
		}
		if c.handled(s) {
			return false, true
		}
	case *ast.DeclStmt, *ast.SendStmt, *ast.IncDecStmt:
		if c.handled(s) {
			return false, true
		}
	case *ast.ReturnStmt:
		if c.handled(n) {
			return false, true // escapes via return
		}
		c.st.pass.Reportf(n.Pos(),
			"return leaks frame %s pinned by %s at line %d (no Unfix on this path)",
			c.fp.frame.Name(), c.fp.method,
			c.st.pass.Prog.Fset.Position(c.fp.stmt.Pos()).Line)
		return false, released
	case *ast.IfStmt:
		return c.walkIf(n, released)
	case *ast.BlockStmt:
		return c.walkStmts(n.List, released)
	case *ast.SwitchStmt, *ast.TypeSwitchStmt:
		var clauses []ast.Stmt
		if sw, ok := n.(*ast.SwitchStmt); ok {
			clauses = sw.Body.List
		} else {
			clauses = n.(*ast.TypeSwitchStmt).Body.List
		}
		for _, cl := range clauses {
			c.walkStmts(cl.(*ast.CaseClause).Body, released)
		}
		// Cases may or may not release; keep scanning with the entry
		// state (misses are caught by the totality check).
	case *ast.ForStmt, *ast.RangeStmt, *ast.SelectStmt, *ast.LabeledStmt,
		*ast.BranchStmt:
		// Out of scope for lexical path analysis.
		return false, released
	}
	return true, released
}

// walkIf handles an if statement on the path.
func (c *pathCtx) walkIf(n *ast.IfStmt, released bool) (bool, bool) {
	// The guard on the fix's own error result is exempt: the frame is
	// nil when the fix failed.
	if c.mentionsErr(n.Cond) {
		return true, released
	}
	if n.Init != nil {
		cont, rel := c.walkStmt(n.Init, released)
		released = rel
		if !cont {
			return false, released
		}
	}
	_, bodyReleased := c.walkStmts(n.Body.List, released)
	elseReleased := false
	switch e := n.Else.(type) {
	case *ast.BlockStmt:
		_, elseReleased = c.walkStmts(e.List, released)
	case *ast.IfStmt:
		_, elseReleased = c.walkIf(e, released)
	}
	// With an else, one arm always runs: if both arms end released (or
	// terminated after releasing), the continuation is covered. Without
	// an else the fallthrough may bypass the body, so the entry state
	// carries through.
	if n.Else != nil && bodyReleased && elseReleased {
		return false, true
	}
	return true, released
}
