// Package nolockio enforces the PR 2 concurrency discipline: no
// pool/shard/manager mutex may be held across disk I/O, fault-injection
// points, log forces, or backoff sleeps. A mutex held across a
// millisecond-scale operation serialises every unrelated operation
// behind it; held across a fault point, it lets an injected crash panic
// unwind with the lock still conceptually "owned", wedging the shard.
//
// The check is intraprocedural and lexical: within one function body,
// calls to X.Lock()/X.RLock() on a tracked mutex open a held region
// that X.Unlock()/X.RUnlock() closes (a deferred unlock never closes
// it), and any blocking call inside a held region is reported.
//
// Tracked mutexes: fields named `mu` or `*Mu` — the shard mutex, the
// pager's allocMu/depMu/rngMu, the WAL and lock-manager mu — plus the
// shard.lock() wrapper. Frame latches (Frame's embedded RWMutex), the
// per-frame flushMu and the database's ckptMu are exempt by design: the
// pin protocol makes holding them across I/O safe and sometimes
// required (a frame's read latch is held while its image is copied;
// flushMu serialises flushes of one page across the disk write), and
// ckptMu serialises whole checkpoints — a flush, a force and a
// truncation each — for which nothing but another checkpoint waits.
//
// Blocking calls: time.Sleep, Disk.Read/Write/MarkFree/ScanTypes,
// Injector.Hit/HitTorn, FlushTo on anything, Flush on Log, the
// retryIO/retryBackoff/flushFrame helpers (each sleeps or does I/O),
// Sync/WriteAt/Truncate on an *os.File, and the WAL file device's
// sync/rotate/createSegment/syncDir/retain. The device's write is
// absent on purpose: framing the tail and handing it to the page cache
// under the log mutex is what orders the log's bytes (the force
// pipeline's "written" watermark); the fsync that makes them durable is
// what must run with the mutex released. FileDisk's mu is the page
// file's own serialization — its size, free map and statistics change
// with the I/O — so the *os.File calls are not reported under it.
//
// A function whose doc comment carries `//vet:holds(expr.mu)` is
// analyzed as if that mutex were locked on entry — for *Locked-style
// helpers whose contract is "called with the mutex held".
package nolockio

import (
	"go/ast"
	"go/types"
	"regexp"
	"strings"

	"repro/internal/analysis"
)

// Analyzer is the nolockio check.
var Analyzer = &analysis.Analyzer{
	Name: "nolockio",
	Doc:  "no pool/shard mutex may be held across I/O, fault points, or sleeps",
	Run:  run,
}

// exemptMutexes are mutex field names that are allowed across I/O by
// design (see package doc).
var exemptMutexes = map[string]bool{"flushMu": true, "ckptMu": true}

// blockingMethods maps method name -> receiver type name ("" = any
// receiver) for calls that sleep, touch the disk, or hit fault points.
var blockingMethods = map[string]string{
	"Read":         "Disk",
	"Write":        "Disk",
	"MarkFree":     "Disk",
	"ScanTypes":    "Disk",
	"Hit":          "Injector",
	"HitTorn":      "Injector",
	"FlushTo":      "",
	"Flush":        "Log",
	"retryIO":      "",
	"retryBackoff": "",
	"flushFrame":   "",

	"Sync":          "File",
	"WriteAt":       "File",
	"Truncate":      "File",
	"sync":          "SegmentedLog",
	"rotate":        "SegmentedLog",
	"createSegment": "SegmentedLog",
	"syncDir":       "SegmentedLog",
	"retain":        "SegmentedLog",
}

// fileOwners are the types whose mutex may be held across the *os.File
// entries of blockingMethods (see package doc).
var fileOwners = map[string]bool{"FileDisk": true}

var holdsRe = regexp.MustCompile(`//vet:holds\(([^)]+)\)`)

// event is one lock transition or blocking call, in source order.
type event struct {
	kind  string // "acquire", "release", "block"
	key   string // mutex key for acquire/release
	owner string // acquire: named type of the value the mutex is a field of
	name  string // callee description for block
	file  bool   // block: an *os.File method
	pos   ast.Node
}

func run(pass *analysis.Pass) error {
	for _, file := range pass.Files {
		for _, decl := range file.Decls {
			fd, ok := decl.(*ast.FuncDecl)
			if !ok || fd.Body == nil {
				continue
			}
			checkFunc(pass, fd)
		}
	}
	return nil
}

func checkFunc(pass *analysis.Pass, fd *ast.FuncDecl) {
	held := make(map[string]string) // mutex key -> owner type
	if fd.Doc != nil {
		for _, c := range fd.Doc.List {
			if m := holdsRe.FindStringSubmatch(c.Text); m != nil {
				for _, k := range strings.Split(m[1], ",") {
					held[strings.TrimSpace(k)] = ""
				}
			}
		}
	}
	for _, ev := range collectEvents(pass, fd.Body) {
		switch ev.kind {
		case "acquire":
			held[ev.key] = ev.owner
		case "release":
			delete(held, ev.key)
		case "block":
			if len(held) > 0 && !(ev.file && allFileOwners(held)) {
				pass.Reportf(ev.pos.Pos(),
					"call to %s while holding %s (PR 2 rule: no pool/shard mutex across I/O, fault points, or sleeps)",
					ev.name, strings.Join(keys(held), ", "))
			}
		}
	}
}

func allFileOwners(held map[string]string) bool {
	for _, owner := range held {
		if !fileOwners[owner] {
			return false
		}
	}
	return true
}

func keys(m map[string]string) []string {
	var out []string
	for k := range m {
		out = append(out, k)
	}
	// Deterministic order for diagnostics.
	for i := 1; i < len(out); i++ {
		for j := i; j > 0 && out[j] < out[j-1]; j-- {
			out[j], out[j-1] = out[j-1], out[j]
		}
	}
	return out
}

// collectEvents walks body in source order, emitting lock transitions
// and blocking calls. Deferred unlocks are skipped (they never close a
// region); nested function literals are included — a closure executed
// inline (retryIO's fn) runs under whatever its caller holds, and the
// lexical model approximates that.
func collectEvents(pass *analysis.Pass, body *ast.BlockStmt) []event {
	var events []event
	ast.Inspect(body, func(n ast.Node) bool {
		switch s := n.(type) {
		case *ast.DeferStmt:
			// A deferred Unlock must not close the held region; a
			// deferred blocking call is still a blocking call, but its
			// execution point is unknowable lexically — skip both.
			return false
		case *ast.CallExpr:
			if ev, ok := classifyCall(pass, s); ok {
				events = append(events, ev)
			}
		}
		return true
	})
	return events
}

func classifyCall(pass *analysis.Pass, call *ast.CallExpr) (event, bool) {
	sel, ok := call.Fun.(*ast.SelectorExpr)
	if !ok {
		return event{}, false
	}
	name := sel.Sel.Name
	switch name {
	case "Lock", "RLock":
		if key, ok := mutexKey(sel.X); ok {
			owner := ""
			if field, ok := sel.X.(*ast.SelectorExpr); ok {
				owner = namedTypeName(pass.TypesInfo.TypeOf(field.X))
			}
			return event{kind: "acquire", key: key, owner: owner, pos: call}, true
		}
	case "Unlock", "RUnlock":
		if key, ok := mutexKey(sel.X); ok {
			return event{kind: "release", key: key, pos: call}, true
		}
	case "lock":
		// shard.lock(&stats) wraps s.mu.Lock.
		if namedTypeName(pass.TypesInfo.TypeOf(sel.X)) == "shard" {
			return event{kind: "acquire", key: exprString(sel.X) + ".mu", pos: call}, true
		}
	case "unlock":
		// shard.unlock() wraps s.mu.Unlock.
		if namedTypeName(pass.TypesInfo.TypeOf(sel.X)) == "shard" {
			return event{kind: "release", key: exprString(sel.X) + ".mu", pos: call}, true
		}
	case "Sleep":
		if id, ok := sel.X.(*ast.Ident); ok {
			if _, isPkg := pass.TypesInfo.Uses[id].(*types.PkgName); isPkg && id.Name == "time" {
				return event{kind: "block", name: "time.Sleep", pos: call}, true
			}
		}
	}
	if recvWant, isBlocking := blockingMethods[name]; isBlocking {
		recv := namedTypeName(pass.TypesInfo.TypeOf(sel.X))
		if recvWant == "" || recv == recvWant {
			label := name
			if recv != "" {
				label = recv + "." + name
			}
			return event{kind: "block", name: label, file: recv == "File", pos: call}, true
		}
	}
	return event{}, false
}

// mutexKey returns the canonical key for a mutex expression, and
// whether it is tracked.
func mutexKey(x ast.Expr) (string, bool) {
	s := exprString(x)
	parts := strings.Split(s, ".")
	last := parts[len(parts)-1]
	if exemptMutexes[last] {
		return "", false
	}
	if last == "mu" || strings.HasSuffix(last, "Mu") {
		return s, true
	}
	return "", false
}

// exprString renders a selector chain (x, x.y, x.y.z); other shapes
// yield a non-mutex string.
func exprString(x ast.Expr) string {
	switch e := x.(type) {
	case *ast.Ident:
		return e.Name
	case *ast.SelectorExpr:
		return exprString(e.X) + "." + e.Sel.Name
	case *ast.ParenExpr:
		return exprString(e.X)
	}
	return "<expr>"
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
