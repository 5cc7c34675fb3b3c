package lint

import (
	"go/ast"
	"go/token"
	"go/types"
)

// Lockspan flags blocking operations performed while a sync.Mutex or
// sync.RWMutex is held: channel sends and receives, selects without a
// default, clock sleeps, sync.WaitGroup/Cond waits, tracked channel
// (vtime.Chan) sends and receives, and transport calls.
// Blocking under a lock serializes the data plane at best; under a
// SimClock it is worse — a worker parked on a channel while holding a lock
// that another worker needs stalls quiescence in ways that depend on
// scheduling, which is exactly what the determinism contract forbids. Code
// that must hand off under a lock (and can prove the send never blocks,
// e.g. a buffered reply channel sized for every possible sender) says so
// with //pqslint:allow lockspan <reason>.
var Lockspan = &Analyzer{
	Name: "lockspan",
	Doc: "flag blocking operations (channel send/recv, blocking select, clock sleeps, " +
		"WaitGroup waits, vtime.Chan send/recv, transport calls) while a sync.Mutex/RWMutex is held",
	Run: runLockspan,
}

func runLockspan(pass *Pass) error {
	for _, f := range pass.Files {
		ast.Inspect(f, func(n ast.Node) bool {
			for _, list := range stmtLists(n) {
				scanLockRegions(pass, list)
			}
			return true
		})
	}
	return nil
}

// stmtLists returns the statement lists hanging off n, so lock regions are
// detected inside blocks, case bodies and comm clauses alike.
func stmtLists(n ast.Node) [][]ast.Stmt {
	switch n := n.(type) {
	case *ast.BlockStmt:
		return [][]ast.Stmt{n.List}
	case *ast.CaseClause:
		return [][]ast.Stmt{n.Body}
	case *ast.CommClause:
		return [][]ast.Stmt{n.Body}
	}
	return nil
}

// scanLockRegions finds x.Lock()/x.RLock() calls in one statement list and
// checks the statements executed before the matching release for blocking
// operations. An inline x.Unlock()/x.RUnlock() ends the region — including
// one inside a nested branch, which conservatively ends the region for
// everything after that branch (the early-unlock-then-return pattern). A
// deferred unlock holds to the end of the list.
func scanLockRegions(pass *Pass, stmts []ast.Stmt) {
	for i, st := range stmts {
		recv, kind := mutexCall(pass.TypesInfo, st, false)
		if kind != "Lock" && kind != "RLock" {
			continue
		}
		scanRegion(pass, stmts[i+1:], recv)
	}
}

// scanRegion walks statements executed with lock held, in order, reporting
// blocking operations until the lock is released. It returns true when
// this list (or any branch inside it) released the lock; the caller stops
// scanning at that point, trading a little recall (code after a
// conditional release that returns may still hold the lock) for zero false
// positives on the unlock-then-act pattern the transport uses.
func scanRegion(pass *Pass, stmts []ast.Stmt, lock string) bool {
	for _, st := range stmts {
		if r, k := mutexCall(pass.TypesInfo, st, false); r == lock && (k == "Unlock" || k == "RUnlock") {
			return true
		}
		if scanStmt(pass, st, lock) {
			return true
		}
	}
	return false
}

// scanStmt checks one held-lock statement: control flow recurses through
// scanRegion so a nested release is seen; leaf statements are walked for
// blocking operations.
func scanStmt(pass *Pass, st ast.Stmt, lock string) bool {
	switch st := st.(type) {
	case *ast.BlockStmt:
		return scanRegion(pass, st.List, lock)
	case *ast.LabeledStmt:
		return scanStmt(pass, st.Stmt, lock)
	case *ast.IfStmt:
		reportBlockingExpr(pass, st.Cond, lock)
		released := scanStmt(pass, st.Body, lock)
		if st.Else != nil {
			released = scanStmt(pass, st.Else, lock) || released
		}
		return released
	case *ast.ForStmt:
		if st.Cond != nil {
			reportBlockingExpr(pass, st.Cond, lock)
		}
		return scanStmt(pass, st.Body, lock)
	case *ast.RangeStmt:
		if t, ok := pass.TypesInfo.Types[st.X]; ok {
			if _, isChan := t.Type.Underlying().(*types.Chan); isChan {
				pass.Reportf(st.Pos(), "range over channel while %s is held", lock)
			}
		}
		return scanStmt(pass, st.Body, lock)
	case *ast.SwitchStmt:
		return scanCaseBodies(pass, st.Body, lock)
	case *ast.TypeSwitchStmt:
		return scanCaseBodies(pass, st.Body, lock)
	case *ast.SelectStmt:
		blocking := true
		for _, c := range st.Body.List {
			if cc, ok := c.(*ast.CommClause); ok && cc.Comm == nil {
				blocking = false
			}
		}
		if blocking {
			pass.Reportf(st.Pos(), "select with no default while %s is held", lock)
		}
		released := false
		for _, c := range st.Body.List {
			if cc, ok := c.(*ast.CommClause); ok {
				released = scanRegion(pass, cc.Body, lock) || released
			}
		}
		return released
	default:
		reportBlocking(pass, st, lock)
		return false
	}
}

// scanCaseBodies scans each case clause of a switch body as its own
// held-lock region.
func scanCaseBodies(pass *Pass, body *ast.BlockStmt, lock string) bool {
	released := false
	for _, c := range body.List {
		if cc, ok := c.(*ast.CaseClause); ok {
			released = scanRegion(pass, cc.Body, lock) || released
		}
	}
	return released
}

// reportBlockingExpr reports blocking operations inside a bare expression
// (an if/for condition evaluated under the lock).
func reportBlockingExpr(pass *Pass, e ast.Expr, lock string) {
	reportBlocking(pass, &ast.ExprStmt{X: e}, lock)
}

// mutexCall recognizes a statement of the form x.Lock() / x.Unlock() /
// x.RLock() / x.RUnlock() where the method is sync's (directly or through
// an embedded mutex), returning the rendered receiver expression and the
// method name. With deferred set it matches the defer form instead.
func mutexCall(info *types.Info, st ast.Stmt, deferred bool) (recv, method string) {
	var call *ast.CallExpr
	if deferred {
		d, ok := st.(*ast.DeferStmt)
		if !ok {
			return "", ""
		}
		call = d.Call
	} else {
		e, ok := st.(*ast.ExprStmt)
		if !ok {
			return "", ""
		}
		if call, ok = e.X.(*ast.CallExpr); !ok {
			return "", ""
		}
	}
	sel, ok := call.Fun.(*ast.SelectorExpr)
	if !ok {
		return "", ""
	}
	fn, _ := info.Uses[sel.Sel].(*types.Func)
	if fn == nil || fn.Pkg() == nil || fn.Pkg().Path() != "sync" {
		return "", ""
	}
	switch fn.Name() {
	case "Lock", "RLock", "Unlock", "RUnlock":
		return exprString(sel.X), fn.Name()
	}
	return "", ""
}

// reportBlocking walks one statement of a lock region and reports blocking
// operations. Function literals are skipped: their bodies run on whatever
// goroutine eventually calls them, not under this lock.
func reportBlocking(pass *Pass, st ast.Stmt, lock string) {
	var walk func(n ast.Node) bool
	walk = func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.FuncLit:
			return false
		case *ast.SendStmt:
			pass.Reportf(n.Pos(), "channel send while %s is held", lock)
		case *ast.UnaryExpr:
			if n.Op == token.ARROW {
				pass.Reportf(n.Pos(), "channel receive while %s is held", lock)
			}
		case *ast.RangeStmt:
			if t, ok := pass.TypesInfo.Types[n.X]; ok {
				if _, isChan := t.Type.Underlying().(*types.Chan); isChan {
					pass.Reportf(n.Pos(), "range over channel while %s is held", lock)
				}
			}
		case *ast.SelectStmt:
			blocking := true
			for _, c := range n.Body.List {
				if cc, ok := c.(*ast.CommClause); ok && cc.Comm == nil {
					blocking = false
				}
			}
			if blocking {
				pass.Reportf(n.Pos(), "select with no default while %s is held", lock)
			}
			// Clause bodies still run under the lock; the comm headers are
			// part of the select already reported (or non-blocking).
			for _, c := range n.Body.List {
				if cc, ok := c.(*ast.CommClause); ok {
					for _, s := range cc.Body {
						reportBlocking(pass, s, lock)
					}
				}
			}
			return false
		case *ast.CallExpr:
			if msg := blockingCall(pass.TypesInfo, n); msg != "" {
				pass.Reportf(n.Pos(), "%s while %s is held", msg, lock)
			}
		}
		return true
	}
	ast.Inspect(st, walk)
}

// namedOf unwraps pointers to the named type underneath, or nil.
func namedOf(t types.Type) *types.Named {
	if p, ok := t.(*types.Pointer); ok {
		t = p.Elem()
	}
	named, _ := t.(*types.Named)
	return named
}

// blockingCall classifies calls that can block indefinitely: wall or
// virtual clock sleeps, WaitGroup/Cond waits, tracked channel (vtime.Chan)
// sends and receives, and transport RPCs.
func blockingCall(info *types.Info, call *ast.CallExpr) string {
	fn := funcOf(info, call.Fun)
	if fn == nil || fn.Pkg() == nil {
		return ""
	}
	path, name := fn.Pkg().Path(), fn.Name()
	switch {
	case path == "time" && name == "Sleep":
		return "time.Sleep"
	case path == "sync" && name == "Wait":
		// sync.Cond.Wait is the one Wait that REQUIRES holding the lock
		// (it releases it internally while parked).
		if sig, _ := fn.Type().(*types.Signature); sig != nil && sig.Recv() != nil {
			if named := namedOf(sig.Recv().Type()); named != nil && named.Obj().Name() == "Cond" {
				return ""
			}
		}
		return "sync " + exprString(call.Fun)
	case pathHasSuffix(path, "internal/vtime") && (name == "Sleep" || name == "SleepCtx" || name == "Wait"):
		return "clock " + name
	case pathHasSuffix(path, "internal/vtime") && (name == "Send" || name == "Recv" || name == "RecvCtx"):
		return "tracked channel " + name
	case (pathHasSuffix(path, "internal/transport") || pathHasSuffix(path, "internal/diffusion")) &&
		(name == "Call" || name == "Gossip"):
		sig, _ := fn.Type().(*types.Signature)
		if sig != nil && sig.Recv() != nil {
			return "transport " + name
		}
	}
	return ""
}
