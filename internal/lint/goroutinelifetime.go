package lint

// goroutinelifetime guards against goroutine leaks: every `go` statement in
// the configured packages must spawn a function that reaches a bounded exit
// signal — sync.WaitGroup.Done, a channel send, close or receive (which
// includes <-ctx.Done() and range-over-channel worker loops) — so the
// spawner can observe completion and the fleet-serving paths cannot
// accumulate orphaned workers.
//
// The check is path-sensitive on the goroutine body itself: if the body can
// return normally, every entry→exit path must pass a signal (a deferred
// signal covers all paths by construction). Bodies that never return (a
// worker's infinite select loop) need a signal anywhere — their bound is
// the channel or context they block on. Across call edges the analysis is
// transitive but path-insensitive: calling a function that signals
// somewhere counts, via the package call graph, which keeps `go s.run(ctx)`
// as analyzable as an inline literal. Cross-package callees have no body to
// inspect and are skipped.

import (
	"go/ast"
	"go/token"
	"go/types"
)

// NewGoroutineLifetime builds the goroutinelifetime analyzer.
func NewGoroutineLifetime() *Analyzer {
	a := &Analyzer{
		Name: "goroutinelifetime",
		Doc: "every go statement must reach a completion signal (WaitGroup.Done, " +
			"channel send/close/receive, ctx done) on all paths, so goroutines cannot leak",
	}
	a.Run = func(pass *Pass) error {
		graph := BuildCallGraph(pass.Files, pass.Info)
		// marked: functions that contain a completion signal directly or
		// reach one through an intra-package call (any edge kind).
		marked := graph.TransitiveMarks(func(n *CGNode) bool {
			body := n.Body()
			if body == nil {
				return false
			}
			found := false
			ast.Inspect(body, func(m ast.Node) bool {
				if found {
					return false
				}
				if m != nil && signalNode(pass.Info, m) {
					found = true
					return false
				}
				return true
			})
			return found
		})

		for _, file := range pass.Files {
			ast.Inspect(file, func(n ast.Node) bool {
				gs, ok := n.(*ast.GoStmt)
				if !ok {
					return true
				}
				checkGoStmt(pass, graph, marked, gs)
				return true
			})
		}
		return nil
	}
	return a
}

// checkGoStmt verifies one go statement's spawned function.
func checkGoStmt(pass *Pass, graph *CallGraph, marked map[*CGNode]bool, gs *ast.GoStmt) {
	switch fun := unparen(gs.Call.Fun).(type) {
	case *ast.FuncLit:
		checkGoroutineBody(pass, graph, marked, gs, fun.Body)
	default:
		// go f(...) / go s.run(...): the callee carries the lifetime. A
		// marked intra-package callee signals somewhere; cross-package or
		// dynamic callees have no body here and are skipped.
		fn := CalleeOf(pass.Info, gs.Call)
		if fn == nil {
			return
		}
		node := graph.NodeFor(fn)
		if node == nil || node.Body() == nil {
			return
		}
		if !marked[node] {
			pass.Reportf(gs.Pos(),
				"goroutine runs %s, which never signals completion (no WaitGroup.Done, channel send/close/receive, or ctx-done receive)",
				fn.Name())
		}
	}
}

// checkGoroutineBody runs the path-sensitive check on an inline literal.
func checkGoroutineBody(pass *Pass, graph *CallGraph, marked map[*CGNode]bool, gs *ast.GoStmt, body *ast.BlockStmt) {
	cfg := BuildCFG(body, pass.Info)

	hitNode := func(n ast.Node) bool {
		if signalNode(pass.Info, n) {
			return true
		}
		if call, ok := n.(*ast.CallExpr); ok {
			if fn := CalleeOf(pass.Info, call); fn != nil {
				if node := graph.NodeFor(fn); node != nil && marked[node] {
					return true
				}
			}
		}
		return false
	}
	blockHits := func(b *Block) bool {
		found := false
		b.Inspect(func(n ast.Node) bool {
			if found {
				return false
			}
			if hitNode(n) {
				found = true
				return false
			}
			return true
		})
		return found
	}

	// Deferred signals run on every exit path.
	for _, d := range cfg.Defers {
		if hitNode(d) {
			return
		}
		if lit, ok := unparen(d.Fun).(*ast.FuncLit); ok {
			found := false
			ast.Inspect(lit.Body, func(m ast.Node) bool {
				if found {
					return false
				}
				if m != nil && hitNode(m) {
					found = true
					return false
				}
				return true
			})
			if found {
				return
			}
		}
	}

	if !cfg.ExitReachable() {
		// A worker loop that never returns: its bound is whatever it blocks
		// on, so one signal anywhere suffices.
		for b := range cfg.Reachable() {
			if blockHits(b) {
				return
			}
		}
		pass.Reportf(gs.Pos(),
			"goroutine loops forever without any completion signal (no channel op, WaitGroup.Done, or ctx-done receive)")
		return
	}
	if !cfg.EveryPathHits(blockHits) {
		pass.Reportf(gs.Pos(),
			"goroutine can exit without signaling completion on some path (add WaitGroup.Done, a channel send/close, or a ctx-done receive on every path)")
	}
}

// signalNode reports whether n is a completion-signal operation: a channel
// send, close or receive, a range over a channel, or WaitGroup.Done.
func signalNode(info *types.Info, n ast.Node) bool {
	switch n := n.(type) {
	case *ast.SendStmt:
		return true
	case *ast.UnaryExpr:
		return n.Op == token.ARROW
	case CtrlNode:
		if rg, ok := n.Stmt.(*ast.RangeStmt); ok {
			return isChanType(info.TypeOf(rg.X))
		}
	case *ast.RangeStmt:
		return isChanType(info.TypeOf(n.X))
	case *ast.CallExpr:
		switch fun := unparen(n.Fun).(type) {
		case *ast.Ident:
			if fun.Name == "close" {
				_, isBuiltin := info.Uses[fun].(*types.Builtin)
				return isBuiltin
			}
		case *ast.SelectorExpr:
			if fn, ok := info.Uses[fun.Sel].(*types.Func); ok {
				return fn.FullName() == "(*sync.WaitGroup).Done"
			}
		}
	}
	return false
}

func isChanType(t types.Type) bool {
	if t == nil {
		return false
	}
	_, ok := t.Underlying().(*types.Chan)
	return ok
}
