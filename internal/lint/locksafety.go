package lint

// locksafety checks Lock/Unlock discipline on sync.Mutex and sync.RWMutex
// with a must-hold dataflow over the CFG: at every block the analysis knows
// which locks are held on ALL incoming paths (intersection merge, so a
// conditionally-released lock degrades to "maybe held" and stays silent
// rather than false-positive). Three invariants:
//
//  1. no second Lock of a mutex that is definitely held (self-deadlock);
//  2. no return — explicit or fall-off — with a mutex definitely held,
//     unless a deferred Unlock covers it;
//  3. no blocking operation (channel send/receive, select without default,
//     WaitGroup.Wait, time.Sleep) while a mutex is definitely held —
//     sync.Cond.Wait is exempt since releasing the mutex is its contract.
//
// Locks are keyed by the receiver expression's source text ("s.mu"), which
// is exact for the struct-field mutexes this repo uses. The analysis is
// intra-procedural; helpers that return holding a lock are out of scope.

import (
	"go/ast"
	"go/token"
	"go/types"
)

// NewLockSafety builds the locksafety analyzer.
func NewLockSafety() *Analyzer {
	a := &Analyzer{
		Name: "locksafety",
		Doc: "Lock/Unlock must pair on every path, no return or blocking operation " +
			"(channel op, select, WaitGroup.Wait) while a mutex is definitely held",
	}
	a.Run = func(pass *Pass) error {
		forEachBody(pass, func(body *ast.BlockStmt) { checkLockSafety(pass, body) })
		return nil
	}
	return a
}

// lockOp classifies one mutex call site.
type lockOp struct {
	key     string // receiver text, "#r"-suffixed for read locks
	acquire bool
	excl    bool // exclusive (Lock/Unlock) vs shared (RLock/RUnlock)
}

// mutexOps maps sync method names to their lock semantics.
var mutexOps = map[string]lockOp{
	"(*sync.Mutex).Lock":      {acquire: true, excl: true},
	"(*sync.Mutex).Unlock":    {acquire: false, excl: true},
	"(*sync.RWMutex).Lock":    {acquire: true, excl: true},
	"(*sync.RWMutex).Unlock":  {acquire: false, excl: true},
	"(*sync.RWMutex).RLock":   {acquire: true, excl: false},
	"(*sync.RWMutex).RUnlock": {acquire: false, excl: false},
}

// classifyLockCall returns the lock operation for call, if it is one.
func classifyLockCall(info *types.Info, call *ast.CallExpr) (lockOp, bool) {
	sel, ok := unparen(call.Fun).(*ast.SelectorExpr)
	if !ok {
		return lockOp{}, false
	}
	fn, ok := info.Uses[sel.Sel].(*types.Func)
	if !ok {
		return lockOp{}, false
	}
	op, ok := mutexOps[fn.FullName()]
	if !ok {
		return lockOp{}, false
	}
	op.key = types.ExprString(sel.X)
	if !op.excl {
		op.key += "#r"
	}
	return op, true
}

// checkLockSafety runs the must-hold analysis over one function body.
func checkLockSafety(pass *Pass, body *ast.BlockStmt) {
	cfg := BuildCFG(body, pass.Info)

	// Deferred unlocks cover every exit path.
	deferred := map[string]bool{}
	for _, d := range cfg.Defers {
		if op, ok := classifyLockCall(pass.Info, d); ok && !op.acquire {
			deferred[op.key] = true
		}
		if lit, ok := unparen(d.Fun).(*ast.FuncLit); ok {
			ast.Inspect(lit.Body, func(m ast.Node) bool {
				if call, ok := m.(*ast.CallExpr); ok {
					if op, ok := classifyLockCall(pass.Info, call); ok && !op.acquire {
						deferred[op.key] = true
					}
				}
				return true
			})
		}
	}

	// Channel operations that are a select's comm clauses are reported once
	// at the select (which is what blocks), not per clause.
	commOps := map[token.Pos]bool{}
	ast.Inspect(body, func(n ast.Node) bool {
		if s, ok := n.(*ast.SelectStmt); ok {
			for _, cl := range s.Body.List {
				cc, ok := cl.(*ast.CommClause)
				if !ok || cc.Comm == nil {
					continue
				}
				ast.Inspect(cc.Comm, func(m ast.Node) bool {
					switch m := m.(type) {
					case *ast.SendStmt:
						commOps[m.Pos()] = true
					case *ast.UnaryExpr:
						if m.Op == token.ARROW {
							commOps[m.Pos()] = true
						}
					}
					return true
				})
			}
		}
		return true
	})

	// transfer applies one block node to the held set; report is false
	// during the fixpoint and true during the final diagnostic pass.
	transfer := func(b *Block, held map[string]bool, report bool) map[string]bool {
		b.Inspect(func(n ast.Node) bool {
			switch n := n.(type) {
			case *ast.FuncLit:
				return false // its body is a separate function
			case *ast.CallExpr:
				if op, ok := classifyLockCall(pass.Info, n); ok {
					if op.acquire {
						if held[op.key] && op.excl && report {
							pass.Reportf(n.Pos(), "%s locked again while already held (self-deadlock)",
								trimReadSuffix(op.key))
						}
						held[op.key] = true
					} else {
						delete(held, op.key)
					}
					return false
				}
				if report && len(held) > 0 && isBlockingCall(pass.Info, n) {
					pass.Reportf(n.Pos(), "blocking call %s while holding %s",
						types.ExprString(n.Fun), heldList(held))
				}
			case *ast.SendStmt:
				if report && len(held) > 0 && !commOps[n.Pos()] {
					pass.Reportf(n.Pos(), "channel send while holding %s", heldList(held))
				}
			case *ast.UnaryExpr:
				if n.Op == token.ARROW && report && len(held) > 0 && !commOps[n.Pos()] {
					pass.Reportf(n.Pos(), "channel receive while holding %s", heldList(held))
				}
			case CtrlNode:
				switch s := n.Stmt.(type) {
				case *ast.SelectStmt:
					if report && len(held) > 0 && !selectHasDefault(s) {
						pass.Reportf(s.Pos(), "select without default while holding %s", heldList(held))
					}
				case *ast.RangeStmt:
					if report && len(held) > 0 && isChanType(pass.Info.TypeOf(s.X)) {
						pass.Reportf(s.Pos(), "range over channel while holding %s", heldList(held))
					}
				}
			case *ast.ReturnStmt:
				if report {
					reportHeldAtReturn(pass, n.Pos(), held, deferred)
				}
			}
			return true
		})
		return held
	}

	// Must-hold fixpoint: in(b) = ∩ out(preds); entry starts empty.
	in := map[*Block]map[string]bool{cfg.Entry: {}}
	work := []*Block{cfg.Entry}
	for len(work) > 0 {
		b := work[0]
		work = work[1:]
		out := transfer(b, copySet(in[b]), false)
		for _, s := range b.Succs {
			cur, seen := in[s]
			next := copySet(out)
			if seen {
				next = intersect(cur, out)
				if len(next) == len(cur) {
					continue // no shrink, already propagated
				}
			}
			in[s] = next
			work = append(work, s)
		}
	}

	// Final pass: report with converged entry states. Explicit returns are
	// reported at the ReturnStmt inside transfer; a fall-off edge to the
	// exit (a block whose last node is not a return) is reported once at
	// the closing brace.
	fellOff := false
	for _, b := range cfg.Blocks {
		state, ok := in[b]
		if !ok || b == cfg.Exit {
			continue // unreachable, or the synthetic exit
		}
		out := transfer(b, copySet(state), true)
		if fellOff || !hasSucc(b, cfg.Exit) || endsInReturn(b) {
			continue
		}
		if anyUncovered(out, deferred) {
			reportHeldAtReturn(pass, body.Rbrace, out, deferred)
			fellOff = true
		}
	}
}

func hasSucc(b, target *Block) bool {
	for _, s := range b.Succs {
		if s == target {
			return true
		}
	}
	return false
}

func endsInReturn(b *Block) bool {
	if len(b.Nodes) == 0 {
		return false
	}
	_, ok := b.Nodes[len(b.Nodes)-1].(*ast.ReturnStmt)
	return ok
}

func anyUncovered(held, deferred map[string]bool) bool {
	for k := range held {
		if !deferred[k] {
			return true
		}
	}
	return false
}

// reportHeldAtReturn flags locks still definitely held at a return point
// and not covered by a deferred unlock.
func reportHeldAtReturn(pass *Pass, pos token.Pos, held, deferred map[string]bool) {
	for key := range held {
		if !deferred[key] {
			pass.Reportf(pos, "returns with %s held (no Unlock on this path, no deferred Unlock)",
				trimReadSuffix(key))
			return // one report per return point is enough
		}
	}
}

// blockingFuncs are calls that can block indefinitely. sync.Cond.Wait is
// deliberately absent: it releases the mutex while waiting.
var blockingFuncs = map[string]bool{
	"(*sync.WaitGroup).Wait": true,
	"time.Sleep":             true,
}

func isBlockingCall(info *types.Info, call *ast.CallExpr) bool {
	fn := CalleeOf(info, call)
	if fn == nil {
		return false
	}
	return blockingFuncs[fn.FullName()]
}

func selectHasDefault(s *ast.SelectStmt) bool {
	for _, cl := range s.Body.List {
		if cc, ok := cl.(*ast.CommClause); ok && cc.Comm == nil {
			return true
		}
	}
	return false
}

func copySet(s map[string]bool) map[string]bool {
	out := make(map[string]bool, len(s))
	for k := range s {
		out[k] = true
	}
	return out
}

func intersect(a, b map[string]bool) map[string]bool {
	out := map[string]bool{}
	for k := range a {
		if b[k] {
			out[k] = true
		}
	}
	return out
}

// heldList renders the held set for a message, smallest key first so the
// output is deterministic.
func heldList(held map[string]bool) string {
	best := ""
	for k := range held {
		k = trimReadSuffix(k)
		if best == "" || k < best {
			best = k
		}
	}
	return best
}

func trimReadSuffix(key string) string {
	if len(key) > 2 && key[len(key)-2:] == "#r" {
		return key[:len(key)-2]
	}
	return key
}
