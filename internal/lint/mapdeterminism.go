package lint

// mapdeterminism catches the classic nondeterministic-report bug class: a
// `for ... range` over a map whose body lets iteration order escape — by
// appending to an outer slice, concatenating onto an outer string, or
// writing bytes into a writer or hash — without an evident sort
// re-establishing a total order afterwards.
//
// Commutative accumulation (integer sums, map/set inserts, min/max
// updates) is deliberately not a sink: those are order-insensitive.
// Floating-point accumulation over map order is order-sensitive in the
// last ulp but is ubiquitous and low-stakes, so it is out of scope here
// (see DESIGN.md).

import (
	"go/ast"
	"go/token"
	"go/types"
	"strings"
)

// NewMapDeterminism builds the mapdeterminism analyzer.
func NewMapDeterminism() *Analyzer {
	a := &Analyzer{
		Name: "mapdeterminism",
		Doc: "flags map iteration whose order escapes into slices, output streams " +
			"or hashes without a subsequent sort",
	}
	a.Run = func(pass *Pass) error {
		for _, file := range pass.Files {
			inspectWithStack(file, func(n ast.Node, stack []ast.Node) bool {
				rs, ok := n.(*ast.RangeStmt)
				if !ok {
					return true
				}
				if !isMapType(pass.Info.TypeOf(rs.X)) {
					return true
				}
				for _, s := range findSinks(pass, rs) {
					if s.sortable && sortedAfter(pass, stack, rs, s) {
						continue
					}
					pass.Reportf(s.pos, "map iteration order escapes via %s; %s",
						s.what, s.remedy())
				}
				return true
			})
		}
		return nil
	}
	return a
}

func isMapType(t types.Type) bool {
	if t == nil {
		return false
	}
	_, ok := t.Underlying().(*types.Map)
	return ok
}

// sink is one order-escaping operation found in a map-range body.
type sink struct {
	pos      token.Pos
	what     string
	target   string // rendered expr the escape accumulates into ("" for writes)
	bucketOf string // for M[k] targets, the rendered map expr M
	sortable bool   // a later sort of target redeems it
}

func (s sink) remedy() string {
	if s.sortable {
		return "sort " + s.target + " afterwards or iterate sorted keys"
	}
	return "collect and sort keys first, then iterate the sorted keys"
}

// findSinks scans the body of a map range for order-escaping operations.
// Nested map ranges are reported by their own visit, but their bodies still
// count as part of this loop's body (an escape two levels down still
// escapes this loop's order).
func findSinks(pass *Pass, rs *ast.RangeStmt) []sink {
	var sinks []sink
	ast.Inspect(rs.Body, func(n ast.Node) bool {
		switch x := n.(type) {
		case *ast.AssignStmt:
			if s, ok := appendSink(pass, rs, x); ok {
				sinks = append(sinks, s)
			}
			if s, ok := concatSink(pass, rs, x); ok {
				sinks = append(sinks, s)
			}
		case *ast.CallExpr:
			if s, ok := writeSink(pass, rs, x); ok {
				sinks = append(sinks, s)
			}
		}
		return true
	})
	return sinks
}

// appendSink matches `t = append(t2, ...)` where t is declared outside the
// loop.
func appendSink(pass *Pass, rs *ast.RangeStmt, as *ast.AssignStmt) (sink, bool) {
	if len(as.Lhs) != 1 || len(as.Rhs) != 1 {
		return sink{}, false
	}
	call, ok := as.Rhs[0].(*ast.CallExpr)
	if !ok || !isBuiltin(pass, call.Fun, "append") {
		return sink{}, false
	}
	if !outerTarget(pass, rs, as.Lhs[0]) {
		return sink{}, false
	}
	t := types.ExprString(as.Lhs[0])
	s := sink{pos: as.Pos(), what: "append to " + t, target: t, sortable: true}
	// M[k] = append(M[k], ...) is a per-bucket accumulation; a later
	// sort-every-bucket loop over M redeems it.
	if ix, ok := as.Lhs[0].(*ast.IndexExpr); ok && isMapType(pass.Info.TypeOf(ix.X)) {
		s.bucketOf = types.ExprString(ix.X)
	}
	return s, true
}

// concatSink matches `s += ...` on an outer string.
func concatSink(pass *Pass, rs *ast.RangeStmt, as *ast.AssignStmt) (sink, bool) {
	if as.Tok != token.ADD_ASSIGN || len(as.Lhs) != 1 {
		return sink{}, false
	}
	lt := pass.Info.TypeOf(as.Lhs[0])
	if lt == nil {
		return sink{}, false
	}
	if b, ok := lt.Underlying().(*types.Basic); !ok || b.Info()&types.IsString == 0 {
		return sink{}, false
	}
	if !outerTarget(pass, rs, as.Lhs[0]) {
		return sink{}, false
	}
	t := types.ExprString(as.Lhs[0])
	return sink{pos: as.Pos(), what: "string concatenation onto " + t, target: t, sortable: true}, true
}

// writeMethods are receiver methods that emit bytes in call order (io
// writers, strings.Builder, hash.Hash).
var writeMethods = map[string]bool{
	"Write": true, "WriteString": true, "WriteByte": true, "WriteRune": true,
}

// fmtOutputFuncs are fmt functions that emit directly.
var fmtOutputFuncs = map[string]bool{
	"Fprint": true, "Fprintf": true, "Fprintln": true,
	"Print": true, "Printf": true, "Println": true,
}

// writeSink matches byte-emitting calls whose destination outlives the
// loop: w.Write*/b.WriteString/h.Write on an outer receiver, and
// fmt.Fprint*/fmt.Print*.
func writeSink(pass *Pass, rs *ast.RangeStmt, call *ast.CallExpr) (sink, bool) {
	sel, ok := call.Fun.(*ast.SelectorExpr)
	if !ok {
		return sink{}, false
	}
	if obj := pass.Info.Uses[sel.Sel]; obj != nil && obj.Pkg() != nil && obj.Pkg().Path() == "fmt" {
		if fmtOutputFuncs[obj.Name()] {
			// fmt.Print* writes os.Stdout; fmt.Fprint* writes its first
			// argument — outer unless created in the loop.
			if strings.HasPrefix(obj.Name(), "F") && len(call.Args) > 0 && !outerTarget(pass, rs, call.Args[0]) {
				return sink{}, false
			}
			return sink{pos: call.Pos(), what: "fmt." + obj.Name()}, true
		}
		return sink{}, false
	}
	if !writeMethods[sel.Sel.Name] {
		return sink{}, false
	}
	// Method call: only a sink when the receiver is a value from outside
	// the loop (a per-iteration buffer is order-local).
	if !outerTarget(pass, rs, sel.X) {
		return sink{}, false
	}
	return sink{pos: call.Pos(), what: types.ExprString(sel.X) + "." + sel.Sel.Name}, true
}

// isBuiltin reports whether fun denotes the builtin of the given name.
func isBuiltin(pass *Pass, fun ast.Expr, name string) bool {
	id, ok := fun.(*ast.Ident)
	if !ok || id.Name != name {
		return false
	}
	_, ok = pass.Info.Uses[id].(*types.Builtin)
	return ok
}

// outerTarget reports whether e refers to storage declared outside the
// range statement. Selectors, index expressions and non-local identifiers
// count as outer; identifiers whose declaration sits inside the loop do
// not.
func outerTarget(pass *Pass, rs *ast.RangeStmt, e ast.Expr) bool {
	switch x := e.(type) {
	case *ast.Ident:
		obj := pass.Info.ObjectOf(x)
		if obj == nil {
			return false
		}
		return obj.Pos() < rs.Pos() || obj.Pos() > rs.End()
	case *ast.SelectorExpr:
		return outerTarget(pass, rs, x.X)
	case *ast.IndexExpr:
		return outerTarget(pass, rs, x.X)
	case *ast.ParenExpr:
		return outerTarget(pass, rs, x.X)
	case *ast.StarExpr:
		return outerTarget(pass, rs, x.X)
	case *ast.CallExpr, *ast.UnaryExpr:
		// &buf, f() — conservatively outer.
		return true
	}
	return true
}

// sortedAfter reports whether, in some enclosing block, a statement after
// the range applies a sort/slices ordering call mentioning the sink's
// target, or — for per-bucket sinks — a sort-every-bucket loop over the
// sink's map.
func sortedAfter(pass *Pass, stack []ast.Node, rs *ast.RangeStmt, s sink) bool {
	var child ast.Node = rs
	for i := len(stack) - 1; i >= 0; i-- {
		blk, ok := stack[i].(*ast.BlockStmt)
		if !ok {
			child = stack[i]
			continue
		}
		past := false
		for _, st := range blk.List {
			if !past {
				if st == child || containsNode(st, child) {
					past = true
				}
				continue
			}
			if sortsTarget(pass, st, s.target) {
				return true
			}
			if s.bucketOf != "" && sortsBuckets(pass, st, s.bucketOf) {
				return true
			}
		}
		child = blk
	}
	return false
}

// sortsBuckets recognizes the sort-every-bucket idiom:
//
//	for _, v := range M { sort.X(v) }
//
// anywhere inside stmt, for the map rendered as mapExpr.
func sortsBuckets(pass *Pass, stmt ast.Stmt, mapExpr string) bool {
	found := false
	ast.Inspect(stmt, func(n ast.Node) bool {
		if found {
			return false
		}
		rs, ok := n.(*ast.RangeStmt)
		if !ok || types.ExprString(rs.X) != mapExpr {
			return true
		}
		val, ok := rs.Value.(*ast.Ident)
		if !ok {
			return true
		}
		if sortsTarget(pass, rs.Body, val.Name) {
			found = true
			return false
		}
		return true
	})
	return found
}

// containsNode reports whether outer's subtree contains n.
func containsNode(outer, n ast.Node) bool {
	return outer.Pos() <= n.Pos() && n.End() <= outer.End()
}

// sortsTarget reports whether stmt's subtree calls sort.* or slices.Sort*
// with an argument mentioning target.
func sortsTarget(pass *Pass, stmt ast.Stmt, target string) bool {
	found := false
	ast.Inspect(stmt, func(n ast.Node) bool {
		call, ok := n.(*ast.CallExpr)
		if !ok || found {
			return !found
		}
		sel, ok := call.Fun.(*ast.SelectorExpr)
		if !ok {
			return true
		}
		obj := pass.Info.Uses[sel.Sel]
		if obj == nil || obj.Pkg() == nil {
			return true
		}
		switch obj.Pkg().Path() {
		case "sort":
			// every sort.* entry point orders its argument
		case "slices":
			if !strings.HasPrefix(obj.Name(), "Sort") {
				return true
			}
		default:
			return true
		}
		for _, arg := range call.Args {
			if exprMentions(arg, target) {
				found = true
				return false
			}
		}
		return true
	})
	return found
}

// exprMentions reports whether some sub-expression of e renders exactly as
// target ("keys" matches sort.Sort(byLen(keys)) but not a variable named
// "monkeys").
func exprMentions(e ast.Expr, target string) bool {
	found := false
	ast.Inspect(e, func(n ast.Node) bool {
		if found {
			return false
		}
		if sub, ok := n.(ast.Expr); ok && types.ExprString(sub) == target {
			found = true
			return false
		}
		return true
	})
	return found
}

// inspectWithStack is ast.Inspect with the path of ancestors (outermost
// first, excluding n itself) passed to f.
func inspectWithStack(root ast.Node, f func(n ast.Node, stack []ast.Node) bool) {
	var stack []ast.Node
	ast.Inspect(root, func(n ast.Node) bool {
		if n == nil {
			stack = stack[:len(stack)-1]
			return true
		}
		if !f(n, stack) {
			// Still push: ast.Inspect will not descend, but it also will
			// not send the matching nil pop.
			return false
		}
		stack = append(stack, n)
		return true
	})
}
