package lint

// detrandflow guards the detrand lineage contract: every Child/ChildN
// derivation must produce a stream distinct from its siblings, or two
// "independent" draws silently read identical bytes and the simulation's
// statistics are quietly correlated. Label collisions are otherwise caught
// only at runtime, if ever — the derivation is just SHA-256 of
// parent‖label, so nothing crashes. Three rules, per function:
//
//  1. a child label must have a compile-time-constant component — a fully
//     dynamic label gives reviewers (and this analyzer) nothing to check
//     distinctness against;
//  2. two derivations on the same receiver with the same method and the
//     same fully-constant label are identical streams — flagged at the
//     second site;
//  3. Child with a fully-constant label inside a loop, on a receiver that
//     is loop-invariant (all reaching definitions outside the loop),
//     derives the same child every iteration — use ChildN with the index
//     or fold a per-iteration component into the label.
//
// The detrand package itself is exempt as the analyzer's Config.Owners
// entry (ChildN builds Child labels from a parameter by design).

import (
	"go/ast"
	"go/constant"
	"go/types"
)

// NewDetrandFlow builds the detrandflow analyzer over cfg.
func NewDetrandFlow(cfg *Config) *Analyzer {
	a := &Analyzer{
		Name: "detrandflow",
		Doc: "detrand child labels must be distinct compile-time constants per " +
			"lineage: constant component required, no duplicate labels, no " +
			"loop-invariant re-derivation",
	}
	a.Run = func(pass *Pass) error {
		if pass.owns(cfg) {
			return nil
		}
		forEachBody(pass, func(body *ast.BlockStmt) { checkDetrandFlow(pass, body) })
		return nil
	}
	return a
}

// childCall is one Child/ChildN site with its loop context.
type childCall struct {
	call   *ast.CallExpr
	method string
	recv   ast.Expr
	loop   ast.Stmt // innermost enclosing for/range, nil outside loops
}

// checkDetrandFlow applies the three rules to one function body.
func checkDetrandFlow(pass *Pass, body *ast.BlockStmt) {
	var calls []childCall
	var loops []ast.Stmt
	var walk func(n ast.Node)
	walk = func(n ast.Node) {
		ast.Inspect(n, func(m ast.Node) bool {
			switch m := m.(type) {
			case *ast.FuncLit:
				return m.Body == body // literals are their own scope
			case *ast.ForStmt:
				loops = append(loops, m)
				walk(m.Body)
				loops = loops[:len(loops)-1]
				return false
			case *ast.RangeStmt:
				loops = append(loops, m)
				walk(m.Body)
				loops = loops[:len(loops)-1]
				return false
			case *ast.CallExpr:
				if method, recv, ok := childCallOf(pass.Info, m); ok {
					var loop ast.Stmt
					if len(loops) > 0 {
						loop = loops[len(loops)-1]
					}
					calls = append(calls, childCall{m, method, recv, loop})
				}
			}
			return true
		})
	}
	walk(body)
	if len(calls) == 0 {
		return
	}

	// Rules 1 and 2 need only the collected sites.
	seen := map[string]bool{} // recv ++ method ++ constant label
	for _, c := range calls {
		label := c.call.Args[0]
		if !hasConstComponent(pass.Info, label) {
			pass.Reportf(label.Pos(),
				"child label has no compile-time constant component; distinctness per lineage cannot be reviewed or checked")
			continue
		}
		val := constString(pass.Info, label)
		if val == "" {
			continue // constant component but not fully constant: dynamic part differentiates
		}
		key := types.ExprString(c.recv) + "\x00" + c.method + "\x00" + val
		if c.method == "ChildN" && len(c.call.Args) > 1 {
			// ChildN folds the index into the label: same label with a
			// different index is a different stream. Distinct constant
			// indexes differentiate; identical expressions collide.
			n := unparen(c.call.Args[1])
			if tv, ok := pass.Info.Types[n]; ok && tv.Value != nil {
				key += "\x00" + tv.Value.ExactString()
			} else {
				key += "\x00" + types.ExprString(n)
			}
		}
		if seen[key] {
			pass.Reportf(c.call.Pos(),
				"duplicate child label %q on %s: derives a stream identical to an earlier sibling; labels must be distinct per lineage",
				val, types.ExprString(c.recv))
			continue
		}
		seen[key] = true
	}

	// Rule 3 needs reaching definitions for receiver loop-invariance.
	var rd *ReachingDefs
	var c *CFG
	for _, cc := range calls {
		if cc.loop == nil || cc.method != "Child" {
			continue
		}
		if constString(pass.Info, cc.call.Args[0]) == "" {
			continue // dynamic component varies per iteration
		}
		recv, ok := unparen(cc.recv).(*ast.Ident)
		if !ok {
			continue // field or call receivers: tracked lineage unknown, stay silent
		}
		v, ok := objOf(pass.Info, recv).(*types.Var)
		if !ok {
			continue
		}
		if c == nil {
			c = BuildCFG(body, pass.Info)
			rd = BuildReachingDefs(c, pass.Info, enclosingParams(pass, body)...)
		}
		blk, idx, found := findBlockNode(c, cc.call.Pos())
		if !found {
			continue
		}
		defs := rd.DefsAt(blk, idx, v)
		if len(defs) == 0 {
			continue // parameter of a literal, or untracked: stay silent
		}
		invariant := true
		for _, d := range defs {
			if d.Pos() >= cc.loop.Pos() && d.Pos() < cc.loop.End() {
				invariant = false
				break
			}
		}
		if invariant {
			pass.Reportf(cc.call.Pos(),
				"Child(%s) on loop-invariant receiver %s derives the same stream every iteration; use ChildN with the loop index or add a per-iteration label component",
				types.ExprString(cc.call.Args[0]), recv.Name)
		}
	}
}

// childCallOf reports whether call is Child/ChildN on a detrand source.
func childCallOf(info *types.Info, call *ast.CallExpr) (string, ast.Expr, bool) {
	sel, ok := unparen(call.Fun).(*ast.SelectorExpr)
	if !ok || len(call.Args) == 0 {
		return "", nil, false
	}
	if sel.Sel.Name != "Child" && sel.Sel.Name != "ChildN" {
		return "", nil, false
	}
	fn, ok := info.Uses[sel.Sel].(*types.Func)
	if !ok {
		return "", nil, false
	}
	sig, ok := fn.Type().(*types.Signature)
	if !ok || sig.Recv() == nil {
		return "", nil, false
	}
	if !isNamed(sig.Recv().Type(), detrandPkg, "Source") {
		return "", nil, false
	}
	return sel.Sel.Name, sel.X, true
}

// hasConstComponent reports whether some part of a label expression is a
// compile-time constant: the whole expression, an operand of a
// concatenation, or any argument of a formatting call.
func hasConstComponent(info *types.Info, e ast.Expr) bool {
	e = unparen(e)
	if tv, ok := info.Types[e]; ok && tv.Value != nil {
		return true
	}
	switch e := e.(type) {
	case *ast.BinaryExpr:
		return hasConstComponent(info, e.X) || hasConstComponent(info, e.Y)
	case *ast.CallExpr:
		for _, arg := range e.Args {
			if hasConstComponent(info, arg) {
				return true
			}
		}
	}
	return false
}

// constString returns the label's constant string value, or "" when the
// label has any dynamic component.
func constString(info *types.Info, e ast.Expr) string {
	tv, ok := info.Types[unparen(e)]
	if !ok || tv.Value == nil || tv.Value.Kind() != constant.String {
		return ""
	}
	return constant.StringVal(tv.Value)
}

// objOf resolves an identifier to its object (definition or use).
func objOf(info *types.Info, id *ast.Ident) types.Object {
	if o := info.Uses[id]; o != nil {
		return o
	}
	return info.Defs[id]
}

// isNamed reports whether t, possibly behind a pointer, is the named type
// pkg.name.
func isNamed(t types.Type, pkg, name string) bool {
	if p, ok := t.(*types.Pointer); ok {
		t = p.Elem()
	}
	named, ok := t.(*types.Named)
	return ok && named.Obj().Pkg() != nil &&
		named.Obj().Pkg().Path() == pkg && named.Obj().Name() == name
}

// enclosingParams finds the parameter lists of the function whose body this
// is, so reaching definitions can seed parameters and receivers.
func enclosingParams(pass *Pass, body *ast.BlockStmt) []*ast.FieldList {
	for _, file := range pass.Files {
		if !(file.Pos() <= body.Pos() && body.End() <= file.End()) {
			continue
		}
		var out []*ast.FieldList
		ast.Inspect(file, func(n ast.Node) bool {
			switch n := n.(type) {
			case *ast.FuncDecl:
				if n.Body == body {
					out = []*ast.FieldList{n.Recv, n.Type.Params, n.Type.Results}
					return false
				}
			case *ast.FuncLit:
				if n.Body == body {
					out = []*ast.FieldList{n.Type.Params, n.Type.Results}
					return false
				}
			}
			return true
		})
		if out != nil {
			return out
		}
	}
	return nil
}
