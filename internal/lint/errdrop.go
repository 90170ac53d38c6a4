package lint

// errdrop flags discarded errors from Close, Sync and Flush on write
// paths: a dropped Close on a written file can silently lose the final
// bytes (close is where delayed-write errors surface), a dropped Sync
// voids the durability the crash-only design depends on, and a dropped
// bufio Flush can lose the entire buffered tail.
//
// Watched receivers: *os.File handles opened for writing (decided by
// reaching definitions — handles from os.Open are read-only and exempt,
// handles of unknown provenance stay silent), *bufio.Writer and
// *journal.Writer. atomicio.Writer is skipped (its post-Commit Close is a
// documented no-op). Two idioms are deliberately permitted: an explicit
// discard (`_ = f.Close()`) documents intent, and a drop inside a
// cleanup-on-error path — a statement list that goes on to return an
// error — is already failing, so the close error has nowhere better to go.

import (
	"go/ast"
	"go/types"
)

// errDropMethods are the checked method names.
var errDropMethods = map[string]bool{"Close": true, "Sync": true, "Flush": true}

// NewErrDrop builds the errdrop analyzer.
func NewErrDrop() *Analyzer {
	a := &Analyzer{
		Name: "errdrop",
		Doc: "Close/Sync/Flush errors on write paths must be checked: dropped ones " +
			"silently lose buffered bytes or durability",
	}
	a.Run = func(pass *Pass) error {
		for _, file := range pass.Files {
			checkErrDrop(pass, file)
		}
		return nil
	}
	return a
}

// checkErrDrop scans one file's statement lists for dropped calls.
func checkErrDrop(pass *Pass, file *ast.File) {
	// Per-function CFG + reaching defs, built lazily for os.File receivers.
	type fnState struct {
		cfg *CFG
		rd  *ReachingDefs
	}
	states := map[*ast.BlockStmt]*fnState{}
	var curBody *ast.BlockStmt

	stateFor := func() *fnState {
		st := states[curBody]
		if st == nil {
			c := BuildCFG(curBody, pass.Info)
			st = &fnState{cfg: c, rd: BuildReachingDefs(c, pass.Info, enclosingParams(pass, curBody)...)}
			states[curBody] = st
		}
		return st
	}

	// writeOpenedFile decides, via reaching definitions, whether recv is an
	// *os.File opened for writing at the dropped call. Handles from os.Open
	// are read-only; unknown provenance (parameters, struct fields, handles
	// returned by helpers) stays silent rather than guessing.
	writeOpenedFile := func(recv ast.Expr, at ast.Node) bool {
		id, ok := unparen(recv).(*ast.Ident)
		if !ok {
			return false
		}
		v, ok := objOf(pass.Info, id).(*types.Var)
		if !ok {
			return false
		}
		st := stateFor()
		blk, idx, found := findBlockNode(st.cfg, at.Pos())
		if !found {
			return false
		}
		for _, d := range st.rd.DefsAt(blk, idx, v) {
			as, ok := d.(*ast.AssignStmt)
			if !ok || len(as.Rhs) == 0 {
				continue
			}
			call, ok := unparen(as.Rhs[0]).(*ast.CallExpr)
			if !ok {
				continue
			}
			fn := CalleeOf(pass.Info, call)
			if fn == nil || fn.Pkg() == nil || fn.Pkg().Path() != "os" {
				continue
			}
			switch fn.Name() {
			case "Create", "OpenFile", "CreateTemp":
				return true
			}
		}
		return false
	}

	// visitList checks one statement list; idx is the dropped call's
	// position so the cleanup-on-error idiom can look at what follows.
	visitList := func(list []ast.Stmt) {
		for i, s := range list {
			es, ok := s.(*ast.ExprStmt)
			if !ok {
				continue
			}
			call, ok := es.X.(*ast.CallExpr)
			if !ok {
				continue
			}
			sel, ok := unparen(call.Fun).(*ast.SelectorExpr)
			if !ok || !errDropMethods[sel.Sel.Name] {
				continue
			}
			fn, ok := pass.Info.Uses[sel.Sel].(*types.Func)
			if !ok {
				continue
			}
			sig, ok := fn.Type().(*types.Signature)
			if !ok || sig.Recv() == nil || !returnsError(sig) {
				continue
			}
			recvType := sig.Recv().Type()
			if isNamed(recvType, atomicioPkg, "Writer") {
				continue
			}
			watched := false
			switch {
			case isNamed(recvType, journalPkg, "Writer"), isNamed(recvType, "bufio", "Writer"):
				watched = true
			case isNamed(recvType, "os", "File"):
				watched = writeOpenedFile(sel.X, es)
			}
			if !watched {
				continue
			}
			if errorReturnFollows(pass, list[i+1:]) {
				continue // cleanup on an already-failing path
			}
			pass.Reportf(call.Pos(),
				"error from %s.%s discarded on a write path; buffered bytes or durability can be lost silently",
				types.ExprString(sel.X), sel.Sel.Name)
		}
	}

	var inspectBody func(body *ast.BlockStmt)
	inspectBody = func(body *ast.BlockStmt) {
		prev := curBody
		curBody = body
		ast.Inspect(body, func(n ast.Node) bool {
			switch n := n.(type) {
			case *ast.FuncLit:
				inspectBody(n.Body)
				return false
			case *ast.BlockStmt:
				visitList(n.List)
			case *ast.CaseClause:
				visitList(n.Body)
			case *ast.CommClause:
				visitList(n.Body)
			}
			return true
		})
		curBody = prev
	}
	for _, decl := range file.Decls {
		if fd, ok := decl.(*ast.FuncDecl); ok && fd.Body != nil {
			inspectBody(fd.Body)
		}
	}
}

// returnsError reports whether sig's last result is the error type.
func returnsError(sig *types.Signature) bool {
	res := sig.Results()
	if res.Len() == 0 {
		return false
	}
	last := res.At(res.Len() - 1).Type()
	named, ok := last.(*types.Named)
	return ok && named.Obj().Pkg() == nil && named.Obj().Name() == "error"
}

// errorReturnFollows reports whether rest (the statements after the
// dropped call in its list) returns a non-nil error expression — the
// cleanup-on-error idiom.
func errorReturnFollows(pass *Pass, rest []ast.Stmt) bool {
	for _, s := range rest {
		rs, ok := s.(*ast.ReturnStmt)
		if !ok {
			continue
		}
		for _, e := range rs.Results {
			if id, ok := unparen(e).(*ast.Ident); ok && id.Name == "nil" {
				continue
			}
			t := pass.Info.TypeOf(e)
			if t == nil {
				continue
			}
			if named, ok := t.(*types.Named); ok &&
				named.Obj().Pkg() == nil && named.Obj().Name() == "error" {
				return true
			}
		}
	}
	return false
}
