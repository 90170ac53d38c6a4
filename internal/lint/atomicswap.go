package lint

// atomicswap guards the serving layer's zero-downtime reload contract.
// The snapshot index lives behind an atomic.Pointer; correctness depends
// on two usage rules that the type system cannot express:
//
//  1. One load per request scope. Loading the pointer twice in one
//     function can observe two different snapshots across a reload — the
//     torn-snapshot bug (counts from one index, bodies from another).
//     Load once, pass the value down.
//  2. Stores only in the designated swap function. Reload logic must
//     funnel through one place (which also maintains the reload counters
//     and timestamps); a stray Store or Swap elsewhere bypasses it.

import (
	"go/ast"
	"go/types"
	"slices"
)

// atomicMutators replace the pointer; atomicLoads read it.
var atomicMutators = map[string]bool{"Store": true, "Swap": true, "CompareAndSwap": true}

// NewAtomicSwap builds the atomicswap analyzer over cfg.
func NewAtomicSwap(cfg *Config) *Analyzer {
	a := &Analyzer{
		Name: "atomicswap",
		Doc: "atomic.Pointer snapshot fields: at most one Load per function scope, " +
			"and Store/Swap only inside the designated swap function",
	}
	a.Run = func(pass *Pass) error {
		if _, ok := cfg.SwapFuncs[pass.PkgPath]; !ok {
			return nil
		}
		for _, file := range pass.Files {
			for _, decl := range file.Decls {
				fd, ok := decl.(*ast.FuncDecl)
				if !ok || fd.Body == nil {
					continue
				}
				checkFunc(pass, cfg, fd)
			}
		}
		return nil
	}
	return a
}

func checkFunc(pass *Pass, cfg *Config, fd *ast.FuncDecl) {
	fname := funcDisplayName(fd)
	isSwapFunc := slices.Contains(cfg.SwapFuncs[pass.PkgPath], fname)
	loads := map[string]int{} // rendered receiver expr -> loads seen

	ast.Inspect(fd.Body, func(n ast.Node) bool {
		call, ok := n.(*ast.CallExpr)
		if !ok {
			return true
		}
		sel, ok := call.Fun.(*ast.SelectorExpr)
		if !ok {
			return true
		}
		recv := atomicPointerRecv(pass, sel)
		if recv == "" {
			return true
		}
		switch {
		case sel.Sel.Name == "Load":
			loads[recv]++
			if loads[recv] > 1 {
				pass.Reportf(call.Pos(),
					"%s.Load() called %d times in %s: a reload between loads serves a torn snapshot; load once and pass the value",
					recv, loads[recv], fname)
			}
		case atomicMutators[sel.Sel.Name] && !isSwapFunc:
			pass.Reportf(call.Pos(),
				"%s.%s outside the designated swap function: route snapshot replacement through %v",
				recv, sel.Sel.Name, cfg.SwapFuncs[pass.PkgPath])
		}
		return true
	})
}

// atomicPointerRecv returns the rendered receiver expression when sel is a
// method selection on a sync/atomic Pointer[T] value, else "".
func atomicPointerRecv(pass *Pass, sel *ast.SelectorExpr) string {
	t := pass.Info.TypeOf(sel.X)
	if t == nil {
		return ""
	}
	if p, ok := t.(*types.Pointer); ok {
		t = p.Elem()
	}
	named, ok := t.(*types.Named)
	if !ok {
		return ""
	}
	obj := named.Obj()
	if obj.Pkg() == nil || obj.Pkg().Path() != "sync/atomic" || obj.Name() != "Pointer" {
		return ""
	}
	return types.ExprString(sel.X)
}
