// Package lint is pinscope's in-tree static-analysis suite. It enforces,
// by tooling rather than convention, the invariants the reproduction study
// depends on. Eleven analyzers:
//
//   - detrandonly: no ambient entropy or wall-clock reads — every random
//     or temporal decision flows through internal/detrand or is injected,
//     so a world is reproducible bit-for-bit from its seed. Serving/CLI
//     telemetry is allowlisted per function.
//   - mapdeterminism: no map iteration order escapes into slices, output
//     streams or hashes without an intervening sort.
//   - exportshape: every struct reachable from the versioned snapshot
//     roots (core.WriteJSON / core.ReadJSON) keeps an explicit, drift-proof
//     JSON shape.
//   - atomicswap: the serving layer's atomic snapshot pointer is loaded at
//     most once per request scope and stored only inside the designated
//     swap function.
//   - atomicwrite: artifact writes go through internal/atomicio, never a
//     bare os.Create/os.WriteFile.
//   - pkiissuance: key material is minted only by internal/pki.
//   - goroutinelifetime: every go statement reaches a completion signal.
//   - locksafety: Lock/Unlock pair on every path, and nothing blocks while
//     a mutex is definitely held.
//   - journaldiscipline: WAL bytes come only from the journal package,
//     renames are fsynced first, resumes check the journal's meta.
//   - detrandflow: detrand child labels are distinct per lineage.
//   - errdrop: Close/Sync/Flush errors on write paths are not discarded.
//
// Every analyzer runs on every loaded package (atomicswap and exportshape
// act only in the packages the policy names); the policy table in
// config.go (Config) says only where a rule bends. detrandonly,
// atomicwrite and pkiissuance are rows of one reference-ban table
// (refban.go).
//
// The framework deliberately mirrors golang.org/x/tools/go/analysis
// (Analyzer / Pass / Diagnostic) but is built on the standard library
// alone: packages are enumerated with `go list -export` and type-checked
// with go/types against the compiler's export data, so the linter needs no
// dependencies beyond the toolchain that builds the repo.
//
// Findings are suppressed with a justified escape hatch:
//
//	//pinlint:allow <analyzer> <reason>
//
// placed on, or immediately above, the offending line. A directive with no
// reason is itself a finding.
package lint

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
)

// Analyzer is one named check, in the image of
// golang.org/x/tools/go/analysis.Analyzer.
type Analyzer struct {
	// Name identifies the analyzer in diagnostics and in
	// //pinlint:allow directives. It must be a single lower-case word.
	Name string
	// Doc is a one-paragraph description of the invariant enforced.
	Doc string
	// Run performs the check on one package, reporting findings through
	// the pass.
	Run func(*Pass) error
}

// Pass carries one package's parsed and type-checked state to an analyzer.
type Pass struct {
	Analyzer *Analyzer
	Fset     *token.FileSet
	// Files are the package's non-test compiled Go files.
	Files []*ast.File
	// PkgPath is the package's import path (module-qualified).
	PkgPath string
	Pkg     *types.Package
	Info    *types.Info

	diags *[]Diagnostic
}

// Reportf records a finding at pos.
func (p *Pass) Reportf(pos token.Pos, format string, args ...any) {
	*p.diags = append(*p.diags, Diagnostic{
		Analyzer: p.Analyzer.Name,
		Pos:      pos,
		Position: p.Fset.Position(pos),
		Message:  fmt.Sprintf(format, args...),
	})
}

// Diagnostic is one finding.
type Diagnostic struct {
	Analyzer string
	Pos      token.Pos
	Position token.Position
	Message  string
}

// String renders the conventional file:line:col form.
func (d Diagnostic) String() string {
	return fmt.Sprintf("%s:%d:%d: %s: %s",
		d.Position.Filename, d.Position.Line, d.Position.Column, d.Analyzer, d.Message)
}

// funcDisplayName renders the name detrandonly and atomicswap use in their
// config tables and messages: "F" for functions, "T.M" for methods (pointer
// receivers are folded onto the type name).
func funcDisplayName(fd *ast.FuncDecl) string {
	if fd.Recv == nil || len(fd.Recv.List) == 0 {
		return fd.Name.Name
	}
	t := fd.Recv.List[0].Type
	for {
		switch x := t.(type) {
		case *ast.StarExpr:
			t = x.X
		case *ast.IndexExpr: // generic receiver T[P]
			t = x.X
		case *ast.IndexListExpr:
			t = x.X
		case *ast.Ident:
			return x.Name + "." + fd.Name.Name
		default:
			return fd.Name.Name
		}
	}
}

// forEachBody calls fn on every function body in pass: each FuncDecl's and
// each FuncLit's. A literal's body is visited on its own as well as inside
// the body that contains it, so fn should skip nested literals.
func forEachBody(pass *Pass, fn func(*ast.BlockStmt)) {
	for _, file := range pass.Files {
		ast.Inspect(file, func(n ast.Node) bool {
			switch n := n.(type) {
			case *ast.FuncDecl:
				if n.Body != nil {
					fn(n.Body)
				}
			case *ast.FuncLit:
				fn(n.Body)
			}
			return true
		})
	}
}

// enclosingFunc returns the FuncDecl in files whose body spans pos, or nil.
func enclosingFunc(files []*ast.File, pos token.Pos) *ast.FuncDecl {
	for _, file := range files {
		if pos < file.Pos() || file.End() < pos {
			continue
		}
		for _, decl := range file.Decls {
			if fd, ok := decl.(*ast.FuncDecl); ok && fd.Pos() <= pos && pos <= fd.End() {
				return fd
			}
		}
	}
	return nil
}
