package lint

// journaldiscipline guards the WAL's crash-safety contract from the
// outside in:
//
//  1. WAL bytes come only from the journal package. Constructing or
//     resuming a journal.Writer (journal.Create, journal.ResumeWriter) is
//     restricted to the designated writer packages;
//     forging the WAL magic string or opening files with os.O_APPEND
//     anywhere else is flagged outright.
//  2. Durable writes fsync before rename: every os.Rename call must be
//     dominated by a Sync call — on all paths from the function entry to
//     the rename, a .Sync() happens first — so the renamed bytes are on
//     disk before the old artifact is unlinked.
//  3. Resuming is meta-checked: every ResumeWriter call outside
//     the journal package must be dominated by a read of the recovered
//     journal's Meta, the strict-config gate that keeps a foreign run's WAL
//     from being appended to.
//
// Rules 2 and 3 are path-sensitive (CFG + HitsBefore); rule 1 is the
// reference-ban scan of refban.go plus a literal match on the magic. The
// journal implementation package (its Config.Owners entry) is exempt.

import (
	"go/ast"
	"go/token"
	"slices"
	"strings"
)

// walWriterBans are rule 1's WAL-writer constructors, banned outside the
// designated writer packages.
var walWriterBans = banTable{
	{journalPkg, "Create"}:       "hands out a fresh WAL writer",
	{journalPkg, "ResumeWriter"}: "hands out an append handle to a recovered WAL",
}

// appendBans is rule 1's ban on appending outside the journal package.
var appendBans = banTable{
	{"os", "O_APPEND"}: "outside the journal package; appending to artifacts bypasses the WAL's framing and recovery",
}

// NewJournalDiscipline builds the journaldiscipline analyzer over cfg.
func NewJournalDiscipline(cfg *Config) *Analyzer {
	a := &Analyzer{
		Name: "journaldiscipline",
		Doc: "WAL bytes only through journal.Writer, fsync before rename on durable " +
			"paths, and strict meta checks before resuming a recovered journal",
	}
	a.Run = func(pass *Pass) error {
		if pass.owns(cfg) {
			return nil
		}
		if !slices.Contains(cfg.JournalWriterPackages, pass.PkgPath) {
			banScan(pass, cfg, walWriterBans,
				"%[1]s %[2]s; only the designated writer packages may produce WAL bytes", nil)
		}
		banScan(pass, cfg, appendBans, "%[1]s %[2]s", nil)
		for _, file := range pass.Files {
			ast.Inspect(file, func(n ast.Node) bool {
				//pinlint:allow journaldiscipline this literal is the analyzer's own match pattern, not WAL bytes
				if lit, ok := n.(*ast.BasicLit); ok && lit.Kind == token.STRING && strings.Contains(lit.Value, "PINWAL1") {
					pass.Reportf(lit.Pos(),
						"WAL magic forged outside the journal package; all journal bytes must flow through journal.Writer")
				}
				return true
			})
		}
		forEachBody(pass, func(body *ast.BlockStmt) { checkJournalPaths(pass, body) })
		return nil
	}
	return a
}

// checkJournalPaths enforces the path-sensitive rules 2 and 3 on one body.
func checkJournalPaths(pass *Pass, body *ast.BlockStmt) {
	// Collect the interesting call sites first; most bodies have none and
	// skip CFG construction entirely.
	type site struct {
		call *ast.CallExpr
		rule int // 2 = rename, 3 = resume
		name string
	}
	var sites []site
	ast.Inspect(body, func(n ast.Node) bool {
		if _, ok := n.(*ast.FuncLit); ok {
			return false // literals are checked as their own bodies
		}
		call, ok := n.(*ast.CallExpr)
		if !ok {
			return true
		}
		if sel, ok := unparen(call.Fun).(*ast.SelectorExpr); ok {
			if obj := pass.Info.Uses[sel.Sel]; obj != nil && obj.Pkg() != nil &&
				obj.Pkg().Path() == "os" && obj.Name() == "Rename" {
				sites = append(sites, site{call, 2, "os.Rename"})
				return true
			}
		}
		if fn := CalleeOf(pass.Info, call); fn != nil && fn.Pkg() != nil &&
			fn.Pkg().Path() == journalPkg && fn.Name() == "ResumeWriter" {
			sites = append(sites, site{call, 3, "journal." + fn.Name()})
		}
		return true
	})
	if len(sites) == 0 {
		return
	}

	c := BuildCFG(body, pass.Info)
	for _, s := range sites {
		blk, idx, ok := findBlockNode(c, s.call.Pos())
		if !ok {
			continue
		}
		switch s.rule {
		case 2:
			guarded := c.HitsBefore(blk, idx, func(n ast.Node) bool {
				call, ok := n.(*ast.CallExpr)
				if !ok {
					return false
				}
				sel, ok := unparen(call.Fun).(*ast.SelectorExpr)
				return ok && sel.Sel.Name == "Sync"
			})
			if !guarded {
				pass.Reportf(s.call.Pos(),
					"%s not preceded by Sync on every path; a crash can unlink the old artifact before the new bytes are durable", s.name)
			}
		case 3:
			guarded := c.HitsBefore(blk, idx, func(n ast.Node) bool {
				sel, ok := n.(*ast.SelectorExpr)
				return ok && sel.Sel.Name == "Meta"
			})
			if !guarded {
				pass.Reportf(s.call.Pos(),
					"%s not preceded by a journal meta check on every path; resuming without it can append this run's frames to a foreign WAL", s.name)
			}
		}
	}
}

// findBlockNode locates the block node containing pos.
func findBlockNode(c *CFG, pos token.Pos) (*Block, int, bool) {
	for _, b := range c.Blocks {
		for i, n := range b.Nodes {
			if n.Pos() <= pos && pos < n.End() {
				return b, i, true
			}
		}
	}
	return nil, 0, false
}
