package lint

// run.go drives the suite: load packages, run each analyzer, then apply
// the //pinlint:allow suppression pass and sort what remains.

import (
	"fmt"
	"go/token"
	"sort"
	"strings"
)

// Suite returns the full analyzer set over cfg, in stable order.
func Suite(cfg *Config) []*Analyzer {
	return []*Analyzer{
		NewDetrandOnly(cfg),
		NewMapDeterminism(),
		NewExportShape(cfg),
		NewAtomicSwap(cfg),
		NewAtomicWrite(cfg),
		NewPKIIssuance(cfg),
		NewGoroutineLifetime(),
		NewLockSafety(),
		NewJournalDiscipline(cfg),
		NewDetrandFlow(cfg),
		NewErrDrop(),
	}
}

// Run loads the packages matching patterns (relative to dir) and applies
// the analyzers. Suppressed findings are removed; malformed or misdirected
// //pinlint:allow directives are themselves reported. Diagnostics come
// back sorted by file position.
func Run(dir string, patterns []string, analyzers []*Analyzer) ([]Diagnostic, error) {
	pkgs, fset, err := LoadPackages(dir, patterns...)
	if err != nil {
		return nil, err
	}
	var diags []Diagnostic
	for _, pkg := range pkgs {
		d, err := AnalyzePackage(fset, pkg, analyzers)
		if err != nil {
			return nil, err
		}
		diags = append(diags, d...)
	}
	sort.Slice(diags, func(i, j int) bool {
		a, b := diags[i].Position, diags[j].Position
		if a.Filename != b.Filename {
			return a.Filename < b.Filename
		}
		if a.Line != b.Line {
			return a.Line < b.Line
		}
		if a.Column != b.Column {
			return a.Column < b.Column
		}
		return diags[i].Analyzer < diags[j].Analyzer
	})
	return diags, nil
}

// AnalyzePackage applies analyzers to one loaded package and resolves
// //pinlint:allow suppressions (malformed directives come back as
// "pinlint" findings).
func AnalyzePackage(fset *token.FileSet, pkg *Package, analyzers []*Analyzer) ([]Diagnostic, error) {
	var diags []Diagnostic
	for _, a := range analyzers {
		pass := &Pass{
			Analyzer: a,
			Fset:     fset,
			Files:    pkg.Files,
			PkgPath:  pkg.PkgPath,
			Pkg:      pkg.Types,
			Info:     pkg.Info,
			diags:    &diags,
		}
		if err := a.Run(pass); err != nil {
			return nil, fmt.Errorf("lint: %s on %s: %v", a.Name, pkg.PkgPath, err)
		}
	}
	allows, bad := collectAllows(fset, pkg)
	kept := diags[:0]
	for _, d := range diags {
		if allows.suppresses(d) {
			continue
		}
		kept = append(kept, d)
	}
	return append(kept, bad...), nil
}

// knownAnalyzers names every analyzer Suite builds. Directives are checked
// against the whole suite rather than the analyzers of one run, so that a
// justified directive for an analyzer that is not running stays valid.
var knownAnalyzers = func() map[string]bool {
	names := map[string]bool{}
	for _, a := range Suite(&Config{}) {
		names[a.Name] = true
	}
	return names
}()

// allowSet indexes directives by file and line.
type allowSet map[string]map[int][]string // filename -> line -> analyzers

// suppresses reports whether a directive for d's analyzer sits on d's line
// or the line immediately above (the attached-comment position).
func (s allowSet) suppresses(d Diagnostic) bool {
	lines := s[d.Position.Filename]
	for _, line := range []int{d.Position.Line, d.Position.Line - 1} {
		for _, name := range lines[line] {
			if name == d.Analyzer {
				return true
			}
		}
	}
	return false
}

const allowPrefix = "//pinlint:allow"

// collectAllows scans a package's comments for //pinlint:allow directives.
// A directive must name a known analyzer and carry a justification; ones
// that do not are returned as findings in their own right, so the escape
// hatch cannot rot into a blanket mute.
func collectAllows(fset *token.FileSet, pkg *Package) (allowSet, []Diagnostic) {
	allows := allowSet{}
	var bad []Diagnostic
	report := func(pos token.Pos, format string, args ...any) {
		bad = append(bad, Diagnostic{
			Analyzer: "pinlint",
			Pos:      pos,
			Position: fset.Position(pos),
			Message:  fmt.Sprintf(format, args...),
		})
	}
	for _, file := range pkg.Files {
		for _, cg := range file.Comments {
			for _, c := range cg.List {
				if !strings.HasPrefix(c.Text, allowPrefix) {
					continue
				}
				rest := strings.TrimPrefix(c.Text, allowPrefix)
				if rest != "" && rest[0] != ' ' && rest[0] != '\t' {
					continue // e.g. //pinlint:allowother — not ours
				}
				fields := strings.Fields(rest)
				if len(fields) == 0 {
					report(c.Pos(), "allow directive names no analyzer (want \"%s <analyzer> <reason>\")", allowPrefix)
					continue
				}
				name := fields[0]
				if !knownAnalyzers[name] {
					report(c.Pos(), "allow directive names unknown analyzer %q", name)
					continue
				}
				if len(fields) < 2 {
					report(c.Pos(), "allow directive for %s has no justification; say why the finding is acceptable", name)
					continue
				}
				pos := fset.Position(c.Pos())
				byLine := allows[pos.Filename]
				if byLine == nil {
					byLine = map[int][]string{}
					allows[pos.Filename] = byLine
				}
				byLine[pos.Line] = append(byLine[pos.Line], name)
			}
		}
	}
	return allows, bad
}
