package lint_test

import (
	"strings"
	"testing"

	"pinscope/internal/lint"
)

// TestAllowDirectiveGrammar: malformed //pinlint:allow directives are
// findings in their own right, well-formed ones suppress, and lookalike
// prefixes are ignored.
func TestAllowDirectiveGrammar(t *testing.T) {
	pkg, fset, err := lint.LoadDir("testdata/allowmisuse", "example.com/allowmisuse")
	if err != nil {
		t.Fatal(err)
	}
	diags, err := lint.AnalyzePackage(fset, pkg, lint.Suite(&lint.Config{}))
	if err != nil {
		t.Fatal(err)
	}

	byAnalyzer := map[string]int{}
	for _, d := range diags {
		byAnalyzer[d.Analyzer]++
	}
	// Three malformed directives -> three pinlint findings; the time.Now
	// they failed to suppress stays visible -> three detrandonly findings.
	// Justified's directive suppresses its time.Now and is not reported.
	if byAnalyzer["pinlint"] != 3 || byAnalyzer["detrandonly"] != 3 || len(diags) != 6 {
		t.Fatalf("expected 3 pinlint + 3 detrandonly diagnostics, got %v", diags)
	}

	wantSubstrings := []string{
		"names no analyzer",
		`unknown analyzer "nosuchanalyzer"`,
		"no justification",
	}
	for _, sub := range wantSubstrings {
		found := false
		for _, d := range diags {
			if d.Analyzer == "pinlint" && strings.Contains(d.Message, sub) {
				found = true
				break
			}
		}
		if !found {
			t.Errorf("no pinlint diagnostic containing %q in %v", sub, diags)
		}
	}
}

// TestAllowDirectiveForAnotherAnalyzer: a justified directive names an
// analyzer of the suite even when a run selects only other analyzers, so
// it is no finding there (the fixture's directive is for detrandonly).
func TestAllowDirectiveForAnotherAnalyzer(t *testing.T) {
	pkg, fset, err := lint.LoadDir("testdata/detrandonly/sim", "example.com/sim")
	if err != nil {
		t.Fatal(err)
	}
	diags, err := lint.AnalyzePackage(fset, pkg, []*lint.Analyzer{lint.NewPKIIssuance(&lint.Config{})})
	if err != nil {
		t.Fatal(err)
	}
	if len(diags) != 0 {
		t.Fatalf("want no findings, got %v", diags)
	}
}

// checkOwnerExempt: the analyzer flags its fixture, and is silent on the
// same fixture once the fixture's package is the analyzer's Config.Owners
// entry.
func checkOwnerExempt(t *testing.T, analyzer func(*lint.Config) *lint.Analyzer, dir, pkgPath string) {
	t.Helper()
	pkg, fset, err := lint.LoadDir(dir, pkgPath)
	if err != nil {
		t.Fatal(err)
	}
	name := analyzer(&lint.Config{}).Name
	for _, owners := range []map[string]string{nil, {name: pkgPath}} {
		diags, err := lint.AnalyzePackage(fset, pkg, []*lint.Analyzer{analyzer(&lint.Config{Owners: owners})})
		if err != nil {
			t.Fatal(err)
		}
		if owned := owners != nil; owned != (len(diags) == 0) {
			t.Errorf("%s on %s (owner: %v): %d findings %v", name, pkgPath, owned, len(diags), diags)
		}
	}
}

// TestRepoIsClean runs the full default suite over the whole module — the
// same invocation as `make lint` — and requires zero findings. This keeps
// the acceptance property (pinlint clean on the tree) inside `go test`.
func TestRepoIsClean(t *testing.T) {
	if testing.Short() {
		t.Skip("full-module lint load is not short")
	}
	diags, err := lint.Run("../..", []string{"./..."}, lint.Suite(lint.DefaultConfig()))
	if err != nil {
		t.Fatal(err)
	}
	for _, d := range diags {
		t.Errorf("%s", d)
	}
}
