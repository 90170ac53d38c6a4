package lint_test

import (
	"strings"
	"testing"

	"pinscope/internal/lint"
)

// TestAllowGrammarNewAnalyzers checks the //pinlint:allow grammar against
// the v2 analyzer names: a justified directive suppresses its finding, a
// bare directive or a misspelled analyzer name is itself a pinlint
// finding and suppresses nothing.
func TestAllowGrammarNewAnalyzers(t *testing.T) {
	pkg, fset, err := lint.LoadDir("testdata/allownew", "example.com/allownew")
	if err != nil {
		t.Fatal(err)
	}
	diags, err := lint.AnalyzePackage(fset, pkg, []*lint.Analyzer{lint.NewLockSafety()})
	if err != nil {
		t.Fatal(err)
	}

	counts := map[string]int{}
	for _, d := range diags {
		counts[d.Analyzer]++
	}
	// suppressed() is clean; unjustified() and typo() each keep their
	// locksafety finding and add a pinlint one.
	if counts["pinlint"] != 2 || counts["locksafety"] != 2 || len(diags) != 4 {
		t.Fatalf("want 2 pinlint + 2 locksafety findings, got %v", diags)
	}
	var sawBare, sawTypo bool
	for _, d := range diags {
		if d.Analyzer != "pinlint" {
			continue
		}
		if strings.Contains(d.Message, "has no justification") {
			sawBare = true
		}
		if strings.Contains(d.Message, `unknown analyzer "locksafty"`) {
			sawTypo = true
		}
	}
	if !sawBare || !sawTypo {
		t.Fatalf("missing expected pinlint findings in %v", diags)
	}
}
