package lint_test

import (
	"strings"
	"testing"

	"pinscope/internal/lint"
	"pinscope/internal/lint/linttest"
)

func TestDetrandOnlyStrict(t *testing.T) {
	linttest.Run(t, "testdata/detrandonly/sim", "example.com/sim", lint.NewDetrandOnly(&lint.Config{}))
}

func TestDetrandOnlyChecked(t *testing.T) {
	cfg := &lint.Config{
		AllowedWallClock: map[string][]string{
			"example.com/serve": {"Server.wrap", "main"},
		},
	}
	linttest.Run(t, "testdata/detrandonly/serve", "example.com/serve", lint.NewDetrandOnly(cfg))
}

// TestDetrandOnlyStrictWithoutEntry: a package with no AllowedWallClock
// entry is strict, even in functions whose names another package's entry
// allowlists — all three wall-clock reads of the serving fixture are
// simulation-package findings.
func TestDetrandOnlyStrictWithoutEntry(t *testing.T) {
	cfg := &lint.Config{
		AllowedWallClock: map[string][]string{
			"example.com/other": {"Server.wrap", "main"},
		},
	}
	pkg, fset, err := lint.LoadDir("testdata/detrandonly/serve", "example.com/serve")
	if err != nil {
		t.Fatal(err)
	}
	diags, err := lint.AnalyzePackage(fset, pkg, []*lint.Analyzer{lint.NewDetrandOnly(cfg)})
	if err != nil {
		t.Fatal(err)
	}
	if len(diags) != 3 {
		t.Fatalf("want 3 findings (wrap, handle, main), got %v", diags)
	}
	for _, d := range diags {
		if !strings.Contains(d.Message, "in a simulation package") {
			t.Errorf("not a strict-package finding: %s", d)
		}
	}
}

func TestAtomicWrite(t *testing.T) {
	linttest.Run(t, "testdata/atomicwrite", "example.com/awrite", lint.NewAtomicWrite(&lint.Config{}))
}

// TestAtomicWriteExemptPackage: the atomicio implementation package, as
// the analyzer's owner, may use the raw primitives.
func TestAtomicWriteExemptPackage(t *testing.T) {
	checkOwnerExempt(t, lint.NewAtomicWrite, "testdata/atomicwrite", "example.com/awrite")
}

func TestPKIIssuance(t *testing.T) {
	linttest.Run(t, "testdata/pkiissuance", "example.com/issuance", lint.NewPKIIssuance(&lint.Config{}))
}

// TestPKIIssuanceExemptPackage: the pki package, as the analyzer's owner,
// is the designated issuance layer.
func TestPKIIssuanceExemptPackage(t *testing.T) {
	checkOwnerExempt(t, lint.NewPKIIssuance, "testdata/pkiissuance", "example.com/issuance")
}
