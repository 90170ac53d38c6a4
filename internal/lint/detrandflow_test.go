package lint_test

import (
	"testing"

	"pinscope/internal/lint"
	"pinscope/internal/lint/linttest"
)

func TestDetrandFlow(t *testing.T) {
	linttest.Run(t, "testdata/detrandflow", "example.com/dflow", lint.NewDetrandFlow(&lint.Config{}))
}

// TestDetrandFlowExemptPackage: the detrand implementation, as the
// analyzer's owner, builds labels from parameters by design.
func TestDetrandFlowExemptPackage(t *testing.T) {
	checkOwnerExempt(t, lint.NewDetrandFlow, "testdata/detrandflow", "example.com/dflow")
}
