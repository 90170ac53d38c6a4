package lint_test

import (
	"testing"

	"pinscope/internal/lint"
	"pinscope/internal/lint/linttest"
)

func TestErrDrop(t *testing.T) {
	linttest.Run(t, "testdata/errdrop", "example.com/edrop", lint.NewErrDrop())
}
