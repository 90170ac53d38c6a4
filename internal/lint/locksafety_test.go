package lint_test

import (
	"testing"

	"pinscope/internal/lint"
	"pinscope/internal/lint/linttest"
)

func TestLockSafety(t *testing.T) {
	linttest.Run(t, "testdata/locksafety", "example.com/locks", lint.NewLockSafety())
}
