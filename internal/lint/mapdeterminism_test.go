package lint_test

import (
	"testing"

	"pinscope/internal/lint"
	"pinscope/internal/lint/linttest"
)

func TestMapDeterminism(t *testing.T) {
	linttest.Run(t, "testdata/mapdeterminism", "example.com/mapdet", lint.NewMapDeterminism())
}
