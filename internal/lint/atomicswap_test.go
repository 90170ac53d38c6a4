package lint_test

import (
	"testing"

	"pinscope/internal/lint"
	"pinscope/internal/lint/linttest"
)

func TestAtomicSwap(t *testing.T) {
	cfg := &lint.Config{
		SwapFuncs: map[string][]string{
			"example.com/aswap": {"Cache.swap"},
		},
	}
	linttest.Run(t, "testdata/atomicswap", "example.com/aswap", lint.NewAtomicSwap(cfg))
}
