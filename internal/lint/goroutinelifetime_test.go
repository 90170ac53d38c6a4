package lint_test

import (
	"testing"

	"pinscope/internal/lint"
	"pinscope/internal/lint/linttest"
)

func TestGoroutineLifetime(t *testing.T) {
	linttest.Run(t, "testdata/goroutinelifetime", "example.com/golife", lint.NewGoroutineLifetime())
}
