package lint_test

import (
	"testing"

	"pinscope/internal/lint"
	"pinscope/internal/lint/linttest"
)

// TestJournalDisciplinePaths runs the path-sensitive rules (fsync before
// rename, meta check before resume) in a designated writer package.
func TestJournalDisciplinePaths(t *testing.T) {
	cfg := &lint.Config{JournalWriterPackages: []string{"example.com/jd"}}
	linttest.Run(t, "testdata/journaldiscipline", "example.com/jd", lint.NewJournalDiscipline(cfg))
}

// TestJournalDisciplineForge runs rule 1 in a package that is NOT a
// designated writer: constructing WAL writers or forging WAL bytes is
// flagged outright.
func TestJournalDisciplineForge(t *testing.T) {
	linttest.Run(t, "testdata/journalforge", "example.com/forge", lint.NewJournalDiscipline(&lint.Config{}))
}

// TestJournalDisciplineImplExempt reruns the forge fixture as if it were
// the journal implementation package itself: everything is permitted.
func TestJournalDisciplineImplExempt(t *testing.T) {
	checkOwnerExempt(t, lint.NewJournalDiscipline, "testdata/journalforge", "example.com/forge")
}
