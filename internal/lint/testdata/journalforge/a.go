// Package forge exercises journaldiscipline rule 1: outside the
// designated writer packages, WAL bytes may not be produced at all.
package forge

import (
	"os"

	"pinscope/internal/journal"
)

const walMagic = "PINWAL1\n" // want "WAL magic forged outside the journal package"

func forgeCreate(path string) (*journal.Writer, error) {
	return journal.Create(path, []byte("m")) // want "journal\.Create hands out a fresh WAL writer"
}

func forgeResume(path string) (*journal.Writer, error) {
	return journal.ResumeWriter(path, 0, 0) // want "journal\.ResumeWriter hands out an append handle" "journal\.ResumeWriter not preceded by a journal meta check"
}

func forgeAppend(path string) (*os.File, error) {
	return os.OpenFile(path, os.O_WRONLY|os.O_APPEND, 0o644) // want "os\.O_APPEND outside the journal package"
}

func okReader(path string) (*journal.Reader, error) {
	return journal.OpenReader(path) // reading recovered journals is unrestricted
}
