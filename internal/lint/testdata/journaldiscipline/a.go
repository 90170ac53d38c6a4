// Package jd exercises journaldiscipline's path-sensitive rules in a
// designated writer package: fsync before rename, and a recovered
// journal's meta must be checked before resuming it.
package jd

import (
	"bytes"
	"os"

	"pinscope/internal/journal"
)

func okRename(f *os.File, tmp, dst string) error {
	if err := f.Sync(); err != nil {
		return err
	}
	if err := f.Close(); err != nil {
		return err
	}
	return os.Rename(tmp, dst)
}

func badRename(f *os.File, tmp, dst string) error {
	if err := f.Close(); err != nil {
		return err
	}
	return os.Rename(tmp, dst) // want "os\.Rename not preceded by Sync on every path"
}

func branchRename(f *os.File, tmp, dst string, fast bool) error {
	if !fast {
		if err := f.Sync(); err != nil {
			return err
		}
	}
	return os.Rename(tmp, dst) // want "os\.Rename not preceded by Sync on every path"
}

func okResume(path string, meta []byte) (*journal.Writer, error) {
	r, err := journal.OpenReader(path)
	if err != nil {
		return nil, err
	}
	if !bytes.Equal(r.Meta(), meta) {
		r.Close()
		return nil, err
	}
	frames, size := r.Frames(), r.ValidSize()
	r.Close()
	return journal.ResumeWriter(path, frames, size)
}

func badResume(path string) (*journal.Writer, error) {
	return journal.ResumeWriter(path, 0, 0) // want "journal\.ResumeWriter not preceded by a journal meta check"
}

func allowedResume(path string) (*journal.Writer, error) {
	//pinlint:allow journaldiscipline fixture: meta is checked by the caller
	return journal.ResumeWriter(path, 0, 0)
}
