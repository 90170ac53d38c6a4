package journal_test

import (
	"bytes"
	"errors"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"testing"

	"pinscope/internal/journal"
)

// writeJournal creates a journal with the given result payloads and
// returns its path.
func writeJournal(t *testing.T, meta []byte, results ...[]byte) string {
	t.Helper()
	path := filepath.Join(t.TempDir(), "run.wal")
	w, err := journal.Create(path, meta)
	if err != nil {
		t.Fatal(err)
	}
	for _, r := range results {
		if err := w.Append(r); err != nil {
			t.Fatal(err)
		}
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	return path
}

func TestRoundTrip(t *testing.T) {
	meta := []byte(`{"seed":42}`)
	results := [][]byte{[]byte("app-a"), []byte("app-b"), {}, []byte("app-d")}
	path := writeJournal(t, meta, results...)

	rec, err := journal.Recover(path)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(rec.Meta, meta) {
		t.Fatalf("Meta = %q, want %q", rec.Meta, meta)
	}
	if len(rec.Results) != len(results) {
		t.Fatalf("got %d results, want %d", len(rec.Results), len(results))
	}
	for i := range results {
		if !bytes.Equal(rec.Results[i], results[i]) {
			t.Fatalf("result %d = %q, want %q", i, rec.Results[i], results[i])
		}
	}
	if rec.Truncated {
		t.Fatal("clean journal reported as truncated")
	}
}

func TestCreateRefusesExistingFile(t *testing.T) {
	path := writeJournal(t, []byte("m"), []byte("r"))
	if _, err := journal.Create(path, []byte("m")); err == nil {
		t.Fatal("Create clobbered an existing journal")
	}
}

// TestTornTailTruncatedSilently cuts the journal after every possible byte
// length of the final frame and expects recovery to keep the intact
// results and silently drop the torn tail.
func TestTornTailTruncatedSilently(t *testing.T) {
	meta := []byte("meta-payload")
	keep := [][]byte{[]byte("first result"), []byte("second result")}
	path := writeJournal(t, meta, append(keep, []byte("the final, torn result"))...)
	full, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	// Recover to learn where the last intact frame ends.
	recFull, err := journal.Recover(path)
	if err != nil {
		t.Fatal(err)
	}
	if len(recFull.Results) != 3 {
		t.Fatalf("setup: %d results", len(recFull.Results))
	}
	// The boundary before the final frame: recover the prefix of every
	// length from there up to (but excluding) the full file.
	lastFrame := len(full) - (8 + 1 + len("the final, torn result"))
	for cut := lastFrame; cut < len(full); cut++ {
		p := filepath.Join(t.TempDir(), "torn.wal")
		if err := os.WriteFile(p, full[:cut], 0o644); err != nil {
			t.Fatal(err)
		}
		rec, err := journal.Recover(p)
		if err != nil {
			t.Fatalf("cut=%d: %v", cut, err)
		}
		if len(rec.Results) != len(keep) {
			t.Fatalf("cut=%d: %d results, want %d", cut, len(rec.Results), len(keep))
		}
		if cut > lastFrame != rec.Truncated {
			t.Fatalf("cut=%d: Truncated = %v", cut, rec.Truncated)
		}
	}
}

func TestInteriorCorruptionRejectedLoudly(t *testing.T) {
	path := writeJournal(t, []byte("meta"), []byte("first result"), []byte("second result"))
	full, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	// Flip one payload byte in the FIRST result frame (there is intact
	// data after it, so this cannot be a torn tail).
	corrupt := append([]byte(nil), full...)
	off := 8 + 8 + 1 + len("meta") + 8 + 1 + 3 // magic, meta frame, into first result payload
	corrupt[off] ^= 0xff
	if err := os.WriteFile(path, corrupt, 0o644); err != nil {
		t.Fatal(err)
	}
	_, err = journal.Recover(path)
	if !errors.Is(err, journal.ErrCorrupt) {
		t.Fatalf("Recover = %v, want ErrCorrupt", err)
	}
}

func TestImpossibleLengthRejected(t *testing.T) {
	path := writeJournal(t, []byte("meta"), []byte("result"))
	full, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	// Overwrite the result frame's length with garbage far beyond MaxFrame
	// while keeping trailing bytes present.
	off := 8 + 8 + 1 + len("meta")
	copy(full[off:off+4], []byte{0xff, 0xff, 0xff, 0xff})
	if err := os.WriteFile(path, full, 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := journal.Recover(path); !errors.Is(err, journal.ErrCorrupt) {
		t.Fatalf("Recover = %v, want ErrCorrupt", err)
	}
}

func TestBadMagicAndMissingHeader(t *testing.T) {
	dir := t.TempDir()
	for name, content := range map[string][]byte{
		"empty.wal":     {},
		"garbage.wal":   []byte("definitely not a journal"),
		"magiconly.wal": []byte("PINWAL1\n"),
		"tornmeta.wal":  []byte("PINWAL1\n\x05\x00\x00"),
	} {
		p := filepath.Join(dir, name)
		if err := os.WriteFile(p, content, 0o644); err != nil {
			t.Fatal(err)
		}
		if _, err := journal.Recover(p); !errors.Is(err, journal.ErrNoHeader) {
			t.Fatalf("%s: Recover = %v, want ErrNoHeader", name, err)
		}
	}
}

func TestAppendAfterRecover(t *testing.T) {
	path := writeJournal(t, []byte("meta"), []byte("r0"), []byte("r1"))
	// Tear the tail by appending garbage, as a crash mid-append would.
	f, err := os.OpenFile(path, os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := f.Write([]byte{0x09, 0x00}); err != nil {
		t.Fatal(err)
	}
	f.Close()

	r, err := journal.OpenReader(path)
	if err != nil {
		t.Fatal(err)
	}
	for err == nil {
		_, err = r.Next()
	}
	if err != io.EOF {
		t.Fatal(err)
	}
	if !r.Truncated() || r.TornBytes() != 2 {
		t.Fatalf("Truncated=%v TornBytes=%d, want true/2", r.Truncated(), r.TornBytes())
	}
	frames, size := r.Frames(), r.ValidSize()
	r.Close()
	w, err := journal.ResumeWriter(path, frames, size)
	if err != nil {
		t.Fatal(err)
	}
	if w.Appended() != 2 {
		t.Fatalf("Appended() = %d, want 2", w.Appended())
	}
	if err := w.Append([]byte("r2")); err != nil {
		t.Fatal(err)
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	rec2, err := journal.Recover(path)
	if err != nil {
		t.Fatal(err)
	}
	want := [][]byte{[]byte("r0"), []byte("r1"), []byte("r2")}
	if len(rec2.Results) != len(want) || rec2.Truncated {
		t.Fatalf("after append: %d results, truncated=%v", len(rec2.Results), rec2.Truncated)
	}
	for i := range want {
		if !bytes.Equal(rec2.Results[i], want[i]) {
			t.Fatalf("result %d = %q, want %q", i, rec2.Results[i], want[i])
		}
	}
}

func TestCrashTapKillsDeterministically(t *testing.T) {
	for _, torn := range []int{0, 1, 5, 1 << 20} {
		t.Run(fmt.Sprintf("torn=%d", torn), func(t *testing.T) {
			path := filepath.Join(t.TempDir(), "run.wal")
			w, err := journal.Create(path, []byte("meta"))
			if err != nil {
				t.Fatal(err)
			}
			w.SetCrashTap(func(i int) (int, bool) { return torn, i >= 2 })
			for i := 0; i < 2; i++ {
				if err := w.Append([]byte(fmt.Sprintf("r%d", i))); err != nil {
					t.Fatal(err)
				}
			}
			if err := w.Append([]byte("killed")); !errors.Is(err, journal.ErrKilled) {
				t.Fatalf("Append = %v, want ErrKilled", err)
			}
			// The writer stays dead.
			if err := w.Append([]byte("more")); !errors.Is(err, journal.ErrKilled) {
				t.Fatalf("post-kill Append = %v, want ErrKilled", err)
			}
			rec, err := journal.Recover(path)
			if err != nil {
				t.Fatal(err)
			}
			// A torn write that happens to cover the whole frame means the
			// record hit disk before the cut: it survives, untruncated.
			frameLen := 8 + 1 + len("killed")
			wantResults, wantTornBytes := 2, torn
			if torn >= frameLen {
				wantResults, wantTornBytes = 3, 0
			}
			if len(rec.Results) != wantResults {
				t.Fatalf("%d results survive the cut, want %d", len(rec.Results), wantResults)
			}
			if rec.Truncated != (wantTornBytes > 0) || rec.TornBytes != int64(wantTornBytes) {
				t.Fatalf("Truncated=%v TornBytes=%d, want %v/%d",
					rec.Truncated, rec.TornBytes, wantTornBytes > 0, wantTornBytes)
			}
		})
	}
}

// readAll drains a Reader, failing the test on anything but io.EOF.
func readAll(t *testing.T, r *journal.Reader) [][]byte {
	t.Helper()
	var out [][]byte
	for {
		p, err := r.Next()
		if errors.Is(err, io.EOF) {
			return out
		}
		if err != nil {
			t.Fatal(err)
		}
		out = append(out, p)
	}
}

func TestReaderStreamsCleanJournal(t *testing.T) {
	meta := []byte(`{"seed":42}`)
	results := [][]byte{[]byte("app-a"), []byte("app-b"), {}, []byte("app-d")}
	path := writeJournal(t, meta, results...)

	r, err := journal.OpenReader(path)
	if err != nil {
		t.Fatal(err)
	}
	defer r.Close()
	if !bytes.Equal(r.Meta(), meta) {
		t.Fatalf("Meta() = %q, want %q", r.Meta(), meta)
	}
	got := readAll(t, r)
	if len(got) != len(results) {
		t.Fatalf("%d results, want %d", len(got), len(results))
	}
	for i := range results {
		if !bytes.Equal(got[i], results[i]) {
			t.Fatalf("result %d = %q, want %q", i, got[i], results[i])
		}
	}
	if r.Truncated() || r.Frames() != len(results) {
		t.Fatalf("Truncated=%v Frames=%d after clean walk", r.Truncated(), r.Frames())
	}
	fi, err := os.Stat(path)
	if err != nil {
		t.Fatal(err)
	}
	if r.ValidSize() != fi.Size() {
		t.Fatalf("ValidSize() = %d, want file size %d", r.ValidSize(), fi.Size())
	}
	// io.EOF is sticky.
	if _, err := r.Next(); !errors.Is(err, io.EOF) {
		t.Fatalf("Next after EOF = %v, want io.EOF", err)
	}
}

// TestReaderTornTailMidIteration cuts the journal at every byte length of
// the final frame: the reader must yield the intact results, then end the
// iteration silently with the torn tail reported, exactly like Recover.
func TestReaderTornTailMidIteration(t *testing.T) {
	keep := [][]byte{[]byte("first result"), []byte("second result")}
	path := writeJournal(t, []byte("meta"), append(keep, []byte("the final, torn result"))...)
	full, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	lastFrame := len(full) - (8 + 1 + len("the final, torn result"))
	for cut := lastFrame; cut < len(full); cut++ {
		p := filepath.Join(t.TempDir(), "torn.wal")
		if err := os.WriteFile(p, full[:cut], 0o644); err != nil {
			t.Fatal(err)
		}
		r, err := journal.OpenReader(p)
		if err != nil {
			t.Fatalf("cut=%d: %v", cut, err)
		}
		got := readAll(t, r)
		if len(got) != len(keep) {
			t.Fatalf("cut=%d: %d results, want %d", cut, len(got), len(keep))
		}
		if want := cut > lastFrame; r.Truncated() != want {
			t.Fatalf("cut=%d: Truncated = %v, want %v", cut, r.Truncated(), want)
		}
		if r.TornBytes() != int64(cut-lastFrame) {
			t.Fatalf("cut=%d: TornBytes = %d, want %d", cut, r.TornBytes(), cut-lastFrame)
		}
		if r.ValidSize() != int64(lastFrame) {
			t.Fatalf("cut=%d: ValidSize = %d, want %d", cut, r.ValidSize(), lastFrame)
		}
		r.Close()
	}
}

func TestReaderInteriorCorruptionLoudMidIteration(t *testing.T) {
	path := writeJournal(t, []byte("meta"), []byte("first result"), []byte("second result"))
	full, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	corrupt := append([]byte(nil), full...)
	off := 8 + 8 + 1 + len("meta") + 8 + 1 + 3 // into the first result payload
	corrupt[off] ^= 0xff
	if err := os.WriteFile(path, corrupt, 0o644); err != nil {
		t.Fatal(err)
	}
	r, err := journal.OpenReader(path)
	if err != nil {
		t.Fatal(err)
	}
	defer r.Close()
	if _, err := r.Next(); !errors.Is(err, journal.ErrCorrupt) {
		t.Fatalf("Next = %v, want ErrCorrupt", err)
	}
	// The error is sticky.
	if _, err := r.Next(); !errors.Is(err, journal.ErrCorrupt) {
		t.Fatalf("second Next = %v, want sticky ErrCorrupt", err)
	}
}

func TestOpenReaderRejectsHeaderless(t *testing.T) {
	dir := t.TempDir()
	for name, content := range map[string][]byte{
		"empty.wal":     {},
		"garbage.wal":   []byte("definitely not a journal"),
		"magiconly.wal": []byte("PINWAL1\n"),
		"tornmeta.wal":  []byte("PINWAL1\n\x05\x00\x00"),
	} {
		p := filepath.Join(dir, name)
		if err := os.WriteFile(p, content, 0o644); err != nil {
			t.Fatal(err)
		}
		if _, err := journal.OpenReader(p); !errors.Is(err, journal.ErrNoHeader) {
			t.Fatalf("%s: OpenReader = %v, want ErrNoHeader", name, err)
		}
	}
}

// TestResumeWriterAfterStreamingWalk is the shard-takeover path: stream a
// torn journal with Reader, then ResumeWriter at the verified boundary and
// keep appending — without ever holding the whole WAL in memory.
func TestResumeWriterAfterStreamingWalk(t *testing.T) {
	path := writeJournal(t, []byte("meta"), []byte("r0"), []byte("r1"))
	f, err := os.OpenFile(path, os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := f.Write([]byte{0x09, 0x00}); err != nil {
		t.Fatal(err)
	}
	f.Close()

	r, err := journal.OpenReader(path)
	if err != nil {
		t.Fatal(err)
	}
	readAll(t, r)
	r.Close()
	if !r.Truncated() || r.TornBytes() != 2 {
		t.Fatalf("Truncated=%v TornBytes=%d, want true/2", r.Truncated(), r.TornBytes())
	}
	w, err := journal.ResumeWriter(path, r.Frames(), r.ValidSize())
	if err != nil {
		t.Fatal(err)
	}
	if w.Appended() != 2 {
		t.Fatalf("Appended() = %d, want 2", w.Appended())
	}
	if err := w.Append([]byte("r2")); err != nil {
		t.Fatal(err)
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	rec, err := journal.Recover(path)
	if err != nil {
		t.Fatal(err)
	}
	want := [][]byte{[]byte("r0"), []byte("r1"), []byte("r2")}
	if len(rec.Results) != len(want) || rec.Truncated {
		t.Fatalf("after resume: %d results, truncated=%v", len(rec.Results), rec.Truncated)
	}
	for i := range want {
		if !bytes.Equal(rec.Results[i], want[i]) {
			t.Fatalf("result %d = %q, want %q", i, rec.Results[i], want[i])
		}
	}
}

func TestConcurrentAppendsAllSurvive(t *testing.T) {
	path := filepath.Join(t.TempDir(), "run.wal")
	w, err := journal.Create(path, []byte("meta"))
	if err != nil {
		t.Fatal(err)
	}
	const n = 32
	errc := make(chan error, n)
	for i := 0; i < n; i++ {
		go func(i int) { errc <- w.Append([]byte(fmt.Sprintf("result-%02d", i))) }(i)
	}
	for i := 0; i < n; i++ {
		if err := <-errc; err != nil {
			t.Fatal(err)
		}
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	rec, err := journal.Recover(path)
	if err != nil {
		t.Fatal(err)
	}
	if len(rec.Results) != n {
		t.Fatalf("%d results, want %d", len(rec.Results), n)
	}
	seen := map[string]bool{}
	for _, r := range rec.Results {
		seen[string(r)] = true
	}
	if len(seen) != n {
		t.Fatalf("%d distinct results, want %d", len(seen), n)
	}
}
