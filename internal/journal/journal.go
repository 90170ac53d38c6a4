// Package journal is an append-only, crash-safe write-ahead log of study
// results. The study runner appends one frame per completed app, fsyncing
// each, so a process death at any instant loses at most the app being
// written — never the thousands already measured.
//
// File layout:
//
//	magic   8 bytes  "PINWAL1\n"
//	frame*  [len uint32 LE][crc32c uint32 LE][type 1 byte][payload]
//
// len counts the type byte plus the payload; the CRC32C (Castagnoli, the
// same checksum atomicio sidecars use) covers the same bytes. The first
// frame must be a meta frame (type 0x01) describing the run; every later
// frame is a result frame (type 0x02). Frames are versioned by the magic
// string and the type byte together: an unknown magic or frame type is
// rejected, never guessed at.
//
// Recovery semantics (the torn-tail rule): appends are sequential and
// fsynced, so a crash can only ever leave a *prefix* of the final frame on
// disk. Recover therefore truncates a final frame that is incomplete or
// fails its checksum silently — that is the normal post-crash state — but
// a bad frame with more data after it cannot be explained by a crash and
// is rejected loudly as interior corruption.
package journal

import (
	"bufio"
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"io"
	"os"
	"sync"
)

const (
	magic = "PINWAL1\n"

	frameMeta   = 0x01
	frameResult = 0x02

	// headerSize is the per-frame prefix: length + checksum.
	headerSize = 8

	// MaxFrame bounds a single frame's (type+payload) length. Real frames
	// are a few KB of JSON; the bound keeps a corrupt length field from
	// provoking a giant allocation during recovery.
	MaxFrame = 64 << 20
)

var castagnoli = crc32.MakeTable(crc32.Castagnoli)

// ErrKilled is returned by Append when the crash tap fired: the simulated
// power cut has "killed the process", and the writer accepts nothing more.
var ErrKilled = errors.New("journal: killed by simulated power cut")

// ErrCorrupt marks interior corruption: a frame that fails validation with
// intact data after it, which no crash can produce.
var ErrCorrupt = errors.New("journal: interior corruption")

// ErrNoHeader marks a journal without an intact meta frame. Create fsyncs
// the header before returning, so this means the file is not a journal (or
// died during creation) — there is nothing to resume from.
var ErrNoHeader = errors.New("journal: no intact header frame")

// CrashTap simulates a power cut during the append of result frame i
// (0-based). When kill is true the writer persists only the first
// tornBytes bytes of that frame — any byte prefix is a state a real crash
// can leave — and then refuses all further writes with ErrKilled.
type CrashTap func(i int) (tornBytes int, kill bool)

// Writer appends checksummed frames with per-frame durability. Safe for
// concurrent use.
type Writer struct {
	mu     sync.Mutex
	f      *os.File
	n      int // result frames successfully appended
	tap    CrashTap
	killed bool
	closed bool
}

// Create starts a fresh journal at path, writing and fsyncing the magic
// and the meta frame before returning. It refuses to overwrite an existing
// file: a leftover journal is either a resumable run (pass it to Recover)
// or an operator mistake, and clobbering it would destroy completed work.
func Create(path string, meta []byte) (*Writer, error) {
	f, err := os.OpenFile(path, os.O_WRONLY|os.O_CREATE|os.O_EXCL, 0o644)
	if err != nil {
		return nil, fmt.Errorf("journal: create: %w", err)
	}
	w := &Writer{f: f}
	if _, err := f.Write([]byte(magic)); err != nil {
		f.Close()
		return nil, fmt.Errorf("journal: write magic: %w", err)
	}
	if err := w.writeFrame(frameMeta, meta); err != nil {
		f.Close()
		return nil, err
	}
	if err := f.Sync(); err != nil {
		f.Close()
		return nil, fmt.Errorf("journal: sync header: %w", err)
	}
	return w, nil
}

// SetCrashTap installs the fault-injection power-cut tap (nil disables).
func (w *Writer) SetCrashTap(tap CrashTap) {
	w.mu.Lock()
	defer w.mu.Unlock()
	w.tap = tap
}

// Appended returns the number of result frames this writer has durably
// appended (including, after a resume, the recovered ones).
func (w *Writer) Appended() int {
	w.mu.Lock()
	defer w.mu.Unlock()
	return w.n
}

// Append durably appends one result frame: write, then fsync, so a
// returned nil means the record survives any subsequent crash.
func (w *Writer) Append(payload []byte) error {
	w.mu.Lock()
	defer w.mu.Unlock()
	if w.killed {
		return ErrKilled
	}
	if w.closed {
		return errors.New("journal: append to closed writer")
	}
	if w.tap != nil {
		if torn, kill := w.tap(w.n); kill {
			return w.die(payload, torn)
		}
	}
	if err := w.writeFrame(frameResult, payload); err != nil {
		return err
	}
	if err := w.f.Sync(); err != nil {
		return fmt.Errorf("journal: sync: %w", err)
	}
	w.n++
	return nil
}

// die leaves a torn prefix of the frame on disk and kills the writer —
// the simulated power cut.
func (w *Writer) die(payload []byte, torn int) error {
	w.killed = true
	frame := encodeFrame(frameResult, payload)
	if torn < 0 {
		torn = 0
	}
	if torn > len(frame) {
		torn = len(frame)
	}
	if torn > 0 {
		if _, err := w.f.Write(frame[:torn]); err != nil {
			w.f.Close()
			return fmt.Errorf("journal: torn write: %w", err)
		}
	}
	w.f.Sync()
	w.f.Close()
	return ErrKilled
}

// Close fsyncs and closes the journal. The file stays on disk: a journal
// is the run's durable record, removed only by its owner.
func (w *Writer) Close() error {
	w.mu.Lock()
	defer w.mu.Unlock()
	if w.closed || w.killed {
		return nil
	}
	w.closed = true
	if err := w.f.Sync(); err != nil {
		w.f.Close()
		return fmt.Errorf("journal: sync on close: %w", err)
	}
	return w.f.Close()
}

func (w *Writer) writeFrame(typ byte, payload []byte) error {
	if _, err := w.f.Write(encodeFrame(typ, payload)); err != nil {
		return fmt.Errorf("journal: write frame: %w", err)
	}
	return nil
}

// encodeFrame renders [len][crc32c][type][payload].
func encodeFrame(typ byte, payload []byte) []byte {
	body := make([]byte, headerSize+1+len(payload))
	body[headerSize] = typ
	copy(body[headerSize+1:], payload)
	binary.LittleEndian.PutUint32(body[0:4], uint32(1+len(payload)))
	binary.LittleEndian.PutUint32(body[4:8], crc32.Checksum(body[headerSize:], castagnoli))
	return body
}

// Recovery is the verified content of a journal.
type Recovery struct {
	// Meta is the header frame's payload.
	Meta []byte
	// Results are the verified result payloads, in append order.
	Results [][]byte
	// Truncated reports that a torn tail was dropped; TornBytes is how
	// many trailing bytes it spanned.
	Truncated bool
	TornBytes int64

	// validSize is the byte offset where the verified prefix ends —
	// AppendTo truncates the file here before reopening it for append.
	validSize int64
}

// Recover scans a journal, verifies every frame checksum, truncates a torn
// tail, and returns the verified content. Every byte of Meta and Results
// has passed its CRC: Recover never returns unverified data.
//
// Recover holds the whole journal in memory; the runners resume through
// the streaming Reader + ResumeWriter instead, and Recover stays as the
// reference FuzzJournalRecover holds Reader to.
func Recover(path string) (*Recovery, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, fmt.Errorf("journal: recover: %w", err)
	}
	if len(data) < len(magic) || string(data[:len(magic)]) != magic {
		return nil, fmt.Errorf("journal: %s: bad magic (not a pinscope journal): %w", path, ErrNoHeader)
	}
	rec := &Recovery{}
	off := int64(len(magic))
	size := int64(len(data))
	first := true
	for off < size {
		avail := size - off
		if avail < headerSize {
			// Partial frame header: only a crash mid-append leaves this.
			rec.truncate(off, size)
			break
		}
		length := int64(binary.LittleEndian.Uint32(data[off : off+4]))
		wantCRC := binary.LittleEndian.Uint32(data[off+4 : off+8])
		if length < 1 || length > MaxFrame {
			// A crash writes a byte prefix of a valid frame, so a fully
			// present length field is always a valid one; garbage here is
			// real corruption, not a torn tail.
			return nil, fmt.Errorf("journal: %s: frame at offset %d has impossible length %d: %w",
				path, off, length, ErrCorrupt)
		}
		end := off + headerSize + length
		if end > size {
			rec.truncate(off, size)
			break
		}
		body := data[off+headerSize : end]
		if crc32.Checksum(body, castagnoli) != wantCRC {
			if end == size {
				// CRC-failing final frame: a torn write that happened to
				// stop at a plausible length. Normal after a crash.
				rec.truncate(off, size)
				break
			}
			return nil, fmt.Errorf("journal: %s: frame at offset %d fails its checksum with %d intact bytes after it: %w",
				path, off, size-end, ErrCorrupt)
		}
		typ, payload := body[0], body[1:]
		switch {
		case first && typ == frameMeta:
			rec.Meta = append([]byte(nil), payload...)
		case !first && typ == frameResult:
			rec.Results = append(rec.Results, append([]byte(nil), payload...))
		default:
			return nil, fmt.Errorf("journal: %s: unexpected frame type %#02x at offset %d: %w",
				path, typ, off, ErrCorrupt)
		}
		first = false
		off = end
		rec.validSize = off
	}
	if first || rec.Meta == nil {
		return nil, fmt.Errorf("journal: %s: %w", path, ErrNoHeader)
	}
	return rec, nil
}

func (r *Recovery) truncate(off, size int64) {
	r.Truncated = true
	r.TornBytes = size - off
}

// AppendTo reopens a recovered journal for appending: the torn tail (if
// any) is cut off at the last verified frame boundary, and the returned
// writer continues numbering after the recovered results.
func (r *Recovery) AppendTo(path string) (*Writer, error) {
	return ResumeWriter(path, len(r.Results), r.validSize)
}

// ResumeWriter reopens a journal for appending after a streaming walk:
// the file is truncated at validSize (cutting any torn tail) and the
// returned writer continues numbering after frames recovered results.
// OpenReader + ResumeWriter is the bounded-memory equivalent of
// Recover + AppendTo, and the path every resume takes: a study rerun, a
// timeline point, and a shard takeover resuming a dead worker's journal.
func ResumeWriter(path string, frames int, validSize int64) (*Writer, error) {
	f, err := os.OpenFile(path, os.O_WRONLY, 0o644)
	if err != nil {
		return nil, fmt.Errorf("journal: reopen: %w", err)
	}
	if err := f.Truncate(validSize); err != nil {
		f.Close()
		return nil, fmt.Errorf("journal: drop torn tail: %w", err)
	}
	if _, err := f.Seek(validSize, 0); err != nil {
		f.Close()
		return nil, fmt.Errorf("journal: seek: %w", err)
	}
	if err := f.Sync(); err != nil {
		f.Close()
		return nil, fmt.Errorf("journal: sync after truncate: %w", err)
	}
	return &Writer{f: f, n: frames}, nil
}

// Reader streams a journal's verified frames one at a time, never holding
// more than a single frame in memory — the walk the sharded study's
// streaming merge and shard-takeover paths are built on. It applies
// exactly Recover's torn-tail rule: for any byte sequence on disk, the
// frames Next yields equal Recovery.Results, a torn tail ends the
// iteration silently (io.EOF with Truncated reporting true), and interior
// corruption — which can only surface mid-iteration, after earlier frames
// were already handed out — fails loudly with ErrCorrupt.
// FuzzJournalRecover holds Reader and Recover to each other.
type Reader struct {
	f    *os.File
	br   *bufio.Reader
	meta []byte

	off       int64 // end of the verified prefix so far
	frames    int   // result frames yielded
	truncated bool
	tornBytes int64
	err       error // sticky terminal state: io.EOF or a real error
}

// OpenReader opens a journal for streaming and verifies the magic and the
// meta frame. Like Recover, it returns ErrNoHeader when the file is not a
// journal or died during creation.
func OpenReader(path string) (*Reader, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, fmt.Errorf("journal: open: %w", err)
	}
	r := &Reader{f: f, br: bufio.NewReader(f)}
	head := make([]byte, len(magic))
	if _, err := io.ReadFull(r.br, head); err != nil || string(head) != magic {
		f.Close()
		return nil, fmt.Errorf("journal: %s: bad magic (not a pinscope journal): %w", path, ErrNoHeader)
	}
	r.off = int64(len(magic))
	typ, payload, err := r.readFrame()
	switch {
	case errors.Is(err, io.EOF):
		// Missing or torn meta frame: died during creation, nothing to
		// resume from. Same rule as Recover.
		f.Close()
		return nil, fmt.Errorf("journal: %s: %w", path, ErrNoHeader)
	case err != nil:
		f.Close()
		return nil, fmt.Errorf("journal: %s: %w", path, err)
	case typ != frameMeta:
		f.Close()
		return nil, fmt.Errorf("journal: %s: unexpected frame type %#02x where meta frame belongs: %w",
			path, typ, ErrCorrupt)
	}
	r.meta = payload
	return r, nil
}

// Meta returns the verified header frame payload.
func (r *Reader) Meta() []byte { return r.meta }

// Next returns the next verified result payload. It returns io.EOF at the
// end of the journal — including after silently dropping a torn tail
// (check Truncated) — and ErrCorrupt on interior corruption.
func (r *Reader) Next() ([]byte, error) {
	if r.err != nil {
		return nil, r.err
	}
	typ, payload, err := r.readFrame()
	if err != nil {
		r.err = err
		return nil, err
	}
	if typ != frameResult {
		r.err = fmt.Errorf("journal: unexpected frame type %#02x at offset %d: %w", typ, r.off, ErrCorrupt)
		return nil, r.err
	}
	r.frames++
	return payload, nil
}

// readFrame reads and verifies one frame, applying the torn-tail rule:
// a frame cut short by end-of-file, or one failing its CRC with no byte
// after it, is the normal post-crash state and reads as io.EOF; a bad
// length field or a CRC failure with intact data after it is ErrCorrupt.
func (r *Reader) readFrame() (byte, []byte, error) {
	header := make([]byte, headerSize)
	if n, err := io.ReadFull(r.br, header); err != nil {
		if n == 0 && errors.Is(err, io.EOF) {
			return 0, nil, io.EOF // clean end on a frame boundary
		}
		r.truncate(int64(n))
		return 0, nil, io.EOF
	}
	length := int64(binary.LittleEndian.Uint32(header[0:4]))
	wantCRC := binary.LittleEndian.Uint32(header[4:8])
	if length < 1 || length > MaxFrame {
		// A crash writes a byte prefix of a valid frame, so a fully present
		// length field is always a valid one; garbage here is corruption.
		return 0, nil, fmt.Errorf("journal: frame at offset %d has impossible length %d: %w",
			r.off, length, ErrCorrupt)
	}
	body := make([]byte, length)
	if n, err := io.ReadFull(r.br, body); err != nil {
		r.truncate(headerSize + int64(n))
		return 0, nil, io.EOF
	}
	if crc32.Checksum(body, castagnoli) != wantCRC {
		if _, err := r.br.Peek(1); err != nil {
			// CRC-failing final frame: a torn write that happened to stop
			// at a plausible length. Normal after a crash.
			r.truncate(headerSize + length)
			return 0, nil, io.EOF
		}
		return 0, nil, fmt.Errorf("journal: frame at offset %d fails its checksum with intact bytes after it: %w",
			r.off, ErrCorrupt)
	}
	r.off += headerSize + length
	return body[0], body[1:], nil
}

func (r *Reader) truncate(torn int64) {
	r.truncated = true
	r.tornBytes = torn
}

// Frames returns the number of result frames yielded so far.
func (r *Reader) Frames() int { return r.frames }

// Truncated reports that the iteration ended at a torn tail; TornBytes is
// how many trailing bytes the tail spanned.
func (r *Reader) Truncated() bool { return r.truncated }

// TornBytes returns the length of the dropped torn tail, if any.
func (r *Reader) TornBytes() int64 { return r.tornBytes }

// ValidSize returns the byte offset where the verified prefix ends — the
// truncation point to hand ResumeWriter when taking over this journal.
func (r *Reader) ValidSize() int64 { return r.off }

// Close releases the underlying file. The iteration state survives Close:
// a takeover can Close the reader and still use Frames/ValidSize.
func (r *Reader) Close() error { return r.f.Close() }
