package shardnet

// tcp.go is the real transport: length-prefixed, CRC32C-checksummed
// frames over TCP, reusing the journal's framing discipline — the same
// [len u32 LE][crc32c u32 LE][type byte][payload] layout, under its own
// magic so a wire stream and a WAL can never be confused for each other.
// A frame that arrives torn (short read, checksum failure) means the
// stream is broken, never silently resynchronized: the connection dies
// and the lease protocol recovers, exactly like a crash against a WAL's
// torn tail.
//
// This file is the only place in the package that reads the wall clock,
// concentrated in wallClock.Now and wallDeadline (both in the pinlint
// AllowedWallClock table): everything else schedules against the Clock
// interface, which the simulated network implements with a logical
// clock.

import (
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"io"
	"net"
	"os"
	"sync"
	"time"
)

const (
	// wireMagic opens every TCP connection, from both sides. Versioned
	// like the journal's: an unknown magic is rejected, never guessed at.
	wireMagic = "PINNET1\n"

	wireHeaderSize = 8

	// MaxWireFrame bounds one frame's (type+payload) length, mirroring
	// journal.MaxFrame: a corrupt length field must not provoke a giant
	// allocation.
	MaxWireFrame = 64 << 20

	// firstRecvChunk is the most Recv allocates for a frame body before
	// any of it has arrived; the buffer then doubles as bytes come in.
	firstRecvChunk = 64 << 10
)

var wireCastagnoli = crc32.MakeTable(crc32.Castagnoli)

// encodeWireFrame renders [len][crc32c][type][payload].
func encodeWireFrame(f Frame) []byte {
	body := make([]byte, wireHeaderSize+1+len(f.Payload))
	body[wireHeaderSize] = f.Type
	copy(body[wireHeaderSize+1:], f.Payload)
	binary.LittleEndian.PutUint32(body[0:4], uint32(1+len(f.Payload)))
	binary.LittleEndian.PutUint32(body[4:8], crc32.Checksum(body[wireHeaderSize:], wireCastagnoli))
	return body
}

// wallClock implements Clock over real time, in nanoseconds.
type wallClock struct{}

// WallClock returns the wall-time Clock the TCP transport schedules on.
func WallClock() Clock { return wallClock{} }

func (wallClock) Now() int64 {
	return time.Now().UnixNano()
}

func (c wallClock) WaitUntil(at int64) int64 {
	for {
		now := c.Now()
		if now >= at {
			return now
		}
		time.Sleep(time.Duration(at - now))
	}
}

// wallDeadline converts a relative wait in nanoseconds to the absolute
// time.Time the net.Conn deadline API wants. wait <= 0 clears the
// deadline.
func wallDeadline(wait int64) time.Time {
	if wait <= 0 {
		return time.Time{}
	}
	return time.Now().Add(time.Duration(wait))
}

// TCPOptions tune a TCP listener or dialer. Zero values pick defaults
// generous enough for loopback and LAN runs.
type TCPOptions struct {
	// SendTimeout bounds each frame write; an expired write breaks the
	// connection (the coordinator's retry/backoff runs above this).
	SendTimeout time.Duration
	// HandshakeTimeout bounds the magic exchange on connect.
	HandshakeTimeout time.Duration
}

func (o TCPOptions) withDefaults() TCPOptions {
	if o.SendTimeout <= 0 {
		o.SendTimeout = 10 * time.Second
	}
	if o.HandshakeTimeout <= 0 {
		o.HandshakeTimeout = 10 * time.Second
	}
	return o
}

// TCPListener accepts framed worker connections.
type TCPListener struct {
	ln  net.Listener
	opt TCPOptions
}

// ListenTCP binds addr (host:port; ":0" picks a free port).
func ListenTCP(addr string, opt TCPOptions) (*TCPListener, error) {
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return nil, fmt.Errorf("shardnet: listen %s: %w", addr, err)
	}
	return &TCPListener{ln: ln, opt: opt.withDefaults()}, nil
}

// Addr returns the bound address, for workers to dial.
func (l *TCPListener) Addr() string { return l.ln.Addr().String() }

// Accept waits for a worker connection and completes the magic exchange.
// A connection that fails the handshake (a port scanner, a stale peer) is
// dropped and the listener keeps accepting; Accept only errors once the
// listener itself is closed.
func (l *TCPListener) Accept() (Conn, error) {
	for {
		c, err := l.ln.Accept()
		if err != nil {
			return nil, fmt.Errorf("shardnet: accept: %w", ErrClosed)
		}
		tc := newTCPConn(c, l.opt)
		if err := tc.handshake(); err != nil {
			c.Close()
			continue
		}
		return tc, nil
	}
}

// Close stops accepting. Established connections stay up.
func (l *TCPListener) Close() error { return l.ln.Close() }

// TCPDialer dials the coordinator.
type TCPDialer struct {
	Addr string
	Opt  TCPOptions
}

// Dial connects and completes the magic exchange.
func (d TCPDialer) Dial() (Conn, error) {
	opt := d.Opt.withDefaults()
	c, err := net.DialTimeout("tcp", d.Addr, opt.HandshakeTimeout)
	if err != nil {
		return nil, fmt.Errorf("shardnet: dial %s: %w", d.Addr, err)
	}
	tc := newTCPConn(c, opt)
	if err := tc.handshake(); err != nil {
		c.Close()
		return nil, err
	}
	return tc, nil
}

// tcpConn frames one TCP connection. Send is mutex-guarded (heartbeater
// and item loop share it); Recv assumes a single receiving goroutine.
type tcpConn struct {
	c   net.Conn
	opt TCPOptions

	wmu    sync.Mutex
	closed bool

	rbuf []byte
}

func newTCPConn(c net.Conn, opt TCPOptions) *tcpConn {
	return &tcpConn{c: c, opt: opt}
}

// handshake exchanges the magic in both directions, bounded by the
// handshake timeout.
func (t *tcpConn) handshake() error {
	if err := t.c.SetDeadline(wallDeadline(int64(t.opt.HandshakeTimeout))); err != nil {
		return fmt.Errorf("shardnet: handshake: %w", err)
	}
	if _, err := t.c.Write([]byte(wireMagic)); err != nil {
		return fmt.Errorf("shardnet: handshake write: %w", ErrClosed)
	}
	got := make([]byte, len(wireMagic))
	if _, err := io.ReadFull(t.c, got); err != nil {
		return fmt.Errorf("shardnet: handshake read: %w", ErrClosed)
	}
	if string(got) != wireMagic {
		return fmt.Errorf("shardnet: peer is not a pinscope shard endpoint (bad magic %q)", got)
	}
	return t.c.SetDeadline(time.Time{})
}

// Send writes one frame inside the send timeout; an expired or partial
// write breaks the connection.
func (t *tcpConn) Send(f Frame) error {
	t.wmu.Lock()
	defer t.wmu.Unlock()
	if t.closed {
		return ErrClosed
	}
	if err := t.c.SetWriteDeadline(wallDeadline(int64(t.opt.SendTimeout))); err != nil {
		return ErrClosed
	}
	if _, err := t.c.Write(encodeWireFrame(f)); err != nil {
		return ErrClosed
	}
	return nil
}

// SendTorn writes only the first torn bytes of the frame and breaks the
// connection — the wire image of a worker dying mid-send. The fault
// plan's mid-stream shard death uses it; the receiver's framing must
// discard the torn prefix with the connection, never let it near a WAL.
func (t *tcpConn) SendTorn(f Frame, torn int) error {
	t.wmu.Lock()
	defer t.wmu.Unlock()
	if t.closed {
		return ErrClosed
	}
	frame := encodeWireFrame(f)
	if torn < 0 {
		torn = 0
	}
	if torn > len(frame) {
		torn = len(frame)
	}
	t.c.SetWriteDeadline(wallDeadline(int64(t.opt.SendTimeout)))
	if torn > 0 {
		t.c.Write(frame[:torn])
	}
	t.closed = true
	return t.c.Close()
}

// Recv reads one verified frame. wait > 0 bounds the wait in
// nanoseconds; a timeout with no bytes read is ErrRecvTimeout, while a
// timeout mid-frame — like any framing violation — is a broken stream.
func (t *tcpConn) Recv(wait int64) (Frame, error) {
	if err := t.c.SetReadDeadline(wallDeadline(wait)); err != nil {
		return Frame{}, ErrClosed
	}
	header := make([]byte, wireHeaderSize)
	if n, err := io.ReadFull(t.c, header); err != nil {
		if n == 0 && errors.Is(err, os.ErrDeadlineExceeded) {
			return Frame{}, ErrRecvTimeout
		}
		return Frame{}, ErrClosed
	}
	length := int64(binary.LittleEndian.Uint32(header[0:4]))
	wantCRC := binary.LittleEndian.Uint32(header[4:8])
	if length < 1 || length > MaxWireFrame {
		return Frame{}, ErrClosed
	}
	// The header's length is a claim, not a fact: the body buffer grows
	// only as bytes arrive, so a peer that announces MaxWireFrame and
	// hangs up costs a small allocation, not the claimed 64 MiB.
	size := int(length)
	body := t.rbuf[:0]
	for len(body) < size {
		if len(body) == cap(body) {
			grown := make([]byte, len(body), min(max(2*cap(body), firstRecvChunk), size))
			copy(grown, body)
			body = grown
		}
		n, err := io.ReadFull(t.c, body[len(body):min(cap(body), size)])
		body = body[:len(body)+n]
		if err != nil {
			return Frame{}, ErrClosed
		}
	}
	t.rbuf = body
	if crc32.Checksum(body, wireCastagnoli) != wantCRC {
		return Frame{}, ErrClosed
	}
	payload := make([]byte, length-1)
	copy(payload, body[1:])
	return Frame{Type: body[0], Payload: payload}, nil
}

func (t *tcpConn) Close() error {
	t.wmu.Lock()
	defer t.wmu.Unlock()
	if t.closed {
		return nil
	}
	t.closed = true
	return t.c.Close()
}
