package shardnet

import (
	"bytes"
	"encoding/binary"
	"errors"
	"net"
	"runtime"
	"testing"
	"time"
)

// byteConn is a net.Conn whose peer sent exactly the given bytes and then
// hung up. Recv only reads and sets read deadlines; the embedded nil
// net.Conn makes any other use panic.
type byteConn struct {
	net.Conn
	r *bytes.Reader
}

func (c *byteConn) Read(p []byte) (int, error)      { return c.r.Read(p) }
func (c *byteConn) SetReadDeadline(time.Time) error { return nil }

// TestRecvAllocatesOnlyWhatArrives: a header claiming MaxWireFrame
// followed by a short body and a hang-up must cost the receiver about the
// bytes that arrived, not the 64 MiB the header claimed.
func TestRecvAllocatesOnlyWhatArrives(t *testing.T) {
	wire := make([]byte, wireHeaderSize, wireHeaderSize+100)
	binary.LittleEndian.PutUint32(wire[0:4], MaxWireFrame)
	wire = append(wire, bytes.Repeat([]byte{0x5a}, 100)...)
	tc := newTCPConn(&byteConn{r: bytes.NewReader(wire)}, TCPOptions{})

	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	_, err := tc.Recv(0)
	runtime.ReadMemStats(&after)
	if !errors.Is(err, ErrClosed) {
		t.Fatalf("Recv after a truncated frame: %v, want ErrClosed", err)
	}
	if d := after.TotalAlloc - before.TotalAlloc; d >= 1<<20 {
		t.Fatalf("Recv allocated %d bytes for a frame that delivered 100", d)
	}
}

// FuzzFrameDecode feeds arbitrary bytes to the TCP framing and the
// payload decoders, the first code a remote peer's bytes reach. Whatever
// arrives, nothing may panic, Recv may only return frames whose bytes on
// the wire are exactly their verified encoding (length and CRC32C), its
// receive buffer never grows past MaxWireFrame, and a decoded payload
// re-encodes to the bytes it came from.
func FuzzFrameDecode(f *testing.F) {
	g := encodeGrant(grant{Slice: 2, Epoch: 7, Start: 3, Items: 40})
	hb := encodeLeaseRef(leaseRef{Slice: 2, Epoch: 7})
	res := encodeResult(result{Slice: 2, Epoch: 7, Item: 4, Payload: []byte("journal-bound result")})
	var stream []byte
	for _, fr := range []Frame{{Type: frameGrant, Payload: g}, {Type: frameHeartbeat, Payload: hb}, {Type: frameResult, Payload: res}, {Type: frameDone}} {
		stream = append(stream, encodeWireFrame(fr)...)
	}
	f.Add(stream)
	f.Add(stream[:len(stream)-3]) // torn tail
	flipped := append([]byte(nil), stream...)
	flipped[wireHeaderSize+3] ^= 0x20 // payload bit flip under an intact CRC
	f.Add(flipped)
	f.Add([]byte{0xff, 0xff, 0xff, 0xff, 0, 0, 0, 0}) // length past MaxWireFrame
	f.Add([]byte{0, 0, 0, 0, 0, 0, 0, 0})             // zero length
	f.Add(g)
	f.Add(res)

	f.Fuzz(func(t *testing.T, data []byte) {
		bc := &byteConn{r: bytes.NewReader(data)}
		tc := newTCPConn(bc, TCPOptions{})
		for at := 0; ; {
			fr, err := tc.Recv(0)
			if cap(tc.rbuf) > MaxWireFrame {
				t.Fatalf("receive buffer grew to %d bytes, past MaxWireFrame", cap(tc.rbuf))
			}
			if err != nil {
				if !errors.Is(err, ErrClosed) {
					t.Fatalf("Recv failed with %v, want ErrClosed", err)
				}
				break
			}
			end := len(data) - bc.r.Len()
			if wire := data[at:end]; !bytes.Equal(wire, encodeWireFrame(fr)) {
				t.Fatalf("Recv returned frame %#x (%d payload bytes) from wire bytes that are not its encoding: %x", fr.Type, len(fr.Payload), wire)
			}
			at = end
			checkPayloadDecoders(t, fr.Payload)
		}
		checkPayloadDecoders(t, data)
	})
}

// checkPayloadDecoders runs p through every payload decoder; whatever one
// accepts must re-encode to p.
func checkPayloadDecoders(t *testing.T, p []byte) {
	t.Helper()
	if g, err := decodeGrant(p); err == nil && !bytes.Equal(encodeGrant(g), p) {
		t.Fatalf("grant %+v does not re-encode to %x", g, p)
	}
	if r, err := decodeLeaseRef(p); err == nil && !bytes.Equal(encodeLeaseRef(r), p) {
		t.Fatalf("lease ref %+v does not re-encode to %x", r, p)
	}
	if r, err := decodeResult(p); err == nil && !bytes.Equal(encodeResult(r), p) {
		t.Fatalf("result (slice %d epoch %d item %d) does not re-encode to %x", r.Slice, r.Epoch, r.Item, p)
	}
}
