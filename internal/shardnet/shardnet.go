// Package shardnet is the sharded study's lease protocol: a coordinator
// hands contiguous slices of the app universe to workers under
// time-bounded, epoch-fenced leases, and owns one crash-only journal per
// slice. Workers receive the run configuration over the wire (the seed
// and parameters, never data), build their bench from it, and stream
// result frames back. Because each slice journal is written by the
// coordinator from verified frames, the streaming merge consumes every
// run's journals the same way.
//
// Two interchangeable transports implement the same Conn/Listener
// contract: a deterministic in-process simulated network (sim.go), which
// passes frames in memory and, when asked, injects delay, drop,
// duplication, reorder and partition faults as seeded draws from
// faultinject + detrand — fault-free it is how in-process fleets run —
// and a real TCP transport (tcp.go) whose frames reuse the journal
// framing discipline — length-prefixed, CRC32C-checksummed, versioned by
// a magic string — for workers on other machines.
//
// Protocol shape (full grammar in DESIGN.md §8):
//
//	worker → coordinator:  Hello, Ready, Result(slice,epoch,item,payload),
//	                       Heartbeat(slice,epoch)
//	coordinator → worker:  Welcome(run config), Grant(slice,epoch,start,items),
//	                       Fence(slice,epoch), Done
//
// Heartbeats are distinct from result frames so a lease stays alive
// while a slice journal streams back slowly; every frame that touches a
// slice carries the lease epoch, and the coordinator's fence rejects
// frames from zombie epochs before they can reach the WAL. Safety never
// depends on timing: a result frame is a pure function of (run config,
// item index), so duplicated, reordered or replayed work always carries
// the same bytes, and the journals — hence the merged export — are
// byte-identical to a single-process run under arbitrary chaos.
package shardnet

import (
	"encoding/binary"
	"errors"
	"fmt"

	"pinscope/internal/detrand"
)

// Frame types. The numbering space is disjoint from the journal's frame
// types (0x01/0x02) so a wire frame accidentally spliced into a WAL (or
// vice versa) is rejected by type, not just by checksum.
const (
	frameHello     = 0x10 // w→c: first frame after connect
	frameWelcome   = 0x11 // c→w: run config payload
	frameReady     = 0x12 // w→c: idle, wants a grant
	frameGrant     = 0x13 // c→w: lease on a slice
	frameResult    = 0x14 // w→c: one result frame for the slice WAL
	frameHeartbeat = 0x15 // w→c: lease keep-alive, no payload data
	frameFence     = 0x16 // c→w: that lease is dead, abandon it
	frameDone      = 0x17 // c→w: run complete, disconnect
)

// Frame is one protocol message. Payload layout depends on Type; the
// encode/decode helpers below are the only place the layouts live.
type Frame struct {
	Type    byte
	Payload []byte
}

// Errors shared by both transports.
var (
	// ErrClosed reports a connection that is closed or broken: the peer
	// hung up, the link was severed, or Close was called locally.
	ErrClosed = errors.New("shardnet: connection closed")
	// ErrRecvTimeout reports that Recv's wait bound expired with no frame.
	ErrRecvTimeout = errors.New("shardnet: receive timed out")
	// ErrWorkerKilled reports that the injected mid-stream shard death
	// fired: the worker process is "dead" and must not reconnect.
	ErrWorkerKilled = errors.New("shardnet: worker killed by injected shard death")
)

// Conn is one worker's connection. Send is safe for concurrent use (the
// worker's heartbeater and item loop share it); Recv is not — each side
// dedicates one goroutine to receiving.
type Conn interface {
	// Send transmits one frame, bounded by the transport's send timeout.
	Send(f Frame) error
	// Recv blocks for the next frame. wait > 0 bounds the wait in the
	// transport's clock units and expires with ErrRecvTimeout; wait <= 0
	// waits until a frame arrives or the connection dies.
	Recv(wait int64) (Frame, error)
	Close() error
}

// Listener accepts worker connections on the coordinator side.
type Listener interface {
	Accept() (Conn, error)
	Close() error
}

// Dialer opens connections to the coordinator on the worker side.
type Dialer interface {
	Dial() (Conn, error)
}

// Clock is the time source both sides schedule on: logical ticks for the
// simulated network, wall nanoseconds for TCP. WaitUntil must tolerate a
// target already in the past.
type Clock interface {
	Now() int64
	// WaitUntil blocks until the clock reaches at and returns the
	// reading. On the simulated network a blocked WaitUntil participates
	// in the discrete-event warp, so waiting costs no wall time.
	WaitUntil(at int64) int64
}

// grant is the Grant payload: a lease on items [Start, Items) of a slice.
type grant struct {
	Slice int
	Epoch int64
	Start int
	Items int
}

// leaseRef names (slice, epoch) — the Heartbeat and Fence payload.
type leaseRef struct {
	Slice int
	Epoch int64
}

// result is the decoded Result frame: a lease reference, the item index,
// and the journal-bound payload bytes.
type result struct {
	Slice   int
	Epoch   int64
	Item    int
	Payload []byte
}

func encodeGrant(g grant) []byte {
	b := make([]byte, 20)
	binary.LittleEndian.PutUint32(b[0:4], uint32(g.Slice))
	binary.LittleEndian.PutUint64(b[4:12], uint64(g.Epoch))
	binary.LittleEndian.PutUint32(b[12:16], uint32(g.Start))
	binary.LittleEndian.PutUint32(b[16:20], uint32(g.Items))
	return b
}

func decodeGrant(p []byte) (grant, error) {
	if len(p) != 20 {
		return grant{}, fmt.Errorf("shardnet: grant payload is %d bytes, want 20", len(p))
	}
	return grant{
		Slice: int(binary.LittleEndian.Uint32(p[0:4])),
		Epoch: int64(binary.LittleEndian.Uint64(p[4:12])),
		Start: int(binary.LittleEndian.Uint32(p[12:16])),
		Items: int(binary.LittleEndian.Uint32(p[16:20])),
	}, nil
}

func encodeLeaseRef(r leaseRef) []byte {
	b := make([]byte, 12)
	binary.LittleEndian.PutUint32(b[0:4], uint32(r.Slice))
	binary.LittleEndian.PutUint64(b[4:12], uint64(r.Epoch))
	return b
}

func decodeLeaseRef(p []byte) (leaseRef, error) {
	if len(p) != 12 {
		return leaseRef{}, fmt.Errorf("shardnet: lease-ref payload is %d bytes, want 12", len(p))
	}
	return leaseRef{
		Slice: int(binary.LittleEndian.Uint32(p[0:4])),
		Epoch: int64(binary.LittleEndian.Uint64(p[4:12])),
	}, nil
}

func encodeResult(r result) []byte {
	b := make([]byte, 16+len(r.Payload))
	binary.LittleEndian.PutUint32(b[0:4], uint32(r.Slice))
	binary.LittleEndian.PutUint64(b[4:12], uint64(r.Epoch))
	binary.LittleEndian.PutUint32(b[12:16], uint32(r.Item))
	copy(b[16:], r.Payload)
	return b
}

func decodeResult(p []byte) (result, error) {
	if len(p) < 16 {
		return result{}, fmt.Errorf("shardnet: result payload is %d bytes, want >= 16", len(p))
	}
	return result{
		Slice:   int(binary.LittleEndian.Uint32(p[0:4])),
		Epoch:   int64(binary.LittleEndian.Uint64(p[4:12])),
		Item:    int(binary.LittleEndian.Uint32(p[12:16])),
		Payload: p[16:],
	}, nil
}

// resultRef peeks the (slice, item) coordinates of an encoded Result
// payload without copying it — the simulated network uses it to match
// frames against the fault plan.
func resultRef(p []byte) (slice, item int, ok bool) {
	if len(p) < 16 {
		return 0, 0, false
	}
	return int(binary.LittleEndian.Uint32(p[0:4])),
		int(binary.LittleEndian.Uint32(p[12:16])), true
}

// Backoff computes deterministically jittered exponential delays: the
// delay for attempt n is base·2ⁿ (capped at max) scaled by a jitter in
// [0.5, 1.5) drawn from (seed, scope, n) alone. Pure per attempt — the
// same worker retrying the same attempt always waits the same span, so a
// chaos run's timing is replayable, yet distinct scopes (workers, send
// paths) decorrelate and never stampede in sync.
type Backoff struct {
	seed  int64
	scope string
	base  int64
	max   int64
}

// NewBackoff builds a backoff policy. base and max are in clock units;
// a non-positive base falls back to 1.
func NewBackoff(seed int64, scope string, base, max int64) *Backoff {
	if base <= 0 {
		base = 1
	}
	return &Backoff{seed: seed, scope: scope, base: base, max: max}
}

// Delay returns the wait before retry attempt (0-based).
func (b *Backoff) Delay(attempt int) int64 {
	d := b.base
	for i := 0; i < attempt && d < b.max; i++ {
		d *= 2
	}
	if d > b.max {
		d = b.max
	}
	// Scopes are caller-chosen identifiers (worker index, send path), so
	// the label is parameter-derived by design, like faultinject's scopes.
	//pinlint:allow detrandflow backoff scope is a caller-chosen identifier; distinct scopes must yield distinct jitter streams
	rng := detrand.New(b.seed).Child("shardnet/backoff/"+b.scope).ChildN("attempt", attempt)
	jittered := d/2 + int64(rng.Float64()*float64(d))
	if jittered < 1 {
		jittered = 1
	}
	return jittered
}
