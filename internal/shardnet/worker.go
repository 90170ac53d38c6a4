package shardnet

// worker.go is the far side of the transport: a worker dials the
// coordinator (with jittered backoff across reconnects), rebuilds its
// bench from the Welcome payload — the run's identity, never its data —
// and then alternates between announcing Ready and working granted
// leases. While working a lease it interleaves heartbeat frames with
// result frames, which is what keeps the lease alive when the result
// stream itself is slow: liveness and progress travel separately.
//
// The worker is deliberately stateless across connections: everything it
// knows (the bench) is rebuilt from the run config, and everything it
// produces is a pure function of (run config, item index). Losing a
// connection mid-slice therefore costs only the recompute; the
// coordinator's journal cursor decides where the takeover resumes.

import (
	"errors"
	"fmt"

	"pinscope/internal/faultinject"
)

// Bench computes one item's journal payload. Implementations must be
// pure: the same (slice, item) always yields the same bytes.
type Bench interface {
	RunItem(slice, item int) ([]byte, error)
}

// WorkerOptions configure RunWorker. Clock and NewBench are required.
type WorkerOptions struct {
	Clock Clock
	// NewBench builds the bench from the Welcome payload, once per
	// worker; reconnects reuse it.
	NewBench func(runConfig []byte) (Bench, error)
	// IdleTimeout bounds each idle Recv in clock units; on expiry the
	// worker re-announces Ready, which also recovers grants eaten by a
	// partition (0 = 4·faultinject.NetTTL).
	IdleTimeout int64
	// Reconnects is the total dial/connection-failure budget before the
	// worker gives up (0 = 8).
	Reconnects int
	// BackoffSeed/Base parameterize the reconnect backoff, which caps at
	// 64·base; Scope decorrelates it across workers (default base 2).
	BackoffSeed int64
	BackoffBase int64
	Scope       string
	// KillTap, when set, is consulted before each result send; returning
	// kill = true makes the worker die mid-stream — over TCP it writes
	// torn bytes of the result frame first, the wire image of a process
	// dying mid-send. Workers sharing one run's faults share one tap
	// (faultinject.ArmedPlan.Kill), so each kill fires once.
	KillTap func(slice, item int) (torn int, kill bool)
}

// tornSender is implemented by transports that can write a torn frame
// prefix before dying (the TCP conn); the simulated network just severs.
type tornSender interface {
	SendTorn(f Frame, torn int) error
}

// RunWorker dials the coordinator and works until Done. It returns nil
// when the coordinator reports the run complete, ErrWorkerKilled when an
// injected death fires, and an error when the reconnect budget or the
// bench fails.
func RunWorker(d Dialer, opt WorkerOptions) error {
	if opt.Clock == nil || opt.NewBench == nil {
		return errors.New("shardnet: worker needs a clock and a bench constructor")
	}
	if opt.IdleTimeout <= 0 {
		opt.IdleTimeout = 4 * faultinject.NetTTL
	}
	reconnects := opt.Reconnects
	if reconnects <= 0 {
		reconnects = 8
	}
	base := opt.BackoffBase
	if base <= 0 {
		base = 2
	}
	backoff := NewBackoff(opt.BackoffSeed, "worker/"+opt.Scope, base, 64*base)

	var bench Bench
	failures := 0
	for {
		conn, err := d.Dial()
		if err == nil {
			err = runSession(conn, opt, &bench)
			conn.Close()
			if err == nil {
				return nil
			}
		}
		if errors.Is(err, ErrWorkerKilled) {
			return err
		}
		if !errors.Is(err, ErrClosed) && !errors.Is(err, ErrRecvTimeout) {
			return err // bench or protocol failure: reconnecting cannot help
		}
		failures++
		if failures > reconnects {
			return fmt.Errorf("shardnet: worker giving up after %d connection failures: %w", failures, err)
		}
		opt.Clock.WaitUntil(opt.Clock.Now() + backoff.Delay(failures-1))
	}
}

// runSession speaks one connection's lifetime: Hello/Welcome, then
// Ready/Grant cycles until Done. Connection errors bubble up for the
// reconnect loop; nil means the run is complete.
func runSession(conn Conn, opt WorkerOptions, bench *Bench) error {
	if err := conn.Send(Frame{Type: frameHello}); err != nil {
		return err
	}
	f, err := conn.Recv(opt.IdleTimeout)
	if err != nil {
		return err
	}
	if f.Type != frameWelcome {
		return fmt.Errorf("shardnet: expected Welcome, got frame type 0x%02x", f.Type)
	}
	if *bench == nil {
		b, err := opt.NewBench(f.Payload)
		if err != nil {
			return fmt.Errorf("shardnet: building bench from run config: %w", err)
		}
		*bench = b
	}
	if err := conn.Send(Frame{Type: frameReady}); err != nil {
		return err
	}
	for {
		f, err := conn.Recv(opt.IdleTimeout)
		if errors.Is(err, ErrRecvTimeout) {
			// A grant (or Done) may have been eaten by a partition; the
			// idle worker re-announces itself instead of waiting forever.
			if err := conn.Send(Frame{Type: frameReady}); err != nil {
				return err
			}
			continue
		}
		if err != nil {
			return err
		}
		switch f.Type {
		case frameGrant:
			g, err := decodeGrant(f.Payload)
			if err != nil {
				return err
			}
			if err := runGrant(conn, opt, *bench, g); err != nil {
				return err
			}
			if err := conn.Send(Frame{Type: frameReady}); err != nil {
				return err
			}
		case frameFence:
			// A lease this worker no longer holds died; nothing to drop.
		case frameDone:
			return nil
		}
	}
}

// runGrant works items [Start, Items) of the granted slice, heartbeating
// before each item so the lease outlives slow result frames. The worker
// never learns mid-grant that it was fenced — it cannot Recv while
// computing — so a fenced worker finishes as a zombie whose frames the
// coordinator refuses; purity makes that waste, never corruption.
func runGrant(conn Conn, opt WorkerOptions, bench Bench, g grant) error {
	hb := encodeLeaseRef(leaseRef{Slice: g.Slice, Epoch: g.Epoch})
	for item := g.Start; item < g.Items; item++ {
		if err := conn.Send(Frame{Type: frameHeartbeat, Payload: hb}); err != nil {
			return err
		}
		payload, err := bench.RunItem(g.Slice, item)
		if err != nil {
			return fmt.Errorf("shardnet: slice %d item %d: %w", g.Slice, item, err)
		}
		rf := Frame{Type: frameResult, Payload: encodeResult(result{
			Slice: g.Slice, Epoch: g.Epoch, Item: item, Payload: payload,
		})}
		if opt.KillTap != nil {
			if torn, kill := opt.KillTap(g.Slice, item); kill {
				if ts, ok := conn.(tornSender); ok {
					ts.SendTorn(rf, torn)
				} else {
					conn.Close()
				}
				return ErrWorkerKilled
			}
		}
		if err := conn.Send(rf); err != nil {
			return err
		}
	}
	return nil
}
