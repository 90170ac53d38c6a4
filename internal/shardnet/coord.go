package shardnet

// coord.go is the lease coordinator: a single event loop owning all lease
// and WAL state, fed by per-connection receive pumps, an accept loop, and
// an alarm goroutine that turns lease deadlines into tick events. Workers
// are on the far side of a Conn and only ever speak frames, whether they
// run in this process over the simulated network or on another machine
// over TCP.
//
// The coordinator owns every slice WAL and appends only fence-admitted,
// in-order frames to it, so the journals a run leaves behind do not
// depend on the transport, the workers, or the faults. Everything hostile
// the network does is absorbed before the WAL's front door:
//
//   - zombie epochs: every Result/Heartbeat carries its lease epoch; a
//     frame from a superseded epoch is counted, fenced, and answered
//     with a Fence frame — it never touches the WAL.
//   - duplicate delivery: a result at an index below the slice cursor is
//     already durable and is discarded (idempotence).
//   - reordering: a result ahead of the cursor waits in a bounded
//     buffer until the gap fills; appends stay sequential.
//   - heartbeat silence (a partition or a stalled peer): the lease
//     deadline expires, the lease is released and re-granted at the
//     journal cursor — takeover-with-resume, no recomputation of durable
//     work. A connection that dies releases its lease at once.
//   - send failures: every coordinator→worker frame is retried under
//     deterministically jittered exponential backoff; exhausting the
//     retries declares the connection dead.

import (
	"errors"
	"fmt"
	"io"
	"os"
	"sort"
	"sync"

	"pinscope/internal/journal"
)

// Slice is one contiguous partition of the universe: the WAL at Path must
// carry exactly Meta and Items result frames when the run completes. A
// WAL already at Path is resumed only if its meta is exactly Meta.
type Slice struct {
	Path  string
	Meta  []byte
	Items int
}

// Stats summarizes a run. The scheduling-dependent counters vary run to
// run and are asserted as inequalities; byte exactness lives in the
// journals.
type Stats struct {
	Workers       int // connections welcomed (reconnects count again)
	Slices        int
	WorkersKilled int // injected worker deaths that fired (counted by RunFleet)
	Granted       int // leases granted
	Expired       int // leases released for heartbeat silence
	Reassigned    int // grants for a slice with a prior holder
	ResumedFrames int // durable frames a grant skipped: a prior run's at first grant, the old holder's on takeover
	Fenced        int // zombie-epoch frames refused by the fence
	Duplicates    int // duplicate-delivery results discarded as already journaled
	Reordered     int // results buffered ahead of the slice cursor
	Heartbeats    int // heartbeat frames admitted
	ConnDrops     int // connections that died or were declared dead
	SendRetries   int // coordinator send attempts beyond the first
}

// Config parameterizes a coordinator.
type Config struct {
	Listener Listener
	Clock    Clock
	Slices   []Slice
	// RunConfig is the Welcome payload: the run's identity (seed and
	// parameters, never data) from which a worker rebuilds its bench.
	RunConfig []byte
	// LeaseTTL is the lease duration in clock units (0 = DefaultSimTTL,
	// sized for the simulated network; TCP callers pass wall-clock
	// nanoseconds).
	LeaseTTL int64
	// BackoffSeed seeds the jittered send backoff, which starts at
	// LeaseTTL/8 and caps at 4·LeaseTTL.
	BackoffSeed int64
}

// sendRetries is how many times a coordinator→worker send is retried
// before the connection is declared dead.
const sendRetries = 3

// DefaultSimTTL is the default lease TTL in simulated-network ticks,
// equal to faultinject.NetTTL so derived delay and partition windows
// straddle lease deadlines by construction.
const DefaultSimTTL = 64

// pendingCap bounds the per-slice reorder buffer. A frame past the cap
// is dropped; the sender's lease eventually expires and the takeover
// resumes at the cursor, so the bound costs work, never correctness.
const pendingCap = 1024

type coordSlice struct {
	idx  int
	conf Slice

	opened  bool
	w       *journal.Writer
	next    int
	done    bool
	pending map[int][]byte

	leased     bool
	epoch      int64
	holder     *coordConn
	deadline   int64
	everLeased bool
}

type coordConn struct {
	id      int
	conn    Conn
	outbox  chan outFrame
	dead    chan struct{}
	ready   bool
	welcome bool
	holding int // slice index, -1 when idle
}

// outFrame is one queued coordinator→worker frame plus the clock hold
// that keeps simulated time pinned until the frame reaches the wire.
type outFrame struct {
	f       Frame
	release func()
}

type coordEvent struct {
	newConn *coordConn
	conn    *coordConn
	frame   *Frame
	err     error
	tick    bool
	abort   error
	// release drops the clock hold taken when the event entered the
	// inbox; the event loop calls it once the reaction (including any
	// outbox enqueues, which take their own holds) is complete.
	release func()
}

// Coordinator runs one transported sharded run to completion.
type Coordinator struct {
	cfg     Config
	ttl     int64
	backoff *Backoff

	inbox      chan coordEvent
	quit       chan struct{}
	quitOnce   sync.Once
	acceptDone chan struct{}
	alarmCh    chan int64

	slices    []*coordSlice
	conns     map[*coordConn]bool
	nextConn  int
	doneCount int
	abort     error // set by Abort; fails the run once conns is empty
	armed     bool
	stats     Stats
	fatal     []error
	pumps     sync.WaitGroup

	statsMu sync.Mutex // guards stats.SendRetries (bumped from outbox goroutines)
}

// NewCoordinator validates cfg and builds a coordinator. Run executes it.
func NewCoordinator(cfg Config) (*Coordinator, error) {
	if cfg.Listener == nil || cfg.Clock == nil {
		return nil, errors.New("shardnet: coordinator needs a listener and a clock")
	}
	if len(cfg.Slices) == 0 {
		return nil, errors.New("shardnet: no slices")
	}
	seen := map[string]bool{}
	for _, s := range cfg.Slices {
		if s.Path == "" || seen[s.Path] {
			return nil, fmt.Errorf("shardnet: missing or duplicate slice path %q", s.Path)
		}
		seen[s.Path] = true
	}
	ttl := cfg.LeaseTTL
	if ttl <= 0 {
		ttl = DefaultSimTTL
	}
	c := &Coordinator{
		cfg:        cfg,
		ttl:        ttl,
		backoff:    NewBackoff(cfg.BackoffSeed, "coord-send", ttl/8, 4*ttl),
		inbox:      make(chan coordEvent, 64),
		quit:       make(chan struct{}),
		acceptDone: make(chan struct{}),
		alarmCh:    make(chan int64, 1),
		conns:      map[*coordConn]bool{},
	}
	for i, s := range cfg.Slices {
		c.slices = append(c.slices, &coordSlice{idx: i, conf: s, pending: map[int][]byte{}})
	}
	c.stats.Slices = len(cfg.Slices)
	return c, nil
}

// Abort asks a running coordinator to stop with err once no worker
// connection is left open, so the results a worker sent before it went
// away still reach the journals. Safe after completion, where it does
// nothing; the journals written so far survive, and a rerun resumes from
// them.
func (c *Coordinator) Abort(err error) {
	c.post(coordEvent{abort: err})
}

// post delivers an event unless the run is over. Reports delivery.
func (c *Coordinator) post(ev coordEvent) bool {
	select {
	case c.inbox <- ev:
		return true
	case <-c.quit:
		return false
	}
}

// Run drives the event loop to completion: every slice's journal ends
// with exactly Items verified frames, or an error explains why not. On
// failure the journals survive and a rerun resumes from them.
func (c *Coordinator) Run() (*Stats, error) {
	go c.acceptLoop()
	go c.alarmLoop()

	for c.doneCount < len(c.slices) {
		ev := <-c.inbox
		switch {
		case ev.abort != nil:
			c.abort = ev.abort
		case ev.newConn != nil:
			c.register(ev.newConn)
		case ev.tick:
			c.armed = false
			c.expireLeases()
		case ev.err != nil:
			c.connDead(ev.conn)
		case ev.frame != nil:
			if err := c.handleFrame(ev.conn, *ev.frame); err != nil {
				c.fatal = append(c.fatal, err)
			}
		}
		if len(c.fatal) == 0 {
			c.grantLoop()
			c.armAlarm()
		}
		if ev.release != nil {
			ev.release()
		}
		if c.abort != nil && len(c.conns) == 0 {
			c.fatal = append(c.fatal, c.abort)
		}
		if len(c.fatal) > 0 {
			break
		}
	}
	return c.finish()
}

// finish tears the run down: Done to every live worker, listener closed,
// stray writers closed with errors surfaced (an unclosed WAL may have an
// undurable tail, and trusting it silently would corrupt a resume).
func (c *Coordinator) finish() (*Stats, error) {
	complete := c.doneCount == len(c.slices)
	for cc := range c.conns {
		if complete {
			c.enqueue(cc, Frame{Type: frameDone})
		}
		close(cc.outbox)
	}
	c.quitOnce.Do(func() { close(c.quit) })
	c.cfg.Listener.Close()
	<-c.acceptDone
	close(c.alarmCh)
	// Drain held events until every pump has exited, then sweep the
	// buffer: an unreleased hold would freeze the simulated clock for the
	// workers still winding down outside this coordinator.
	pumpsDone := make(chan struct{})
	go func() { c.pumps.Wait(); close(pumpsDone) }()
	for draining := true; draining; {
		select {
		case ev := <-c.inbox:
			discard(ev)
		case <-pumpsDone:
			draining = false
		}
	}
	for swept := false; !swept; {
		select {
		case ev := <-c.inbox:
			discard(ev)
		default:
			swept = true
		}
	}
	for _, s := range c.slices {
		if s.w != nil {
			if err := s.w.Close(); err != nil {
				c.fatal = append(c.fatal, fmt.Errorf("shardnet: slice %d journal close: %w", s.idx, err))
			}
			s.w = nil
		}
	}
	if len(c.fatal) > 0 {
		return &c.stats, errors.Join(c.fatal...)
	}
	if !complete {
		return &c.stats, fmt.Errorf("shardnet: %d of %d slices incomplete", len(c.slices)-c.doneCount, len(c.slices))
	}
	return &c.stats, nil
}

// discard drops an event the loop will never handle. Its clock hold is
// released, and a connection accepted as the run ended is closed: left
// open, its worker would wait for a Welcome on a simulated clock that can
// no longer advance.
func discard(ev coordEvent) {
	if ev.newConn != nil {
		ev.newConn.conn.Close()
	}
	if ev.release != nil {
		ev.release()
	}
}

// acceptLoop turns accepted connections into newConn events. The event
// loop owns the registry; this goroutine never touches shared state.
func (c *Coordinator) acceptLoop() {
	defer close(c.acceptDone)
	for {
		conn, err := c.cfg.Listener.Accept()
		if err != nil {
			return
		}
		cc := &coordConn{
			conn:    conn,
			outbox:  make(chan outFrame, 64),
			dead:    make(chan struct{}),
			holding: -1,
		}
		if !c.post(coordEvent{newConn: cc}) {
			conn.Close()
			return
		}
	}
}

// alarmLoop turns armed deadlines into tick events.
func (c *Coordinator) alarmLoop() {
	for at := range c.alarmCh {
		c.cfg.Clock.WaitUntil(at)
		if !c.post(coordEvent{tick: true}) {
			return
		}
	}
}

// register adopts a new connection and starts its pump and outbox.
func (c *Coordinator) register(cc *coordConn) {
	cc.id = c.nextConn
	c.nextConn++
	c.conns[cc] = true
	c.pumps.Add(1)
	go c.pumpLoop(cc)
	go c.outboxLoop(cc)
}

// hold pins a simulated clock for a frame in flight through the
// coordinator's channels; on a wall clock it is a no-op (real time is
// allowed to pass under real compute).
func (c *Coordinator) hold() func() {
	if h, ok := c.cfg.Clock.(interface{ Hold() func() }); ok {
		return h.Hold()
	}
	return func() {}
}

// pumpLoop relays one connection's frames into the event loop. Each
// relayed frame carries a clock hold so simulated time cannot warp past
// the coordinator's reaction to it.
func (c *Coordinator) pumpLoop(cc *coordConn) {
	defer c.pumps.Done()
	for {
		f, err := cc.conn.Recv(0)
		if err != nil {
			c.post(coordEvent{conn: cc, err: err})
			return
		}
		release := c.hold()
		if !c.post(coordEvent{conn: cc, frame: &f, release: release}) {
			release()
			return
		}
	}
}

// outboxLoop drains one connection's send queue, applying the retry and
// backoff policy. Exhausted retries declare the connection dead — posted
// back to the event loop like any other connection failure. Every
// dequeued frame's hold is released once its first send attempt has hit
// the wire (retries run under the waiter machinery instead).
func (c *Coordinator) outboxLoop(cc *coordConn) {
	broken := false
	for of := range cc.outbox {
		if broken {
			of.release()
			continue
		}
		select {
		case <-cc.dead:
			broken = true
			of.release()
			continue
		default:
		}
		err := cc.conn.Send(of.f)
		of.release()
		if err != nil {
			err = c.retrySend(cc, of.f)
		}
		if err != nil {
			broken = true
			cc.conn.Close()
			c.post(coordEvent{conn: cc, err: err})
		}
	}
	cc.conn.Close()
}

// retrySend spaces further attempts of a failed send under the jittered
// backoff policy. The per-attempt timeout lives in the transport (TCP
// write deadlines); this layer spaces the attempts.
func (c *Coordinator) retrySend(cc *coordConn, f Frame) error {
	var err error
	for attempt := 1; attempt <= sendRetries; attempt++ {
		c.statsMu.Lock()
		c.stats.SendRetries++
		c.statsMu.Unlock()
		// Back off until the delay elapses or the conn is declared dead,
		// whichever comes first. The clock wait runs in a helper goroutine
		// so death can interrupt it: on the simulated clock a dead conn's
		// outbox may still hold frames whose holds pin the clock, and only
		// this loop can drain them — waiting here for logical time that
		// cannot pass would deadlock the warp. The orphaned waiter is
		// harmless: it wakes at its target and exits.
		waited := make(chan struct{})
		target := c.cfg.Clock.Now() + c.backoff.Delay(attempt-1)
		go func() {
			c.cfg.Clock.WaitUntil(target)
			close(waited)
		}()
		select {
		case <-cc.dead:
			return ErrClosed
		case <-waited:
		}
		if err = cc.conn.Send(f); err == nil {
			return nil
		}
	}
	return fmt.Errorf("shardnet: conn %d send failed after %d attempts: %w", cc.id, sendRetries+1, err)
}

// enqueue hands a frame to the connection's outbox without ever blocking
// the event loop, holding the simulated clock until it is sent. A full
// outbox means the peer stopped draining; the frame is dropped and the
// lease protocol recovers.
func (c *Coordinator) enqueue(cc *coordConn, f Frame) {
	of := outFrame{f: f, release: c.hold()}
	select {
	case cc.outbox <- of:
	default:
		of.release()
	}
}

// connDead removes a connection and releases its lease at the journal
// cursor. No Fence is needed — the conn is gone — and the next grant of
// the slice resumes exactly at next.
func (c *Coordinator) connDead(cc *coordConn) {
	if !c.conns[cc] {
		return
	}
	delete(c.conns, cc)
	close(cc.dead)
	close(cc.outbox) // no further enqueues can reach a removed conn
	// Close the conn here, not just in outboxLoop's epilogue: with the
	// pump gone, an open unreceived end pins the simulated clock, and the
	// outbox goroutine may itself be waiting on that clock in retrySend.
	cc.conn.Close()
	c.stats.ConnDrops++
	if cc.holding >= 0 {
		s := c.slices[cc.holding]
		if s.leased && s.holder == cc {
			s.leased = false
			s.holder = nil
		}
		cc.holding = -1
	}
}

// expireLeases releases every lease whose deadline passed — heartbeat
// silence, whether from death, partition, or a stalled peer. The old
// holder (if its connection survives) is fenced best-effort; its epoch
// is already superseded by the time anyone else is granted the slice.
func (c *Coordinator) expireLeases() {
	now := c.cfg.Clock.Now()
	for _, s := range c.slices {
		if !s.leased || s.done || now < s.deadline {
			continue
		}
		s.leased = false
		c.stats.Expired++
		if s.holder != nil {
			c.enqueue(s.holder, Frame{Type: frameFence, Payload: encodeLeaseRef(leaseRef{Slice: s.idx, Epoch: s.epoch})})
			s.holder.holding = -1
			s.holder = nil
		}
	}
}

// armAlarm schedules a tick at the earliest lease deadline. One alarm in
// flight at a time; a deadline that moves earlier after arming is caught
// one tick late, which delays an expiry but never admits a stale frame.
func (c *Coordinator) armAlarm() {
	if c.armed {
		return
	}
	target := int64(-1)
	for _, s := range c.slices {
		if s.leased && !s.done && (target < 0 || s.deadline < target) {
			target = s.deadline
		}
	}
	if target < 0 {
		return
	}
	c.armed = true
	c.alarmCh <- target
}

// handleFrame dispatches one worker frame.
func (c *Coordinator) handleFrame(cc *coordConn, f Frame) error {
	if !c.conns[cc] {
		return nil // frame raced the connection's death
	}
	switch f.Type {
	case frameHello:
		if !cc.welcome {
			cc.welcome = true
			c.stats.Workers++
			c.enqueue(cc, Frame{Type: frameWelcome, Payload: c.cfg.RunConfig})
		}
	case frameReady:
		cc.ready = true
	case frameHeartbeat:
		ref, err := decodeLeaseRef(f.Payload)
		if err != nil || ref.Slice < 0 || ref.Slice >= len(c.slices) {
			return nil // malformed: ignore, the lease protocol recovers
		}
		s := c.slices[ref.Slice]
		if s.leased && !s.done && s.holder == cc && s.epoch == ref.Epoch {
			s.deadline = c.cfg.Clock.Now() + c.ttl
			c.stats.Heartbeats++
		} else {
			c.stats.Fenced++
			c.enqueue(cc, Frame{Type: frameFence, Payload: encodeLeaseRef(ref)})
		}
	case frameResult:
		r, err := decodeResult(f.Payload)
		if err != nil || r.Slice < 0 || r.Slice >= len(c.slices) {
			return nil
		}
		return c.handleResult(cc, r)
	}
	return nil
}

// handleResult admits one result frame through the fence, the duplicate
// filter and the reorder buffer, then appends in order.
func (c *Coordinator) handleResult(cc *coordConn, r result) error {
	s := c.slices[r.Slice]
	if s.done || !s.leased || s.holder != cc || s.epoch != r.Epoch {
		// Zombie epoch (or a slice this conn never held): the frame's
		// bytes are pure, but admitting it would bypass the lease
		// protocol — fence it and tell the sender.
		c.stats.Fenced++
		c.enqueue(cc, Frame{Type: frameFence, Payload: encodeLeaseRef(leaseRef{Slice: r.Slice, Epoch: r.Epoch})})
		return nil
	}
	s.deadline = c.cfg.Clock.Now() + c.ttl // live current-epoch traffic is a heartbeat
	switch {
	case r.Item < s.next:
		// Duplicate delivery of an already-durable frame: idempotent.
		c.stats.Duplicates++
		return nil
	case r.Item > s.next:
		if len(s.pending) < pendingCap {
			if _, have := s.pending[r.Item]; !have {
				s.pending[r.Item] = r.Payload
				c.stats.Reordered++
			}
		}
		return nil
	}
	if err := c.appendRun(s, r.Payload); err != nil {
		return err
	}
	return c.maybeComplete(s)
}

// appendRun appends the in-order frame plus everything it unblocks in
// the reorder buffer.
func (c *Coordinator) appendRun(s *coordSlice, payload []byte) error {
	for {
		if err := s.w.Append(payload); err != nil {
			return fmt.Errorf("shardnet: slice %d append: %w", s.idx, err)
		}
		s.next++
		next, ok := s.pending[s.next]
		if !ok {
			return nil
		}
		delete(s.pending, s.next)
		payload = next
	}
}

// maybeComplete closes out a slice whose journal is full. The close
// error is surfaced — a journal that failed to close may have an
// undurable tail, and the merge must not trust it silently.
func (c *Coordinator) maybeComplete(s *coordSlice) error {
	if s.done || s.next < s.conf.Items {
		return nil
	}
	s.done = true
	s.leased = false
	s.pending = map[int][]byte{}
	if s.holder != nil {
		s.holder.holding = -1
		s.holder = nil
	}
	c.doneCount++
	w := s.w
	s.w = nil
	if w != nil {
		if err := w.Close(); err != nil {
			return fmt.Errorf("shardnet: slice %d journal close: %w", s.idx, err)
		}
	}
	return nil
}

// grantLoop hands free slices to ready idle connections, opening (or
// resuming) each slice's journal at first grant. A slice found already
// complete on disk — a prior run's journal — completes without a grant.
func (c *Coordinator) grantLoop() {
	// Iterate connections in arrival order, not map order: which worker
	// is offered which slice must not depend on map iteration, or two
	// runs of the same seed would schedule (and error) differently.
	conns := make([]*coordConn, 0, len(c.conns))
	for cc := range c.conns {
		conns = append(conns, cc)
	}
	sort.Slice(conns, func(i, j int) bool { return conns[i].id < conns[j].id })
	for _, cc := range conns {
		if !cc.ready || !cc.welcome || cc.holding >= 0 {
			continue
		}
		for _, s := range c.slices {
			if s.done || s.leased {
				continue
			}
			if !s.opened {
				if err := c.openJournal(s); err != nil {
					c.fatal = append(c.fatal, err)
					return
				}
				if err := c.maybeComplete(s); err != nil {
					c.fatal = append(c.fatal, err)
					return
				}
				if s.done {
					continue
				}
			}
			s.leased = true
			s.epoch++
			s.holder = cc
			s.deadline = c.cfg.Clock.Now() + c.ttl
			s.pending = map[int][]byte{}
			if s.everLeased {
				c.stats.Reassigned++
				c.stats.ResumedFrames += s.next
			}
			s.everLeased = true
			c.stats.Granted++
			cc.holding = s.idx
			cc.ready = false
			c.enqueue(cc, Frame{Type: frameGrant, Payload: encodeGrant(grant{
				Slice: s.idx, Epoch: s.epoch, Start: s.next, Items: s.conf.Items,
			})})
			break
		}
	}
}

// openJournal creates or resumes the slice's WAL at its first grant:
// stream the verified frames (Reader, never a whole-WAL slurp), hold the
// on-disk meta against the slice's, and continue after the durable
// prefix.
func (c *Coordinator) openJournal(s *coordSlice) error {
	s.opened = true
	if _, err := os.Stat(s.conf.Path); err == nil {
		r, err := journal.OpenReader(s.conf.Path)
		if err != nil {
			return fmt.Errorf("shardnet: resume slice %d: %w", s.idx, err)
		}
		if string(r.Meta()) != string(s.conf.Meta) {
			r.Close()
			return fmt.Errorf("shardnet: slice %d journal %s belongs to a different run (meta mismatch)",
				s.idx, s.conf.Path)
		}
		for {
			if _, err := r.Next(); errors.Is(err, io.EOF) {
				break
			} else if err != nil {
				r.Close()
				return fmt.Errorf("shardnet: resume slice %d: %w", s.idx, err)
			}
		}
		frames := r.Frames()
		size := r.ValidSize()
		r.Close()
		if frames > s.conf.Items {
			return fmt.Errorf("shardnet: slice %d journal has %d frames for %d items",
				s.idx, frames, s.conf.Items)
		}
		w, err := journal.ResumeWriter(s.conf.Path, frames, size)
		if err != nil {
			return fmt.Errorf("shardnet: resume slice %d: %w", s.idx, err)
		}
		s.w = w
		s.next = frames
		c.stats.ResumedFrames += frames
		return nil
	}
	w, err := journal.Create(s.conf.Path, s.conf.Meta)
	if err != nil {
		return fmt.Errorf("shardnet: slice %d: %w", s.idx, err)
	}
	s.w = w
	s.next = 0
	return nil
}
