// Package netem provides the in-memory network substrate for the study: an
// emulated WiFi segment where test devices dial destination hosts, every
// record crossing the client's access link is captured (the paper's
// tcpdump-at-the-hotspot vantage point), and an interceptor — the MITM
// proxy — can be inserted in front of every connection.
//
// Transports are turn-based record pipes. A passive capture stores only
// tlswire.Summary views of records, never endpoint-private content, so the
// analysis pipeline genuinely cannot cheat by peeking at plaintext.
package netem

import (
	"fmt"
	"sync"

	"pinscope/internal/pki"
	"pinscope/internal/tlswire"
)

// Flow is one captured TCP/TLS connection as seen from the monitoring
// point: destination, timing, the observable record sequence, and how each
// side closed.
type Flow struct {
	mu sync.Mutex

	// Dst is the hostname the client dialed (the capture's flow key; in
	// practice derived from DNS+SNI, and >99% of study traffic had SNI).
	Dst string
	// At is the logical time (seconds since app launch) of the dial.
	At float64

	records     []tlswire.Summary
	recBox      *[]tlswire.Summary // pooled backing array, nil once released
	clientClose tlswire.CloseFlag
	serverClose tlswire.CloseFlag

	// Monitoring-point fault injection: seen counts every record offered to
	// the tap (dropped or not) so drop decisions are index-stable; tailCut
	// is set once the tap stops recording (truncated capture).
	faults  ConnFaults
	seen    int
	tailCut bool
}

// Records returns a snapshot of the captured record summaries.
func (f *Flow) Records() []tlswire.Summary {
	f.mu.Lock()
	defer f.mu.Unlock()
	out := make([]tlswire.Summary, len(f.records))
	copy(out, f.records)
	return out
}

// ViewRecords calls fn with the captured record summaries while holding
// the flow's lock: a read without the copy Records makes. fn must not
// retain the slice (a released capture recycles it) or call back into f.
func (f *Flow) ViewRecords(fn func([]tlswire.Summary)) {
	f.mu.Lock()
	defer f.mu.Unlock()
	fn(f.records)
}

// SNI returns the server name from the captured ClientHello, or "".
func (f *Flow) SNI() string {
	f.mu.Lock()
	defer f.mu.Unlock()
	for _, r := range f.records {
		if r.Hello != nil {
			return r.Hello.SNI
		}
	}
	return ""
}

// ClientHello returns the captured ClientHello, or nil.
func (f *Flow) ClientHello() *tlswire.HelloInfo {
	f.mu.Lock()
	defer f.mu.Unlock()
	for _, r := range f.records {
		if r.Hello != nil {
			return r.Hello
		}
	}
	return nil
}

// NegotiatedVersion returns the version from the captured ServerHello, or 0.
func (f *Flow) NegotiatedVersion() tlswire.Version {
	f.mu.Lock()
	defer f.mu.Unlock()
	for _, r := range f.records {
		if r.SHello != nil {
			return r.SHello.Version
		}
	}
	return 0
}

// ObservedChain returns the certificate chain if it crossed the wire in
// cleartext (TLS <= 1.2 only), else nil.
func (f *Flow) ObservedChain() pki.Chain {
	f.mu.Lock()
	defer f.mu.Unlock()
	for _, r := range f.records {
		if len(r.Certs) > 0 {
			return r.Certs
		}
	}
	return nil
}

// CloseFlags returns how the client and server sides ended.
func (f *Flow) CloseFlags() (client, server tlswire.CloseFlag) {
	f.mu.Lock()
	defer f.mu.Unlock()
	return f.clientClose, f.serverClose
}

func (f *Flow) addRecord(fromClient bool, r tlswire.Record) {
	f.mu.Lock()
	defer f.mu.Unlock()
	idx := f.seen
	f.seen++
	if f.faults.CaptureTailAfter > 0 && idx >= f.faults.CaptureTailAfter {
		// Monitoring stopped mid-flow (window cut / pcap truncation): the
		// record crosses but is never captured, nor is any later close.
		f.tailCut = true
		return
	}
	if f.faults.DropCaptureRecord != nil && f.faults.DropCaptureRecord(idx) {
		return // tap drop: delivery unaffected, observation lost
	}
	f.records = append(f.records, r.Summarize(fromClient))
}

func (f *Flow) addClose(fromClient bool, flag tlswire.CloseFlag) {
	f.mu.Lock()
	defer f.mu.Unlock()
	if f.tailCut {
		return // capture ended before the teardown was observed
	}
	if fromClient {
		if f.clientClose == tlswire.CloseNone {
			f.clientClose = flag
		}
	} else {
		if f.serverClose == tlswire.CloseNone {
			f.serverClose = flag
		}
	}
}

// Capture accumulates the flows of one experiment run.
type Capture struct {
	mu    sync.Mutex
	flows []*Flow
}

// flowRecPool recycles the record backing arrays of released captures. A
// study runs tens of thousands of flows whose summaries are read once by
// the analysis layer (which copies what it keeps) and then discarded;
// recycling the arrays keeps that churn out of the allocator. Recycled
// arrays may briefly pin Summary-referenced objects (hello infos, certs),
// all of which are world-owned and alive for the study anyway.
var flowRecPool = sync.Pool{
	New: func() any {
		s := make([]tlswire.Summary, 0, 16)
		return &s
	},
}

// NewCapture returns an empty capture.
func NewCapture() *Capture { return &Capture{} }

// Flows returns the captured flows in dial order.
func (c *Capture) Flows() []*Flow {
	if c == nil {
		return nil
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	out := make([]*Flow, len(c.flows))
	copy(out, c.flows)
	return out
}

func (c *Capture) newFlow(dst string, at float64) *Flow {
	f := &Flow{Dst: dst, At: at}
	if c != nil {
		box := flowRecPool.Get().(*[]tlswire.Summary)
		f.records = (*box)[:0]
		f.recBox = box
		c.mu.Lock()
		c.flows = append(c.flows, f)
		c.mu.Unlock()
	}
	return f
}

// Last returns the most recently added flow, or nil. Dials are issued
// sequentially from a run's measurement goroutine, so immediately after a
// captured Dial this is that dial's flow.
func (c *Capture) Last() *Flow {
	if c == nil {
		return nil
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	if len(c.flows) == 0 {
		return nil
	}
	return c.flows[len(c.flows)-1]
}

// AddReplayedFlow appends a flow whose records come from a memoized
// handshake outcome rather than a live connection: dst and at are the
// would-be dial's, records and close flags are the snapshot's. The records
// are copied into the flow's (pooled) buffer, so the caller's slice is not
// retained.
func (c *Capture) AddReplayedFlow(dst string, at float64, records []tlswire.Summary, clientClose, serverClose tlswire.CloseFlag) {
	f := c.newFlow(dst, at)
	f.mu.Lock()
	f.records = append(f.records, records...)
	f.clientClose = clientClose
	f.serverClose = serverClose
	f.seen = len(records)
	f.mu.Unlock()
}

// Release returns the capture's pooled record buffers and drops its flows.
// Call it only once the consuming analysis is done with the capture AND the
// network is idle (no handler still appending); the flows' records read
// empty afterwards. Releasing is optional — unreleased captures are
// simply garbage collected.
func (c *Capture) Release() {
	if c == nil {
		return
	}
	c.mu.Lock()
	flows := c.flows
	c.flows = nil
	c.mu.Unlock()
	for _, f := range flows {
		f.mu.Lock()
		box := f.recBox
		if box != nil {
			*box = f.records[:0]
			f.recBox = nil
			f.records = nil
		}
		f.mu.Unlock()
		if box != nil {
			flowRecPool.Put(box)
		}
	}
}

// Handler serves one inbound connection.
type Handler func(t tlswire.Transport)

// ConnFaults are the deterministic fault decisions for one connection. The
// zero value injects nothing.
type ConnFaults struct {
	// ResetAfter, when > 0, tears the connection down with a TCP RST once
	// that many records have crossed it — small values kill the handshake
	// mid-flight, the paper's confounding connection failures (§4.2.2).
	ResetAfter int
	// DropCaptureRecord, when non-nil, reports whether the monitoring tap
	// misses record index i. Delivery is unaffected: the endpoints see the
	// record, the capture does not (pcap drop at the hotspot).
	DropCaptureRecord func(i int) bool
	// CaptureTailAfter, when > 0, stops the tap recording after that many
	// records; later records AND close flags go unobserved, yielding the
	// truncated inconclusive flows of a capture window cut.
	CaptureTailAfter int
}

func (cf ConnFaults) merge(other ConnFaults) ConnFaults {
	if cf.ResetAfter == 0 {
		cf.ResetAfter = other.ResetAfter
	}
	if cf.DropCaptureRecord == nil {
		cf.DropCaptureRecord = other.DropCaptureRecord
	}
	if cf.CaptureTailAfter == 0 {
		cf.CaptureTailAfter = other.CaptureTailAfter
	}
	return cf
}

// FaultTap decides per-connection fault injection for dials on a network.
// Implementations must be safe for concurrent use and deterministic in
// (host, at) so studies stay reproducible.
type FaultTap interface {
	ConnFaults(host string, at float64) ConnFaults
}

// Interceptor sits in front of every intercepted dial; the MITM proxy
// implements it. It must eventually close clientSide.
type Interceptor interface {
	HandleConn(clientSide tlswire.Transport, dstHost string, net *Network)
}

// Network is the emulated network segment.
type Network struct {
	mu          sync.Mutex
	servers     map[string]Handler
	interceptor Interceptor
	faultTap    FaultTap
	wg          sync.WaitGroup
}

// New returns an empty network.
func New() *Network {
	return &Network{servers: make(map[string]Handler)}
}

// Listen registers the handler for host, replacing any previous one.
func (n *Network) Listen(host string, h Handler) {
	n.mu.Lock()
	defer n.mu.Unlock()
	n.servers[host] = h
}

// SetInterceptor installs (or with nil removes) the interception proxy for
// subsequent Dials.
func (n *Network) SetInterceptor(i Interceptor) {
	n.mu.Lock()
	defer n.mu.Unlock()
	n.interceptor = i
}

// SetFaultTap installs (or with nil removes) the fault-injection tap
// consulted on every subsequent Dial. DialDirect legs — the proxy's
// upstream side, beyond the monitoring point — are never faulted.
func (n *Network) SetFaultTap(t FaultTap) {
	n.mu.Lock()
	defer n.mu.Unlock()
	n.faultTap = t
}

// HasInterceptor reports whether an interception proxy is installed —
// i.e. whether subsequent Dials terminate at the MITM instead of the
// genuine destination. Handshake memo keys include this bit.
func (n *Network) HasInterceptor() bool {
	n.mu.Lock()
	defer n.mu.Unlock()
	return n.interceptor != nil
}

// HasFaultTap reports whether a fault-injection tap is installed. Runs on
// a tapped network must bypass handshake memoization so injected faults
// hit real handshakes.
func (n *Network) HasFaultTap() bool {
	n.mu.Lock()
	defer n.mu.Unlock()
	return n.faultTap != nil
}

// HasHost reports whether host is served.
func (n *Network) HasHost(host string) bool {
	n.mu.Lock()
	defer n.mu.Unlock()
	_, ok := n.servers[host]
	return ok
}

// DialOpts parameterize a dial.
type DialOpts struct {
	// At is the logical dial time in seconds since app launch.
	At float64
	// Capture, when non-nil, records the client-side leg of this
	// connection.
	Capture *Capture
	// Faults injects per-connection faults on top of the network's fault
	// tap; caller-set fields win over tap decisions.
	Faults ConnFaults
}

// Dial opens a connection to host, routed through the interceptor if one
// is installed. The returned transport is the client side; the caller must
// Close it (closing is idempotent, so deferring a FIN is always safe).
func (n *Network) Dial(host string, opts DialOpts) (tlswire.Transport, error) {
	n.mu.Lock()
	interceptor := n.interceptor
	tap := n.faultTap
	handler, ok := n.servers[host]
	n.mu.Unlock()

	if interceptor == nil && !ok {
		return nil, fmt.Errorf("netem: no route to host %q", host)
	}

	faults := opts.Faults
	if tap != nil {
		faults = faults.merge(tap.ConnFaults(host, opts.At))
	}
	var flow *Flow
	if opts.Capture != nil {
		flow = opts.Capture.newFlow(host, opts.At)
		flow.faults = faults
	}
	client, server := newPipePair(flow)
	if faults.ResetAfter > 0 {
		st := &resetState{budget: faults.ResetAfter}
		client.reset = st
		server.reset = st
	}

	n.wg.Add(1)
	if interceptor != nil {
		go func() {
			defer n.wg.Done()
			interceptor.HandleConn(server, host, n)
		}()
	} else {
		go func() {
			defer n.wg.Done()
			defer server.Close(tlswire.CloseFIN)
			handler(server)
		}()
	}
	return client, nil
}

// DialDirect bypasses the interceptor — the proxy uses it for its upstream
// leg (which the monitoring point does not capture).
func (n *Network) DialDirect(host string) (tlswire.Transport, error) {
	n.mu.Lock()
	handler, ok := n.servers[host]
	n.mu.Unlock()
	if !ok {
		return nil, fmt.Errorf("netem: no route to host %q", host)
	}
	client, server := newPipePair(nil)
	n.wg.Add(1)
	go func() {
		defer n.wg.Done()
		defer server.Close(tlswire.CloseFIN)
		handler(server)
	}()
	return client, nil
}

// WaitIdle blocks until every spawned handler and interceptor goroutine has
// returned. Callers must close all client transports first.
func (n *Network) WaitIdle() { n.wg.Wait() }

// --- record pipes ---------------------------------------------------------

// pipeBuf sizes each direction's record channel. The protocol is
// turn-based: the longest unacknowledged burst is the TLS 1.3 server
// flight (ServerHello, CCS, certificate record, Finished) plus session
// tickets, well under 16 records, so a small buffer never deadlocks — it
// just applies backpressure. At the study's connection volume the old
// 128-record channels were a measurable share of allocations (two channels
// per connection).
const pipeBuf = 16

// resetState is the shared record budget of a connection carrying an
// injected mid-stream RST; both pipe ends draw from it.
type resetState struct {
	mu     sync.Mutex
	budget int
}

// spend consumes one record from the budget and reports whether the
// connection must be reset instead of delivering it.
func (r *resetState) spend() bool {
	r.mu.Lock()
	defer r.mu.Unlock()
	if r.budget <= 0 {
		return true
	}
	r.budget--
	return false
}

type pipe struct {
	fromClient bool
	out        chan tlswire.Record
	in         chan tlswire.Record

	localDone chan struct{}
	peerDone  chan struct{}

	reset *resetState

	mu        sync.Mutex
	localFlag tlswire.CloseFlag
	peer      *pipe
	flow      *Flow
}

// newPipePair returns the client and server ends of a connection, tapped
// into flow (which may be nil for uncaptured legs).
func newPipePair(flow *Flow) (client, server *pipe) {
	c2s := make(chan tlswire.Record, pipeBuf)
	s2c := make(chan tlswire.Record, pipeBuf)
	client = &pipe{
		fromClient: true,
		out:        c2s, in: s2c,
		localDone: make(chan struct{}),
		flow:      flow,
	}
	server = &pipe{
		fromClient: false,
		out:        s2c, in: c2s,
		localDone: make(chan struct{}),
		flow:      flow,
	}
	client.peerDone = server.localDone
	server.peerDone = client.localDone
	client.peer = server
	server.peer = client
	return client, server
}

func (p *pipe) Send(r tlswire.Record) error {
	select {
	case <-p.localDone:
		return &tlswire.PeerClosedError{Flag: p.localFlagLocked()}
	case <-p.peerDone:
		return &tlswire.PeerClosedError{Flag: p.peer.localFlagLocked()}
	default:
	}
	if p.reset != nil && p.reset.spend() {
		// Injected network reset: the record is lost and both ends go down
		// (closing wakes any peer blocked in Recv, so no goroutine strands).
		// The monitoring point sees the RST arrive from the server
		// direction — the client never sent a teardown of its own, so the
		// flow stays inconclusive instead of mimicking a client-side pin
		// rejection, exactly like a spoofed/middlebox RST on a real trace.
		if p.flow != nil {
			p.flow.addClose(false, tlswire.CloseRST)
		}
		p.peer.close(tlswire.CloseRST, false)
		p.close(tlswire.CloseRST, false)
		return &tlswire.PeerClosedError{Flag: tlswire.CloseRST}
	}
	if p.flow != nil {
		p.flow.addRecord(p.fromClient, r)
	}
	select {
	case p.out <- r:
		return nil
	case <-p.peerDone:
		return &tlswire.PeerClosedError{Flag: p.peer.localFlagLocked()}
	}
}

func (p *pipe) Recv() (tlswire.Record, error) {
	select {
	case r := <-p.in:
		return r, nil
	default:
	}
	select {
	case r := <-p.in:
		return r, nil
	case <-p.peerDone:
		// Final drain: the peer may have sent before closing.
		select {
		case r := <-p.in:
			return r, nil
		default:
			return tlswire.Record{}, &tlswire.PeerClosedError{Flag: p.peer.localFlagLocked()}
		}
	case <-p.localDone:
		return tlswire.Record{}, &tlswire.PeerClosedError{Flag: p.localFlagLocked()}
	}
}

func (p *pipe) Close(flag tlswire.CloseFlag) error { return p.close(flag, true) }

// close shuts the pipe end down; record controls whether the monitoring
// point observes the teardown (injected resets record their own
// server-direction observation instead).
func (p *pipe) close(flag tlswire.CloseFlag, record bool) error {
	p.mu.Lock()
	defer p.mu.Unlock()
	select {
	case <-p.localDone:
		return nil // idempotent
	default:
	}
	p.localFlag = flag
	if record && p.flow != nil {
		p.flow.addClose(p.fromClient, flag)
	}
	close(p.localDone)
	return nil
}

func (p *pipe) localFlagLocked() tlswire.CloseFlag {
	p.mu.Lock()
	defer p.mu.Unlock()
	return p.localFlag
}
