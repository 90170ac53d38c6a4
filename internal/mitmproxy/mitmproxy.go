// Package mitmproxy is the study's interception proxy, the counterpart of
// mitmproxy in the paper's dynamic pipeline (§4.2.1). Installed as the
// netem interceptor, it terminates every TLS connection with a leaf forged
// on the fly from its own CA, opens its own upstream session to the real
// destination, and relays application data while logging the plaintext.
//
// Devices that trust the proxy CA (the study phones) accept the forged
// chain for non-pinned connections; pinned connections reject it, which is
// precisely the differential signal the detector consumes. The proxy also
// records, per connection, whether the client completed the handshake and
// what the genuine upstream chain was.
package mitmproxy

import (
	"fmt"
	"sync"

	"pinscope/internal/detrand"
	"pinscope/internal/netem"
	"pinscope/internal/pki"
	"pinscope/internal/tlswire"
)

// ConnLog records one intercepted connection.
type ConnLog struct {
	Host          string
	SNI           string
	ClientOK      bool  // client completed the TLS handshake with the proxy
	ClientErr     error // why the client leg failed, if it did
	UpstreamOK    bool
	UpstreamChain pki.Chain // genuine chain served by the destination
	Payloads      [][]byte  // client→server plaintext application data
}

// Dest returns the destination key for the log entry: the SNI when the
// client sent one, else the dialed host — matching how captures key flows.
func (c *ConnLog) Dest() string {
	if c.SNI != "" {
		return c.SNI
	}
	return c.Host
}

// ForgeFaults decides transient leaf-forging failures — the fault-injection
// layer's model of mitmproxy's occasional on-the-fly certificate generation
// errors. Implementations must be deterministic and concurrency-safe.
type ForgeFaults interface {
	ForgeFails(host string) bool
}

// Proxy forges certificates from CA and relays intercepted traffic.
type Proxy struct {
	ca  *pki.Authority
	rng *detrand.Source

	mu          sync.Mutex
	leafCache   map[string]pki.Chain
	shared      *pki.ChainStore
	logs        []*ConnLog
	forgeFaults ForgeFaults
}

// New creates a proxy around an issuing CA. The CA certificate is what a
// device must trust for interception to succeed.
func New(ca *pki.Authority, rng *detrand.Source) *Proxy {
	return &Proxy{ca: ca, rng: rng, leafCache: make(map[string]pki.Chain)}
}

// NewWithCA generates a fresh proxy CA from rng and returns the proxy.
func NewWithCA(rng *detrand.Source) (*Proxy, error) {
	ca, err := pki.NewRootCA(rng.Child("mitm-ca"), "mitmproxy", "mitmproxy", 10)
	if err != nil {
		return nil, fmt.Errorf("mitmproxy: generate CA: %w", err)
	}
	return New(ca, rng.Child("mitm-forge")), nil
}

// CACert returns the proxy's root certificate for installation into a
// device trust store.
func (p *Proxy) CACert() *pki.Authority { return p.ca }

// Logs returns the connection logs accumulated so far, in interception
// order.
func (p *Proxy) Logs() []*ConnLog {
	p.mu.Lock()
	defer p.mu.Unlock()
	out := make([]*ConnLog, len(p.logs))
	copy(out, p.logs)
	return out
}

// ResetLogs clears accumulated logs (between per-app runs).
func (p *Proxy) ResetLogs() {
	p.mu.Lock()
	defer p.mu.Unlock()
	p.logs = nil
}

// SetForgeFaults installs (or with nil removes) the transient forging-fault
// decider consulted on every leaf request, ahead of the leaf cache — so a
// faulted host fails even when a forged chain is already cached, exactly
// like a proxy worker dying mid-handshake.
func (p *Proxy) SetForgeFaults(f ForgeFaults) {
	p.mu.Lock()
	defer p.mu.Unlock()
	p.forgeFaults = f
}

// UseChainStore points the proxy's forged-leaf cache at a shared
// content-addressed store (the study's crypto plane). Proxies forging from
// the same CA and the same deterministic rng derivation produce identical
// leaves, so cross-worker sharing changes which worker pays the ECDSA
// issuance cost, never the bytes on the wire. With no store set the proxy
// falls back to its private per-proxy cache.
func (p *Proxy) UseChainStore(s *pki.ChainStore) {
	p.mu.Lock()
	defer p.mu.Unlock()
	p.shared = s
}

// forgedChain returns (building and caching if needed) the forged chain for
// host: a leaf issued by the proxy CA plus the CA certificate.
func (p *Proxy) forgedChain(host string) (pki.Chain, error) {
	p.mu.Lock()
	ff, shared := p.forgeFaults, p.shared
	p.mu.Unlock()
	// Fault check stays ahead of every cache: a faulted host fails even when
	// a forged chain is already interned, like a proxy worker dying
	// mid-handshake.
	if ff != nil && ff.ForgeFails(host) {
		return nil, fmt.Errorf("mitmproxy: transient forge failure for %q", host)
	}
	issue := func() (pki.Chain, error) {
		leaf, err := p.ca.IssueLeaf(p.rng.Child("leaf/"+host), host, pki.LeafOptions{})
		if err != nil {
			return nil, fmt.Errorf("mitmproxy: forge leaf for %q: %w", host, err)
		}
		return pki.Chain{leaf.Cert, p.ca.Cert}, nil
	}
	if shared != nil {
		// Key by issuing authority as well as hostname so one store can
		// serve proxies with distinct CAs without collisions. The authority
		// is identified by its SPKI, not its certificate bytes: a forged
		// leaf depends on the CA's key and name, not on the CA
		// certificate's own serial, validity or signature, so a CA
		// re-signed under the same key shares the leaves already issued.
		// SPKI is also how the project names a CA everywhere identity must
		// outlive re-signing (DESIGN.md, "Fingerprints are SPKI hashes"),
		// and its digest is memoized per certificate.
		sum := pki.SPKIDigest(p.ca.Cert, pki.SHA256)
		return shared.GetOrIssue(string(sum)+"|leaf/"+host, issue)
	}
	p.mu.Lock()
	defer p.mu.Unlock()
	if c, ok := p.leafCache[host]; ok {
		return c, nil
	}
	chain, err := issue()
	if err != nil {
		return nil, err
	}
	p.leafCache[host] = chain
	return chain, nil
}

// HandleConn implements netem.Interceptor.
func (p *Proxy) HandleConn(clientSide tlswire.Transport, dst string, net *netem.Network) {
	log := &ConnLog{Host: dst}
	defer func() {
		p.mu.Lock()
		p.logs = append(p.logs, log)
		p.mu.Unlock()
	}()
	defer clientSide.Close(tlswire.CloseFIN)

	srvCfg := &tlswire.ServerConfig{
		GetChain: func(h *tlswire.HelloInfo) (pki.Chain, error) {
			name := h.SNI
			if name == "" {
				name = dst
			}
			log.SNI = h.SNI
			return p.forgedChain(name)
		},
	}
	clientConn, _, err := tlswire.ServerHandshake(clientSide, srvCfg)
	if err != nil {
		// The client refused our forged chain (pinning, most likely) or
		// aborted for another reason. Record and stop.
		log.ClientErr = err
		return
	}
	log.ClientOK = true

	// Upstream leg to the genuine destination (not captured: the study's
	// vantage point is between device and proxy).
	upT, err := net.DialDirect(dst)
	if err != nil {
		clientConn.Abort()
		return
	}
	defer upT.Close(tlswire.CloseFIN)
	upstream, err := tlswire.Client(upT, &tlswire.ClientConfig{
		ServerName: dst,
		SkipVerify: true, // the proxy forwards regardless of upstream PKI
	})
	if err != nil {
		clientConn.Abort()
		return
	}
	log.UpstreamOK = true
	log.UpstreamChain = upstream.PeerChain

	// Turn-based relay: request up, response down, until the client quits.
	for {
		req, err := clientConn.Recv()
		if err != nil {
			upstream.Close()
			clientConn.Close()
			return
		}
		log.Payloads = append(log.Payloads, req)
		if err := upstream.Send(req); err != nil {
			clientConn.Abort()
			return
		}
		resp, err := upstream.Recv()
		if err != nil {
			clientConn.Abort()
			return
		}
		if err := clientConn.Send(resp); err != nil {
			upstream.Close()
			return
		}
	}
}
