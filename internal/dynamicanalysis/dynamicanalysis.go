// Package dynamicanalysis implements the study's run-time pinning detector
// (§4.2): classify every captured TLS connection as used or failed with the
// version-specific heuristics of §4.2.2, then compare the non-MITM and MITM
// captures of an app differentially — a destination whose connections carry
// data without interception but always fail under interception is pinned.
//
// The package consumes only passive observations (netem flow summaries);
// nothing here reads app ground truth. It is the half of the paper's core
// contribution that complements internal/staticanalysis.
package dynamicanalysis

import (
	"sort"
	"strings"

	"pinscope/internal/netem"
	"pinscope/internal/tlswire"
	"pinscope/internal/whois"
)

// ConnStatus classifies one connection.
type ConnStatus int

const (
	// StatusUsed: application data was transmitted (per the §4.2.2
	// heuristics).
	StatusUsed ConnStatus = iota
	// StatusFailed: the connection went unused and the client tore it down
	// (TLS alert, TCP RST, or FIN).
	StatusFailed
	// StatusInconclusive: unused but never observed closing (e.g. capture
	// window ended first).
	StatusInconclusive
)

func (s ConnStatus) String() string {
	switch s {
	case StatusUsed:
		return "used"
	case StatusFailed:
		return "failed"
	}
	return "inconclusive"
}

// Classifier maps a flow to a connection status.
type Classifier func(*netem.Flow) ConnStatus

// ClassifyFlow applies the used/failed heuristics to one captured flow.
//
// TLS <= 1.2: any application_data record means the connection was used —
// handshake records are distinguishable on the wire.
//
// TLS 1.3: every encrypted record is disguised as application_data, so the
// client's record sequence is examined: more than two records, or a second
// record that is not exactly the size of an encrypted alert, indicates real
// application data (the first is always the client Finished on successful
// connections).
func ClassifyFlow(f *netem.Flow) ConnStatus {
	var version tlswire.Version
	used := false
	f.ViewRecords(func(recs []tlswire.Summary) { version, used = classifyRecords(recs) })
	if used {
		return StatusUsed
	}
	clientClose, _ := f.CloseFlags()
	if clientClose == tlswire.CloseNone {
		return StatusInconclusive
	}
	if version == 0 && clientClose != tlswire.CloseRST {
		// An orderly client teardown on a connection that died before a
		// ServerHello ever appeared: the client never saw a certificate, so
		// the close cannot be a pinning verdict — this is the reachability
		// confounder of §4.2.2 (unreachable hosts, proxy forge errors), not
		// a rejection. An abrupt RST is kept as a failure: that is how
		// aborting clients look whether or not the tap caught the
		// ServerHello.
		return StatusInconclusive
	}
	return StatusFailed
}

// classifyRecords reads one flow's records for ClassifyFlow: the version
// of the captured ServerHello (0 without one) and whether the records show
// application data.
func classifyRecords(recs []tlswire.Summary) (version tlswire.Version, used bool) {
	for i := range recs {
		if recs[i].SHello != nil {
			version = recs[i].SHello.Version
			break
		}
	}
	switch {
	case version == 0:
		// No ServerHello in the capture: either the handshake really died
		// that early, or the tap lost the record. Fall back to length
		// fingerprints, which hold for both wire formats: any client
		// application_data record that is neither a Finished nor an
		// encrypted alert, or any server record beyond the first (the
		// certificate flight) that is neither Finished, ticket nor alert,
		// is application traffic.
		serverApp := 0
		for i := range recs {
			r := &recs[i]
			if r.WireType != tlswire.RecAppData {
				continue
			}
			if r.FromClient {
				if r.Length != tlswire.FinishedWireLen && r.Length != tlswire.EncryptedAlertWireLen {
					used = true
				}
				continue
			}
			serverApp++
			if serverApp > 1 && !fixedServerLen(r.Length) {
				used = true
			}
		}
	case version <= tlswire.TLS12:
		for i := range recs {
			if recs[i].WireType == tlswire.RecAppData {
				used = true
				break
			}
		}
	default: // TLS 1.3
		clientApp, clientSecondLen, serverApp := 0, 0, 0
		for i := range recs {
			r := &recs[i]
			if r.WireType != tlswire.RecAppData {
				continue
			}
			if r.FromClient {
				clientApp++
				if clientApp == 2 {
					clientSecondLen = r.Length
				}
				continue
			}
			serverApp++
			// Server-side evidence, robust to capture loss of client
			// records: after the certificate flight (the first encrypted
			// server record), an unused connection only ever carries
			// Finished, session tickets, and alerts — all of fixed wire
			// length. A later server record of any other length is an
			// application response, and responses only follow requests.
			if serverApp > 1 && !fixedServerLen(r.Length) {
				used = true
			}
		}
		switch {
		case clientApp > 2:
			used = true
		case clientApp == 2 && clientSecondLen != tlswire.EncryptedAlertWireLen:
			used = true
		}
	}
	return version, used
}

// fixedServerLen reports whether a server record after the certificate
// flight has the wire length of a Finished, a session ticket or an
// encrypted alert — the only records an unused connection carries.
func fixedServerLen(n int) bool {
	return n == tlswire.FinishedWireLen || n == tlswire.SessionTicketWireLen || n == tlswire.EncryptedAlertWireLen
}

// DestSummary aggregates one destination's connections within one capture.
type DestSummary struct {
	Dest         string
	Used         int
	Failed       int
	Inconclusive int
	// WeakCipherOffered is set when any ClientHello to this destination
	// advertised a weak suite (Table 8's per-connection criterion).
	WeakCipherOffered bool
	// Versions seen in ServerHellos.
	Versions map[tlswire.Version]bool
	// SawClientAlert is set when a plaintext client alert was captured.
	SawClientAlert bool
}

// SummarizeCapture groups a capture's flows by destination.
func SummarizeCapture(cap *netem.Capture) map[string]*DestSummary {
	return SummarizeCaptureWith(cap, ClassifyFlow)
}

// SummarizeCaptureWith is SummarizeCapture with a pluggable classifier.
// Each flow's records are read in place (netem.Flow.ViewRecords), never
// copied: a study summarizes tens of thousands of flows.
func SummarizeCaptureWith(cap *netem.Capture, classify Classifier) map[string]*DestSummary {
	out := make(map[string]*DestSummary)
	for _, f := range cap.Flows() {
		var hello *tlswire.HelloInfo
		var version tlswire.Version
		clientAlert := false
		f.ViewRecords(func(recs []tlswire.Summary) {
			for i := range recs {
				r := &recs[i]
				if hello == nil && r.Hello != nil {
					hello = r.Hello
				}
				if version == 0 && r.SHello != nil {
					version = r.SHello.Version
				}
				if r.FromClient && r.HasAlert && r.Alert != tlswire.AlertCloseNotify {
					clientAlert = true
				}
			}
		})
		// Flows group by SNI when present (>99% of study traffic), else by
		// the dialed host.
		dest := f.Dst
		if hello != nil && hello.SNI != "" {
			dest = hello.SNI
		}
		ds := out[dest]
		if ds == nil {
			ds = &DestSummary{Dest: dest, Versions: make(map[tlswire.Version]bool)}
			out[dest] = ds
		}
		switch classify(f) {
		case StatusUsed:
			ds.Used++
		case StatusFailed:
			ds.Failed++
		default:
			ds.Inconclusive++
		}
		if hello != nil {
			for _, c := range hello.CipherSuites {
				if c.IsWeak() {
					ds.WeakCipherOffered = true
				}
			}
		}
		if version != 0 {
			ds.Versions[version] = true
		}
		if clientAlert {
			ds.SawClientAlert = true
		}
	}
	return out
}

// DestVerdict is the per-destination outcome of the differential analysis.
type DestVerdict struct {
	Dest string
	// Pinned: used without MITM, always failed with MITM.
	Pinned bool
	// UsedNoMITM / UsedMITM report data transmission in each setting.
	UsedNoMITM bool
	UsedMITM   bool
	// Excluded destinations (OS background traffic) are reported for
	// transparency but never counted.
	Excluded bool
	// WeakCipherOffered comes from the non-MITM run's ClientHellos.
	WeakCipherOffered bool
	// ConclusiveFlows counts flows classified used or failed across both
	// captures; a verdict with none rests entirely on inconclusive
	// (truncated) observations.
	ConclusiveFlows int
}

// Result is the dynamic verdict for one app run pair.
type Result struct {
	AppID    string
	Verdicts map[string]*DestVerdict
}

// Quality scores how much conclusive evidence backs this result: the
// number of non-excluded destinations with at least one conclusively
// classified flow. Used to arbitrate between repeated runs of the same app
// (§4.5's delayed re-run) and to grade degraded results under faults.
// Nil-safe; a nil result scores -1 so any real result beats it.
func (r *Result) Quality() int {
	if r == nil {
		return -1
	}
	n := 0
	for _, v := range r.Verdicts {
		if !v.Excluded && v.ConclusiveFlows > 0 {
			n++
		}
	}
	return n
}

// Pins reports whether any destination was detected as pinned.
func (r *Result) Pins() bool {
	for _, v := range r.Verdicts {
		if v.Pinned {
			return true
		}
	}
	return false
}

// PinnedDests returns the pinned destinations, sorted.
func (r *Result) PinnedDests() []string {
	var out []string
	for _, v := range r.Verdicts {
		if v.Pinned {
			out = append(out, v.Dest)
		}
	}
	sort.Strings(out)
	return out
}

// NotPinnedDests returns destinations that demonstrably carried data under
// MITM (the "not pinned" sets of §5.1), sorted.
func (r *Result) NotPinnedDests() []string {
	var out []string
	for _, v := range r.Verdicts {
		if !v.Pinned && !v.Excluded && v.UsedMITM {
			out = append(out, v.Dest)
		}
	}
	sort.Strings(out)
	return out
}

// ContactedDests returns every non-excluded destination observed, sorted.
func (r *Result) ContactedDests() []string {
	var out []string
	for _, v := range r.Verdicts {
		if !v.Excluded {
			out = append(out, v.Dest)
		}
	}
	sort.Strings(out)
	return out
}

// Options configure the differential detector.
type Options struct {
	// ExcludeDomains are OS-attributed destinations (Apple service domains
	// plus the app's associated domains from its entitlements, §4.5).
	// Matching is exact or by-suffix on label boundaries.
	ExcludeDomains []string
}

func excluded(dest string, patterns []string) bool {
	for _, p := range patterns {
		if dest == p || strings.HasSuffix(dest, "."+p) {
			return true
		}
	}
	return false
}

// Detect runs the differential analysis over an app's two captures.
func Detect(appID string, noMITM, mitm *netem.Capture, opts Options) *Result {
	return DetectWith(appID, noMITM, mitm, opts, ClassifyFlow)
}

// DetectWith runs the differential analysis with a pluggable classifier.
func DetectWith(appID string, noMITM, mitm *netem.Capture, opts Options, classify Classifier) *Result {
	base := SummarizeCaptureWith(noMITM, classify)
	inter := SummarizeCaptureWith(mitm, classify)
	res := &Result{AppID: appID, Verdicts: make(map[string]*DestVerdict)}

	all := make(map[string]bool)
	for d := range base {
		all[d] = true
	}
	for d := range inter {
		all[d] = true
	}
	for dest := range all {
		v := &DestVerdict{Dest: dest, Excluded: excluded(dest, opts.ExcludeDomains)}
		if b := base[dest]; b != nil {
			v.UsedNoMITM = b.Used > 0
			v.WeakCipherOffered = b.WeakCipherOffered
			v.ConclusiveFlows += b.Used + b.Failed
		}
		if m := inter[dest]; m != nil {
			v.UsedMITM = m.Used > 0
			v.ConclusiveFlows += m.Used + m.Failed
		}
		// Pinned: data flowed without interception; the destination was
		// attempted under interception and every attempt failed — and it
		// failed MORE often than without interception. Failures common to
		// both captures (redundant connections an app opens and abandons,
		// protocol problems) cancel out differentially; only the excess is
		// interception-induced. For a real pinner the excess is exactly the
		// connections that carried data without MITM, so this never costs a
		// detection.
		if !v.Excluded && v.UsedNoMITM {
			bFailed := 0
			if b := base[dest]; b != nil {
				bFailed = b.Failed
			}
			if m := inter[dest]; m != nil && m.Used == 0 && m.Failed > bFailed {
				v.Pinned = true
			}
		}
		res.Verdicts[dest] = v
	}
	return res
}

// IsFirstParty attributes a destination to the app's own organization using
// whois data and name similarity, the way the paper combined "whois data,
// certificate subject names, etc." (§5.2). It returns false (third party)
// when no signal matches.
func IsFirstParty(dest, developer, appName string, reg *whois.Registry) bool {
	if reg != nil {
		if org, ok := reg.Lookup(dest); ok {
			if strings.EqualFold(org, developer) {
				return true
			}
			// Registered to an unrelated org: decisively third-party.
			return false
		}
	}
	// Whois unavailable (privacy-protected): fall back to name tokens.
	slugify := func(s string) string {
		var b strings.Builder
		for _, r := range strings.ToLower(s) {
			if r >= 'a' && r <= 'z' || r >= '0' && r <= '9' {
				b.WriteRune(r)
			}
		}
		return b.String()
	}
	d := slugify(dest)
	if n := slugify(appName); len(n) >= 5 && strings.Contains(d, n) {
		return true
	}
	if dv := slugify(developer); len(dv) >= 5 && strings.Contains(d, dv) {
		return true
	}
	return false
}
