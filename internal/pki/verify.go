package pki

// verify.go is the crypto plane's chain verifier. The study validates tens
// of thousands of chains per run, and the dominant cost inside
// x509.Certificate.Verify is the per-link ECDSA signature check — yet a
// study re-checks the same (parent, child) signature pairs over and over:
// every host's leaf under its issuing CA, every CA under its root, every
// forged leaf under the one proxy CA, across two platforms and every trust
// store. Signatures over identical bytes under identical keys cannot
// change, so verifyChain walks the path itself and routes each link
// through a global content-addressed signature memo (keyed by the raw
// digests of parent and child). Everything non-cryptographic — validity
// windows, hostname matching, CA constraints, key usage — is re-evaluated
// on every call; only the signature math is memoized.
//
// The walker reproduces the exact x509.Verify semantics this simulation's
// PKI exercises (see TestVerifyChainMatchesX509, which holds the walker to
// x509.Verify's verdict across every chain shape the world generator and
// the proxy produce, plus the mutated failure cases). The simulation never
// uses the x509 features the walker omits: name constraints, policy
// graphs, signature algorithms beyond ECDSA-P256/SHA256, or system roots.

import (
	"bytes"
	"crypto/sha256"
	"crypto/x509"
	"sync"
	"sync/atomic"
	"time"
)

// sigMemo caches signature-check outcomes keyed by the raw digests of
// (parent, child). Content-addressed, so entries can never go stale; it
// grows with the number of distinct certificates seen by the process.
// Issuance seeds it (recordSignature): every certificate this process
// signs enters as a verified link, so validating a chain the world or the
// MITM proxy issued runs no ECDSA verify at all. A certificate signed
// elsewhere, or altered after issuance, has other bytes and misses.
var sigMemo sync.Map // [2*sha256.Size]byte -> error (nil stored as nilError)

// nilError is the sentinel for a cached successful check (sync.Map can
// store nil values, but a typed sentinel keeps the Load site unambiguous).
var nilError = struct{}{}

// sigVerifies counts the signature checks that missed the memo and ran
// the real verification; tests read it to prove the seeding works.
var sigVerifies atomic.Int64

// sigMemoKey is the memo key of the (parent, child) link.
func sigMemoKey(parent, child *x509.Certificate) [2 * sha256.Size]byte {
	var key [2 * sha256.Size]byte
	p, c := RawDigest(parent), RawDigest(child)
	copy(key[:], p[:])
	copy(key[sha256.Size:], c[:])
	return key
}

// recordSignature enters the link as verified. Call it only for a
// signature already checked against parent's public key.
func recordSignature(parent, child *x509.Certificate) {
	sigMemo.Store(sigMemoKey(parent, child), nilError)
}

// checkSigCached verifies that parent's key signed child, memoized.
func checkSigCached(parent, child *x509.Certificate) error {
	key := sigMemoKey(parent, child)
	if v, ok := sigMemo.Load(key); ok {
		if v == nilError {
			return nil
		}
		return v.(error)
	}
	sigVerifies.Add(1)
	err := parent.CheckSignature(child.SignatureAlgorithm, child.RawTBSCertificate, child.Signature)
	if err == nil {
		sigMemo.Store(key, nilError)
	} else {
		sigMemo.Store(key, err)
	}
	return err
}

// canSign reports whether parent may act as a CA for child under the
// constraints x509.Verify enforces: a v3 parent must carry valid basic
// constraints with the CA bit, and a parent with a key-usage extension
// must include certificate signing.
func canSign(parent *x509.Certificate) error {
	if parent.Version == 3 && !parent.BasicConstraintsValid ||
		parent.BasicConstraintsValid && !parent.IsCA {
		return x509.ConstraintViolationError{}
	}
	if parent.KeyUsage != 0 && parent.KeyUsage&x509.KeyUsageCertSign == 0 {
		return x509.ConstraintViolationError{}
	}
	return nil
}

// inValidity reports the x509 expiry verdict for c at instant at.
func inValidity(c *x509.Certificate, at time.Time) error {
	if at.Before(c.NotBefore) || at.After(c.NotAfter) {
		return x509.CertificateInvalidError{Cert: c, Reason: x509.Expired}
	}
	return nil
}

// alreadyOnPath mirrors x509's alreadyInChain: a candidate parent with the
// same subject and public key as a cert already on the path is skipped
// (this is what makes a lone self-signed cert fail even when it sits in
// the store).
func alreadyOnPath(candidate *x509.Certificate, path []*x509.Certificate) bool {
	for _, c := range path {
		if bytes.Equal(c.RawSubject, candidate.RawSubject) &&
			bytes.Equal(c.RawSubjectPublicKeyInfo, candidate.RawSubjectPublicKeyInfo) {
			return true
		}
	}
	return false
}

// verifyChain validates chain for hostname at instant at against the
// store's roots, using chain[1:] as the intermediate pool — the same
// inputs Chain.Validate previously handed to x509.Certificate.Verify.
func verifyChain(chain Chain, store *RootStore, hostname string, at time.Time) error {
	if len(chain) == 0 {
		return ErrEmptyChain
	}
	leaf := chain[0]
	if err := inValidity(leaf, at); err != nil {
		return err
	}
	if hostname != "" {
		if err := leaf.VerifyHostname(hostname); err != nil {
			return err
		}
	}
	// Server-auth key usage, as x509.Verify's default KeyUsages enforces
	// along the whole chain: a cert with an EKU list must include
	// ServerAuth or Any; an absent list is unconstrained.
	for _, c := range chain {
		if len(c.ExtKeyUsage) == 0 {
			continue
		}
		ok := false
		for _, u := range c.ExtKeyUsage {
			if u == x509.ExtKeyUsageServerAuth || u == x509.ExtKeyUsageAny {
				ok = true
				break
			}
		}
		if !ok {
			return x509.CertificateInvalidError{Cert: c, Reason: x509.IncompatibleUsage}
		}
	}

	// A leaf that is itself a trust anchor is accepted as a length-one
	// chain with no signature check, mirroring x509.Verify's
	// opts.Roots.contains(c) fast path.
	for _, r := range store.bySubject(leaf.RawSubject) {
		if bytes.Equal(r.Raw, leaf.Raw) {
			return nil
		}
	}

	// Depth-first path walk: at each step try store roots (terminating the
	// path) before chain-supplied intermediates (extending it), exactly as
	// x509 prefers shorter root-anchored chains.
	var walk func(current *x509.Certificate, path []*x509.Certificate) error
	walk = func(current *x509.Certificate, path []*x509.Certificate) error {
		for _, root := range store.bySubject(current.RawIssuer) {
			if alreadyOnPath(root, path) {
				continue
			}
			if canSign(root) != nil || inValidity(root, at) != nil {
				continue
			}
			if checkSigCached(root, current) == nil {
				return nil
			}
		}
		for _, inter := range chain[1:] {
			if !bytes.Equal(inter.RawSubject, current.RawIssuer) || alreadyOnPath(inter, path) {
				continue
			}
			if canSign(inter) != nil || inValidity(inter, at) != nil {
				continue
			}
			// Intermediates must themselves be CA certificates (x509's
			// intermediate isValid check).
			if !(inter.BasicConstraintsValid && inter.IsCA) {
				continue
			}
			if checkSigCached(inter, current) != nil {
				continue
			}
			if err := walk(inter, append(path, inter)); err == nil {
				return nil
			}
		}
		return x509.UnknownAuthorityError{Cert: current}
	}
	return walk(leaf, Chain{leaf})
}
