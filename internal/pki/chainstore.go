package pki

// chainstore.go is the interning layer of the shared crypto plane. A study
// issues the same certificate material over and over: every worker's MITM
// proxy forges a leaf for the same hosts, and every pin check and chain
// validation hashes the same DER bytes. Two caches collapse that work:
//
//   - ChainStore interns issued chains content-addressed by caller-chosen
//     key (authority digest + hostname + leaf options). Each key's chain is
//     issued exactly once per store, no matter how many workers race on it.
//   - a package-level digest memo precomputes, per *x509.Certificate, the
//     SPKI SHA-256/SHA-1 and whole-cert SHA-256 digests, so sha256.Sum256
//     never runs twice over the same DER.
//
// Both caches hold immutable values, so sharing them across workers cannot
// perturb results; the equivalence test in internal/core proves a plane-
// backed run exports byte-identical data to a cold one.

import (
	"crypto/ecdsa"
	"crypto/sha1"
	"crypto/sha256"
	"crypto/x509"
	"strconv"
	"sync"
)

// ChainStore is a content-addressed intern table for issued chains. The
// zero value is NOT ready; use NewChainStore. Safe for concurrent use:
// concurrent GetOrIssue calls for the same key run the issue function
// exactly once and all receive the same interned chain.
type ChainStore struct {
	m sync.Map // key string -> *chainEntry
}

type chainEntry struct {
	once  sync.Once
	chain Chain
	err   error
}

// NewChainStore returns an empty store.
func NewChainStore() *ChainStore { return &ChainStore{} }

// GetOrIssue returns the chain interned under key, calling issue to build
// it on first use. issue runs at most once per key for the store's
// lifetime; a returned error is interned too (the issuance is assumed
// deterministic, so retrying could only repeat it).
func (s *ChainStore) GetOrIssue(key string, issue func() (Chain, error)) (Chain, error) {
	v, _ := s.m.LoadOrStore(key, &chainEntry{})
	e := v.(*chainEntry)
	e.once.Do(func() {
		e.chain, e.err = issue()
	})
	return e.chain, e.err
}

// Len reports how many keys have been interned (including pending ones).
func (s *ChainStore) Len() int {
	n := 0
	s.m.Range(func(any, any) bool { n++; return true })
	return n
}

// --- Per-certificate digest memo -----------------------------------------

// certDigests holds every digest the study ever takes of one certificate.
type certDigests struct {
	spki256 [sha256.Size]byte
	spki1   [sha1.Size]byte
	raw256  [sha256.Size]byte
}

// digestMemo maps *x509.Certificate to its *certDigests. Keying by pointer
// is sound here: the simulation parses each certificate exactly once (at
// issuance or PEM decode) and passes the same pointer everywhere after.
// Distinct pointers with equal DER merely compute the digests once each.
var digestMemo sync.Map

func digestsOf(cert *x509.Certificate) *certDigests {
	if v, ok := digestMemo.Load(cert); ok {
		return v.(*certDigests)
	}
	d := &certDigests{
		spki256: sha256.Sum256(cert.RawSubjectPublicKeyInfo),
		spki1:   sha1.Sum(cert.RawSubjectPublicKeyInfo),
		raw256:  sha256.Sum256(cert.Raw),
	}
	v, _ := digestMemo.LoadOrStore(cert, d)
	return v.(*certDigests)
}

// RawDigest returns the memoized SHA-256 of cert.Raw.
func RawDigest(cert *x509.Certificate) [sha256.Size]byte {
	return digestsOf(cert).raw256
}

// --- Leaf-issuance intern table -------------------------------------------

// leafIntern caches parsed leaf certificates keyed by the full TBS content
// of the issuance (issuer key, serial, validity, SANs, subject key). A
// process that runs the same study twice re-derives identical keys and
// serials from the seed, so every x509.CreateCertificate call after the
// first would sign, self-verify, encode and re-parse a certificate whose
// bytes — RFC 6979 signature included — equal the first one's. The intern
// hit skips all of that and hands back the very same *x509.Certificate,
// whose digests and signature-memo entry are already in place. The key
// covers every template field issueLeafWithKey varies; constant fields
// (key usages, EKU) need no representation.
var leafIntern sync.Map // string -> *x509.Certificate

// leafInternKey builds the content key for one leaf issuance.
func leafInternKey(parent *x509.Certificate, tmpl *x509.Certificate, pub *ecdsa.PublicKey) string {
	d := digestsOf(parent)
	b := make([]byte, 0, 192)
	b = append(b, d.spki256[:]...)
	ser := tmpl.SerialNumber.Bytes()
	b = append(b, byte(len(ser))) // length prefix: serial bytes may contain any value
	b = append(b, ser...)
	b = append(b, '|')
	b = strconv.AppendInt(b, tmpl.NotBefore.Unix(), 10)
	b = append(b, '|')
	b = strconv.AppendInt(b, tmpl.NotAfter.Unix(), 10)
	for _, name := range tmpl.DNSNames {
		b = append(b, '|')
		b = append(b, name...)
	}
	b = append(b, 0)
	b = append(b, pub.X.Bytes()...)
	b = append(b, 0)
	b = append(b, pub.Y.Bytes()...)
	return string(b)
}

// internLeafCertificate returns the parsed certificate for the issuance
// described by (parent, tmpl, pub), creating and caching it on first use.
// create performs the actual x509.CreateCertificate + ParseCertificate;
// its errors are not interned (they are deterministic, so a retry merely
// repeats them).
func internLeafCertificate(parent, tmpl *x509.Certificate, pub *ecdsa.PublicKey, create func() (*x509.Certificate, error)) (*x509.Certificate, error) {
	key := leafInternKey(parent, tmpl, pub)
	if v, ok := leafIntern.Load(key); ok {
		return v.(*x509.Certificate), nil
	}
	cert, err := create()
	if err != nil {
		return nil, err
	}
	v, _ := leafIntern.LoadOrStore(key, cert)
	return v.(*x509.Certificate), nil
}
