package pki

import (
	"bytes"
	"testing"
	"testing/quick"
	"time"

	"pinscope/internal/detrand"
)

func testChain(t *testing.T, seed int64) (Chain, *Entity, *Authority, *Authority) {
	t.Helper()
	rng := detrand.New(seed)
	root, err := NewRootCA(rng, "Test Root", "TestOrg", 20)
	if err != nil {
		t.Fatal(err)
	}
	inter, err := root.NewIntermediate(rng, "Test Issuing CA", 10)
	if err != nil {
		t.Fatal(err)
	}
	leaf, err := inter.IssueLeaf(rng, "api.example.com", LeafOptions{})
	if err != nil {
		t.Fatal(err)
	}
	return Chain{leaf.Cert, inter.Cert, root.Cert}, leaf, inter, root
}

func TestDeterministicKeys(t *testing.T) {
	k1 := deterministicKey(detrand.New(5))
	k2 := deterministicKey(detrand.New(5))
	if k1.D.Cmp(k2.D) != 0 {
		t.Fatal("same seed produced different keys")
	}
	k3 := deterministicKey(detrand.New(6))
	if k1.D.Cmp(k3.D) == 0 {
		t.Fatal("different seeds produced identical keys")
	}
}

// TestCertificatesAreDeterministic: equal rng streams issue byte-equal
// certificates on every non-interned path, signatures included, so two
// world builds (in one process or in two) carry the same DER.
func TestCertificatesAreDeterministic(t *testing.T) {
	build := func() (root, inter, self []byte) {
		rng := detrand.New(31)
		r, err := NewRootCA(rng.Child("root"), "Det Root", "DetOrg", 10)
		if err != nil {
			t.Fatal(err)
		}
		i, err := r.NewIntermediate(rng.Child("inter"), "Det Issuing CA", 5)
		if err != nil {
			t.Fatal(err)
		}
		s, err := NewSelfSigned(rng.Child("self"), "det.example.com", 10)
		if err != nil {
			t.Fatal(err)
		}
		return r.Cert.Raw, i.Cert.Raw, s.Cert.Raw
	}
	r1, i1, s1 := build()
	r2, i2, s2 := build()
	for _, c := range []struct {
		name string
		a, b []byte
	}{{"root", r1, r2}, {"intermediate", i1, i2}, {"self-signed", s1, s2}} {
		if !bytes.Equal(c.a, c.b) {
			t.Errorf("%s certificate DER differs between two equal-seed issuances", c.name)
		}
	}
}

func TestChainValidates(t *testing.T) {
	chain, _, _, root := testChain(t, 1)
	store := NewRootStore("test")
	store.Add(root.Cert)
	if err := chain.Validate(store, "api.example.com", StudyEpoch); err != nil {
		t.Fatalf("valid chain rejected: %v", err)
	}
}

func TestChainRejectsWrongHostname(t *testing.T) {
	chain, _, _, root := testChain(t, 2)
	store := NewRootStore("test")
	store.Add(root.Cert)
	if err := chain.Validate(store, "evil.example.org", StudyEpoch); err == nil {
		t.Fatal("hostname mismatch accepted")
	}
}

func TestChainRejectsUntrustedRoot(t *testing.T) {
	chain, _, _, _ := testChain(t, 3)
	_, _, _, otherRoot := testChain(t, 4)
	store := NewRootStore("test")
	store.Add(otherRoot.Cert)
	if err := chain.Validate(store, "api.example.com", StudyEpoch); err == nil {
		t.Fatal("chain with untrusted root accepted")
	}
}

func TestChainRejectsExpired(t *testing.T) {
	chain, _, _, root := testChain(t, 5)
	store := NewRootStore("test")
	store.Add(root.Cert)
	future := StudyEpoch.AddDate(5, 0, 0)
	if err := chain.Validate(store, "api.example.com", future); err == nil {
		t.Fatal("expired leaf accepted")
	}
}

func TestEmptyChain(t *testing.T) {
	store := NewRootStore("test")
	if err := Chain(nil).Validate(store, "x", StudyEpoch); err != ErrEmptyChain {
		t.Fatalf("got %v, want ErrEmptyChain", err)
	}
	if Chain(nil).Leaf() != nil || Chain(nil).Root() != nil {
		t.Fatal("empty chain leaf/root should be nil")
	}
}

func TestLeafRootAccessors(t *testing.T) {
	chain, leaf, _, root := testChain(t, 6)
	if !chain.Leaf().Equal(leaf.Cert) {
		t.Fatal("Leaf() wrong")
	}
	if !chain.Root().Equal(root.Cert) {
		t.Fatal("Root() wrong")
	}
}

func TestPinRoundTrip(t *testing.T) {
	chain, _, _, _ := testChain(t, 7)
	for _, alg := range []HashAlg{SHA256, SHA1} {
		for _, hexForm := range []bool{false, true} {
			p := NewPin(chain.Leaf(), alg)
			p.Hex = hexForm
			parsed, err := ParsePin(p.String())
			if err != nil {
				t.Fatalf("ParsePin(%q): %v", p.String(), err)
			}
			if parsed.Key() != p.Key() {
				t.Fatalf("round trip changed pin: %q vs %q", parsed.Key(), p.Key())
			}
			if !parsed.Matches(chain.Leaf()) {
				t.Fatal("parsed pin does not match the certificate it was made from")
			}
		}
	}
}

func TestParsePinRejectsGarbage(t *testing.T) {
	bad := []string{
		"", "sha256/", "md5/abcd", "sha256/!!!not-base64!!!",
		"sha256/aGVsbG8=", // valid base64, wrong length
		"sha1/abcd",
	}
	for _, s := range bad {
		if _, err := ParsePin(s); err == nil {
			t.Fatalf("ParsePin(%q) accepted", s)
		}
	}
}

func TestPinMatchesOnlyOwnCert(t *testing.T) {
	chainA, _, _, _ := testChain(t, 8)
	chainB, _, _, _ := testChain(t, 9)
	p := NewPin(chainA.Leaf(), SHA256)
	if p.Matches(chainB.Leaf()) {
		t.Fatal("pin matched a different certificate")
	}
}

func TestPinSetSemantics(t *testing.T) {
	chain, _, inter, _ := testChain(t, 10)

	// CA pin matches the whole chain (any cert in chain).
	caPin := &PinSet{Pins: []Pin{NewPin(inter.Cert, SHA256)}}
	if !caPin.MatchChain(chain) {
		t.Fatal("CA pin did not match chain containing the CA")
	}

	// Leaf pin matches.
	leafPin := &PinSet{Pins: []Pin{NewPin(chain.Leaf(), SHA256)}}
	if !leafPin.MatchChain(chain) {
		t.Fatal("leaf pin did not match")
	}

	// Unrelated pin does not match.
	other, _, _, _ := testChain(t, 11)
	bad := &PinSet{Pins: []Pin{NewPin(other.Leaf(), SHA256)}}
	if bad.MatchChain(chain) {
		t.Fatal("unrelated pin matched")
	}

	// Raw-cert pinning matches exact cert only.
	rawSet := &PinSet{}
	rawSet.RawCerts = append(rawSet.RawCerts, chain.Leaf())
	if !rawSet.MatchChain(chain) {
		t.Fatal("raw cert pin did not match own chain")
	}
	if rawSet.MatchChain(other) {
		t.Fatal("raw cert pin matched foreign chain")
	}

	// Empty set never matches.
	var empty *PinSet
	if !empty.Empty() || empty.MatchChain(chain) {
		t.Fatal("nil PinSet misbehaved")
	}
}

func TestRawCertPinBreaksOnReissueWithNewKey(t *testing.T) {
	rng := detrand.New(12)
	root, _ := NewRootCA(rng, "R", "R", 20)
	inter, _ := root.NewIntermediate(rng, "I", 10)
	leaf1, _ := inter.IssueLeaf(rng, "svc.example.com", LeafOptions{})
	leaf2, _ := inter.IssueLeaf(rng, "svc.example.com", LeafOptions{}) // new key

	set := &PinSet{}
	set.RawCerts = append(set.RawCerts, leaf1.Cert)
	newChain := Chain{leaf2.Cert, inter.Cert, root.Cert}
	if set.MatchChain(newChain) {
		t.Fatal("raw-cert pin survived reissue with a new key")
	}

	// SPKI pin with key reuse survives (§5.3.3).
	leaf3, err := inter.ReissueLeaf(rng, leaf1, LeafOptions{})
	if err != nil {
		t.Fatal(err)
	}
	spki := &PinSet{Pins: []Pin{NewPin(leaf1.Cert, SHA256)}}
	rotated := Chain{leaf3.Cert, inter.Cert, root.Cert}
	if !spki.MatchChain(rotated) {
		t.Fatal("SPKI pin did not survive key-reusing rotation")
	}
	if leaf3.Cert.Equal(leaf1.Cert) {
		t.Fatal("reissued cert should differ from original")
	}
}

func TestPEMRoundTrip(t *testing.T) {
	chain, _, _, _ := testChain(t, 13)
	p := EncodePEM(chain.Leaf())
	if !bytes.Contains(p, []byte("-----BEGIN CERTIFICATE-----")) {
		t.Fatal("PEM missing header")
	}
	back, err := DecodePEM(p)
	if err != nil {
		t.Fatal(err)
	}
	if !back.Equal(chain.Leaf()) {
		t.Fatal("PEM round trip changed certificate")
	}
	// Multi-cert bundle.
	bundle := append(append([]byte{}, EncodePEM(chain[0])...), EncodePEM(chain[1])...)
	all := DecodeAllPEM(bundle)
	if len(all) != 2 {
		t.Fatalf("DecodeAllPEM found %d certs", len(all))
	}
}

func TestDecodePEMErrors(t *testing.T) {
	if _, err := DecodePEM([]byte("not pem at all")); err == nil {
		t.Fatal("garbage accepted")
	}
	if got := DecodeAllPEM([]byte("junk")); len(got) != 0 {
		t.Fatal("garbage produced certs")
	}
}

func TestSelfSigned(t *testing.T) {
	rng := detrand.New(14)
	e, err := NewSelfSigned(rng, "standalone.example.com", 27)
	if err != nil {
		t.Fatal(err)
	}
	if e.Cert.NotAfter.Before(StudyEpoch.AddDate(26, 0, 0)) {
		t.Fatal("validity shorter than requested")
	}
	// Self-signed chains never validate against a public store.
	store := NewRootStore("empty")
	if err := (Chain{e.Cert}).Validate(store, "standalone.example.com", StudyEpoch); err == nil {
		t.Fatal("self-signed validated against empty store")
	}
}

func TestRootStoreCloneIsolation(t *testing.T) {
	chain, _, _, root := testChain(t, 15)
	orig := NewRootStore("orig")
	orig.Add(root.Cert)
	clone := orig.Clone("clone")
	extra, _, _, extraRoot := testChain(t, 16)
	clone.Add(extraRoot.Cert)
	if orig.Contains(extra.Root()) {
		t.Fatal("clone mutation leaked into original")
	}
	if !clone.Contains(root.Cert) {
		t.Fatal("clone missing original root")
	}
	if err := chain.Validate(clone, "api.example.com", StudyEpoch); err != nil {
		t.Fatalf("clone lost validation: %v", err)
	}
}

func TestEcosystem(t *testing.T) {
	eco, err := BuildEcosystem(detrand.New(17))
	if err != nil {
		t.Fatal(err)
	}
	if eco.Mozilla.Len() != len(publicCANames)+1 { // +1 legacy root
		t.Fatalf("Mozilla store has %d roots", eco.Mozilla.Len())
	}
	if eco.OEM.Len() != len(publicCANames)+len(obscureCANames)+1 {
		t.Fatalf("OEM store has %d roots", eco.OEM.Len())
	}
	if eco.IOS.Len() >= eco.AOSP.Len() {
		t.Fatal("expected iOS store slightly smaller than AOSP")
	}

	rng := detrand.New(18)
	chain, leaf, err := eco.IssuePublicChain(rng, "cdn.example.net", pkiLeafOpts())
	if err != nil {
		t.Fatal(err)
	}
	if len(chain) != 3 {
		t.Fatalf("chain length %d", len(chain))
	}
	if leaf.Key == nil {
		t.Fatal("no leaf key")
	}
	if !eco.IsDefaultPKI(chain, "cdn.example.net") {
		t.Fatal("public chain not classified as default PKI")
	}
	if err := chain.Validate(eco.AOSP, "cdn.example.net", StudyEpoch); err != nil {
		t.Fatalf("public chain fails on AOSP: %v", err)
	}
	if err := chain.Validate(eco.OEM, "cdn.example.net", StudyEpoch); err != nil {
		t.Fatalf("public chain fails on OEM: %v", err)
	}
}

func pkiLeafOpts() LeafOptions { return LeafOptions{} }

func TestCustomPKIClassification(t *testing.T) {
	eco, err := BuildEcosystem(detrand.New(19))
	if err != nil {
		t.Fatal(err)
	}
	rng := detrand.New(20)
	root, inter, err := eco.NewCustomPKI(rng, "AcmeBank")
	if err != nil {
		t.Fatal(err)
	}
	leaf, err := inter.IssueLeaf(rng, "vault.acmebank.com", LeafOptions{})
	if err != nil {
		t.Fatal(err)
	}
	chain := Chain{leaf.Cert, inter.Cert, root.Cert}
	if eco.IsDefaultPKI(chain, "vault.acmebank.com") {
		t.Fatal("custom PKI classified as default")
	}
}

func TestObscureCAOnlyOnOEM(t *testing.T) {
	eco, err := BuildEcosystem(detrand.New(21))
	if err != nil {
		t.Fatal(err)
	}
	rng := detrand.New(22)
	leaf, err := eco.ObscureCAs[0].IssueLeaf(rng, "legacy.example.com", LeafOptions{})
	if err != nil {
		t.Fatal(err)
	}
	chain := Chain{leaf.Cert, eco.ObscureCAs[0].Cert}
	if err := chain.Validate(eco.OEM, "legacy.example.com", StudyEpoch); err != nil {
		t.Fatalf("obscure chain fails on OEM store: %v", err)
	}
	if err := chain.Validate(eco.AOSP, "legacy.example.com", StudyEpoch); err == nil {
		t.Fatal("obscure chain validated on AOSP store")
	}
	if eco.IsDefaultPKI(chain, "legacy.example.com") {
		t.Fatal("obscure chain classified as default PKI")
	}
}

func TestPinKeyCanonical(t *testing.T) {
	f := func(seed int64) bool {
		rng := detrand.New(seed)
		root, err := NewRootCA(rng, "r", "r", 10)
		if err != nil {
			return false
		}
		p1 := NewPin(root.Cert, SHA256)
		p2 := NewPin(root.Cert, SHA256)
		p2.Hex = true
		return p1.Key() == p2.Key() && p1.String() != p2.String()
	}
	cfg := &quick.Config{MaxCount: 10}
	if err := quick.Check(f, cfg); err != nil {
		t.Fatal(err)
	}
}

func TestLeafDefaultValidity(t *testing.T) {
	chain, _, _, _ := testChain(t, 23)
	leaf := chain.Leaf()
	if !leaf.NotBefore.Before(StudyEpoch) || !leaf.NotAfter.After(StudyEpoch) {
		t.Fatalf("default validity window [%v, %v] does not contain StudyEpoch", leaf.NotBefore, leaf.NotAfter)
	}
	if leaf.NotAfter.Sub(leaf.NotBefore) > 380*24*time.Hour {
		t.Fatal("default leaf validity implausibly long")
	}
}

func TestRootStoreValidateCached(t *testing.T) {
	chain, _, _, root := testChain(t, 30)
	store := NewRootStore("cache-test")
	store.Add(root.Cert)
	// Repeated validations agree and hit the cache.
	for i := 0; i < 3; i++ {
		if err := store.Validate(chain, "api.example.com", StudyEpoch); err != nil {
			t.Fatalf("iteration %d: %v", i, err)
		}
	}
	if err := store.Validate(chain, "evil.example.org", StudyEpoch); err == nil {
		t.Fatal("cached path accepted wrong hostname")
	}
	// Negative results are cached per (hostname,time) key, so a different
	// time is a different entry.
	future := StudyEpoch.AddDate(9, 0, 0)
	if err := store.Validate(chain, "api.example.com", future); err == nil {
		t.Fatal("expired chain accepted via cache")
	}
	// Mutating the store must invalidate cached results.
	empty := NewRootStore("empty")
	if err := empty.Validate(chain, "api.example.com", StudyEpoch); err == nil {
		t.Fatal("empty store validated chain")
	}
	empty.Add(root.Cert)
	if err := empty.Validate(chain, "api.example.com", StudyEpoch); err != nil {
		t.Fatalf("stale negative cache survived Add: %v", err)
	}
	if err := store.Validate(nil, "x", StudyEpoch); err != ErrEmptyChain {
		t.Fatalf("empty chain: %v", err)
	}
}

func TestRootStoreValidateConcurrent(t *testing.T) {
	chain, _, _, root := testChain(t, 31)
	store := NewRootStore("conc")
	store.Add(root.Cert)
	done := make(chan error, 16)
	for i := 0; i < 16; i++ {
		go func() {
			done <- store.Validate(chain, "api.example.com", StudyEpoch)
		}()
	}
	for i := 0; i < 16; i++ {
		if err := <-done; err != nil {
			t.Fatal(err)
		}
	}
}

// Clone carries the cached content digest (content-identical stores share
// a digest by Digest's own contract), and mutating the clone re-derives it
// rather than serving the stale value.
func TestCloneInheritsDigest(t *testing.T) {
	_, _, inter, root := testChain(t, 37)
	store := NewRootStore("orig")
	store.Add(root.Cert)
	d := store.Digest()

	cp := store.Clone("copy")
	if cp.Digest() != d {
		t.Fatal("clone of a digested store must share its digest")
	}

	// A clone taken before the original ever computed its digest still
	// answers correctly (it just computes lazily like the original).
	fresh := NewRootStore("fresh")
	fresh.Add(root.Cert)
	if fresh.Clone("fresh-copy").Digest() != d {
		t.Fatal("clone of an undigested store computed a different digest")
	}

	// Mutation invalidates: the mutated clone must not keep the inherited
	// digest, and the original must be unaffected.
	cp.Add(inter.Cert)
	if cp.Digest() == d {
		t.Fatal("mutated clone served the stale inherited digest")
	}
	if store.Digest() != d {
		t.Fatal("mutating a clone changed the original's digest")
	}
}

// FuzzParsePin: arbitrary strings must never panic, and anything accepted
// must round-trip canonically.
func FuzzParsePin(f *testing.F) {
	f.Add("sha256/r/mIkG3eEpVdm+u/ko/cwxzOMo1bk4TyHIlByibiA5E=")
	f.Add("sha1/2jmj7l5rSw0yVb/vlWAYkK/YBwk=")
	f.Add("sha256/abcdef")
	f.Fuzz(func(t *testing.T, s string) {
		p, err := ParsePin(s)
		if err != nil {
			return
		}
		back, err := ParsePin(p.String())
		if err != nil {
			t.Fatalf("canonical form %q unparseable: %v", p.String(), err)
		}
		if back.Key() != p.Key() {
			t.Fatal("round trip changed pin identity")
		}
	})
}
