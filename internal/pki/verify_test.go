package pki

import (
	"bytes"
	"crypto/x509"
	"fmt"
	"testing"
	"time"

	"pinscope/internal/detrand"
)

// x509Verify is the reference implementation verifyChain replaced: the
// exact call Chain.Validate used to make.
func x509Verify(c Chain, store *RootStore, hostname string, at time.Time) error {
	if len(c) == 0 {
		return ErrEmptyChain
	}
	inters := x509.NewCertPool()
	for _, ic := range c[1:] {
		inters.AddCert(ic)
	}
	_, err := c[0].Verify(x509.VerifyOptions{
		DNSName:       hostname,
		Roots:         store.Pool(),
		Intermediates: inters,
		CurrentTime:   at,
	})
	return err
}

// agree fails the test unless the walker and x509.Verify reach the same
// valid/invalid verdict for the case.
func agree(t *testing.T, label string, c Chain, store *RootStore, hostname string, at time.Time) {
	t.Helper()
	got := verifyChain(c, store, hostname, at)
	want := x509Verify(c, store, hostname, at)
	if (got == nil) != (want == nil) {
		t.Fatalf("%s: walker says %v, x509.Verify says %v", label, got, want)
	}
}

func TestVerifyChainMatchesX509(t *testing.T) {
	rng := detrand.New(77)
	root, err := NewRootCA(rng.Child("root"), "Test Root", "TestOrg", 10)
	if err != nil {
		t.Fatal(err)
	}
	inter, err := root.NewIntermediate(rng.Child("inter"), "Test Intermediate", 5)
	if err != nil {
		t.Fatal(err)
	}
	otherRoot, err := NewRootCA(rng.Child("other"), "Other Root", "OtherOrg", 10)
	if err != nil {
		t.Fatal(err)
	}
	leaf, err := inter.IssueLeaf(rng.Child("leaf"), "api.example.com", LeafOptions{ExtraDNS: []string{"*.alt.example.com"}})
	if err != nil {
		t.Fatal(err)
	}
	direct, err := root.IssueLeaf(rng.Child("direct"), "direct.example.com", LeafOptions{})
	if err != nil {
		t.Fatal(err)
	}
	expired, err := inter.IssueLeaf(rng.Child("expired"), "old.example.com", LeafOptions{
		NotBefore: StudyEpoch.AddDate(-2, 0, 0), NotAfter: StudyEpoch.AddDate(-1, 0, 0),
	})
	if err != nil {
		t.Fatal(err)
	}
	selfSigned, err := NewSelfSigned(rng.Child("self"), "self.example.com", 27)
	if err != nil {
		t.Fatal(err)
	}

	store := NewRootStore("test")
	store.Add(root.Cert)
	withSelf := store.Clone("with-self")
	withSelf.Add(selfSigned.Cert)
	otherStore := NewRootStore("other")
	otherStore.Add(otherRoot.Cert)
	empty := NewRootStore("empty")

	future := StudyEpoch.AddDate(3, 0, 0)
	cases := []struct {
		label string
		chain Chain
		store *RootStore
		host  string
		at    time.Time
	}{
		{"full chain", Chain{leaf.Cert, inter.Cert}, store, "api.example.com", StudyEpoch},
		{"chain with root included", Chain{leaf.Cert, inter.Cert, root.Cert}, store, "api.example.com", StudyEpoch},
		{"wildcard SAN", Chain{leaf.Cert, inter.Cert}, store, "x.alt.example.com", StudyEpoch},
		{"direct-under-root leaf", Chain{direct.Cert}, store, "direct.example.com", StudyEpoch},
		{"hostname mismatch", Chain{leaf.Cert, inter.Cert}, store, "evil.example.org", StudyEpoch},
		{"missing intermediate", Chain{leaf.Cert}, store, "api.example.com", StudyEpoch},
		{"untrusting store", Chain{leaf.Cert, inter.Cert}, otherStore, "api.example.com", StudyEpoch},
		{"empty store", Chain{leaf.Cert, inter.Cert}, empty, "api.example.com", StudyEpoch},
		{"expired leaf", Chain{expired.Cert, inter.Cert}, store, "old.example.com", StudyEpoch},
		{"leaf after validity", Chain{leaf.Cert, inter.Cert}, store, "api.example.com", future},
		{"standalone self-signed", Chain{selfSigned.Cert}, store, "self.example.com", StudyEpoch},
		{"self-signed in store", Chain{selfSigned.Cert}, withSelf, "self.example.com", StudyEpoch},
		{"leaf as trust anchor", Chain{leaf.Cert, inter.Cert}, func() *RootStore {
			s := NewRootStore("leaf-anchored")
			s.Add(inter.Cert)
			return s
		}(), "api.example.com", StudyEpoch},
		{"out-of-order extras", Chain{leaf.Cert, otherRoot.Cert, inter.Cert}, store, "api.example.com", StudyEpoch},
		{"wrong leaf first", Chain{inter.Cert, leaf.Cert}, store, "api.example.com", StudyEpoch},
	}
	for _, tc := range cases {
		agree(t, tc.label, tc.chain, tc.store, tc.host, tc.at)
	}
}

func TestVerifyChainMatchesX509OverGeneratedPKI(t *testing.T) {
	// Sweep many generated (CA, host) shapes — including a forged-MITM
	// shape (leaf under a foreign CA) — and hold the walker to the
	// reference verdict under the trusting store, a non-trusting store,
	// and a wrong hostname.
	rng := detrand.New(99)
	mitmCA, err := NewRootCA(rng.Child("mitm"), "mitmproxy", "mitmproxy", 10)
	if err != nil {
		t.Fatal(err)
	}
	mitmStore := NewRootStore("mitm-trusting")
	mitmStore.Add(mitmCA.Cert)

	for i := 0; i < 12; i++ {
		caRng := rng.Child(fmt.Sprintf("ca/%d", i))
		root, err := NewRootCA(caRng.Child("root"), fmt.Sprintf("CA %d", i), "Org", 10)
		if err != nil {
			t.Fatal(err)
		}
		host := fmt.Sprintf("h%d.example.com", i)
		var issuer *Authority = root
		chainTail := Chain{}
		if i%2 == 1 {
			inter, err := root.NewIntermediate(caRng.Child("i"), fmt.Sprintf("Inter %d", i), 5)
			if err != nil {
				t.Fatal(err)
			}
			issuer, chainTail = inter, Chain{inter.Cert}
		}
		leaf, err := issuer.IssueLeaf(caRng.Child("leaf"), host, LeafOptions{})
		if err != nil {
			t.Fatal(err)
		}
		chain := append(Chain{leaf.Cert}, chainTail...)

		trusting := NewRootStore("trusting")
		trusting.Add(root.Cert)
		agree(t, host+"/trusting", chain, trusting, host, StudyEpoch)
		agree(t, host+"/mitm-store", chain, mitmStore, host, StudyEpoch)
		agree(t, host+"/wrong-host", chain, trusting, "nope.example.net", StudyEpoch)

		forged, err := mitmCA.IssueLeaf(caRng.Child("forge"), host, LeafOptions{})
		if err != nil {
			t.Fatal(err)
		}
		fchain := Chain{forged.Cert, mitmCA.Cert}
		agree(t, host+"/forged-trusted", fchain, mitmStore, host, StudyEpoch)
		agree(t, host+"/forged-untrusted", fchain, trusting, host, StudyEpoch)
	}
}

func TestSignatureMemoDetectsRogueIssuer(t *testing.T) {
	// The memo is content-addressed by certificate bytes, so a leaf signed
	// by a rogue CA that merely copies the genuine root's subject name
	// must miss the cache, run the real signature check against the
	// genuine key, and fail — even after the genuine leaf validated and
	// warmed the memo.
	rng := detrand.New(101)
	root, err := NewRootCA(rng.Child("root"), "Memo Root", "Org", 10)
	if err != nil {
		t.Fatal(err)
	}
	leaf, err := root.IssueLeaf(rng.Child("leaf"), "memo.example.com", LeafOptions{})
	if err != nil {
		t.Fatal(err)
	}
	store := NewRootStore("memo")
	store.Add(root.Cert)
	if err := (Chain{leaf.Cert}).Validate(store, "memo.example.com", StudyEpoch); err != nil {
		t.Fatalf("genuine chain rejected: %v", err)
	}

	rogue, err := NewRootCA(rng.Child("rogue"), "Memo Root", "Org", 10)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(rogue.Cert.RawSubject, root.Cert.RawSubject) {
		t.Fatal("rogue CA subject does not mirror the genuine root")
	}
	forged, err := rogue.IssueLeaf(rng.Child("forged"), "memo.example.com", LeafOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if err := (Chain{forged.Cert}).Validate(store, "memo.example.com", StudyEpoch); err == nil {
		t.Fatal("rogue-signed certificate validated against the genuine root")
	}
	agree(t, "rogue issuer", Chain{forged.Cert}, store, "memo.example.com", StudyEpoch)
}

// TestIssuanceSeedsSignatureMemo: every link this process signed is
// validated from the memo, with no ECDSA verify, in plain and
// MITM-trusting stores alike; a link it did not sign still runs the real
// check and fails.
func TestIssuanceSeedsSignatureMemo(t *testing.T) {
	rng := detrand.New(4242)
	root, err := NewRootCA(rng.Child("root"), "Seed Root", "SeedOrg", 10)
	if err != nil {
		t.Fatal(err)
	}
	inter, err := root.NewIntermediate(rng.Child("inter"), "Seed Issuing CA", 5)
	if err != nil {
		t.Fatal(err)
	}
	leaf, err := inter.IssueLeaf(rng.Child("leaf"), "seed.example.com", LeafOptions{})
	if err != nil {
		t.Fatal(err)
	}
	mitmCA, err := NewRootCA(rng.Child("mitm"), "Seed MITM CA", "mitmproxy", 10)
	if err != nil {
		t.Fatal(err)
	}
	forged, err := mitmCA.IssueLeaf(rng.Child("forge"), "seed.example.com", LeafOptions{})
	if err != nil {
		t.Fatal(err)
	}
	plain := NewRootStore("seed-plain")
	plain.Add(root.Cert)
	mitmStore := plain.Clone("seed-mitm")
	mitmStore.Add(mitmCA.Cert)

	before := sigVerifies.Load()
	for _, c := range []struct {
		label string
		chain Chain
		store *RootStore
		ok    bool
	}{
		{"ecosystem chain, plain store", Chain{leaf.Cert, inter.Cert}, plain, true},
		{"ecosystem chain, MITM store", Chain{leaf.Cert, inter.Cert, root.Cert}, mitmStore, true},
		{"forged chain, MITM store", Chain{forged.Cert, mitmCA.Cert}, mitmStore, true},
		{"forged chain, plain store", Chain{forged.Cert, mitmCA.Cert}, plain, false},
	} {
		if err := c.store.Validate(c.chain, "seed.example.com", StudyEpoch); (err == nil) != c.ok {
			t.Fatalf("%s: Validate = %v, want ok=%v", c.label, err, c.ok)
		}
		agree(t, c.label, c.chain, c.store, "seed.example.com", StudyEpoch)
	}
	if n := sigVerifies.Load() - before; n != 0 {
		t.Fatalf("validating chains this process issued ran %d signature verifications, want 0", n)
	}

	// A flipped signature byte makes a certificate with other bytes: it
	// misses the memo, is verified, and fails. Issuance is deterministic,
	// so an earlier run of this test in the process (-count) left the same
	// link in the memo; forget it first.
	der := append([]byte(nil), leaf.Cert.Raw...)
	der[len(der)-1] ^= 0x01
	tampered, err := x509.ParseCertificate(der)
	if err != nil {
		t.Fatal(err)
	}
	sigMemo.Delete(sigMemoKey(inter.Cert, tampered))
	before = sigVerifies.Load()
	if err := plain.Validate(Chain{tampered, inter.Cert}, "seed.example.com", StudyEpoch); err == nil {
		t.Fatal("leaf with a flipped signature byte validated")
	}
	if sigVerifies.Load() == before {
		t.Fatal("tampered leaf was not verified")
	}

	// A leaf signed by another CA of the same subject name, presented
	// under the genuine intermediate: the memo knows the leaf only under
	// its real signer, so this link is verified and fails.
	rogue, err := NewRootCA(rng.Child("rogue"), "Seed Rogue Root", "SeedOrg", 10)
	if err != nil {
		t.Fatal(err)
	}
	rogueInter, err := rogue.NewIntermediate(rng.Child("rogue-inter"), "Seed Issuing CA", 5)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(rogueInter.Cert.RawSubject, inter.Cert.RawSubject) {
		t.Fatal("rogue intermediate subject does not mirror the genuine one")
	}
	rogueLeaf, err := rogueInter.IssueLeaf(rng.Child("rogue-leaf"), "seed.example.com", LeafOptions{})
	if err != nil {
		t.Fatal(err)
	}
	sigMemo.Delete(sigMemoKey(inter.Cert, rogueLeaf.Cert))
	before = sigVerifies.Load()
	if err := plain.Validate(Chain{rogueLeaf.Cert, inter.Cert}, "seed.example.com", StudyEpoch); err == nil {
		t.Fatal("leaf of a same-name rogue CA validated under the genuine intermediate")
	}
	if sigVerifies.Load() == before {
		t.Fatal("rogue leaf was not verified")
	}
}

// TestRootStoreValidateKeysWholeChain: the validation cache tells chains
// apart by every certificate, not only the leaf, so a leaf that validated
// with its issuer does not validate when sent with another CA's
// certificate in its place.
func TestRootStoreValidateKeysWholeChain(t *testing.T) {
	rng := detrand.New(4343)
	root, err := NewRootCA(rng.Child("root"), "Key Root", "KeyOrg", 10)
	if err != nil {
		t.Fatal(err)
	}
	inter, err := root.NewIntermediate(rng.Child("inter"), "Key Issuing CA", 5)
	if err != nil {
		t.Fatal(err)
	}
	other, err := root.NewIntermediate(rng.Child("other"), "Key Other CA", 5)
	if err != nil {
		t.Fatal(err)
	}
	leaf, err := inter.IssueLeaf(rng.Child("leaf"), "key.example.com", LeafOptions{})
	if err != nil {
		t.Fatal(err)
	}
	store := NewRootStore("key")
	store.Add(root.Cert)
	if err := store.Validate(Chain{leaf.Cert, inter.Cert}, "key.example.com", StudyEpoch); err != nil {
		t.Fatalf("genuine chain rejected: %v", err)
	}
	if err := store.Validate(Chain{leaf.Cert, other.Cert}, "key.example.com", StudyEpoch); err == nil {
		t.Fatal("leaf validated without its issuer: the cache answered for another chain")
	}
	agree(t, "leaf without its issuer", Chain{leaf.Cert, other.Cert}, store, "key.example.com", StudyEpoch)
}
