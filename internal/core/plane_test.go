package core

import (
	"bytes"
	"testing"

	"pinscope/internal/appmodel"
	"pinscope/internal/detrand"
	"pinscope/internal/faultinject"
	"pinscope/internal/mitmproxy"
	"pinscope/internal/worldgen"
)

// The crypto plane is a pure performance layer: a warm (shared, memoized)
// run and a cold (per-lab, uncached) run of the same seed must export the
// exact same bytes. These tests are the contract that lets every cache in
// the plane exist.

func runExport(t *testing.T, cfg Config) []byte {
	t.Helper()
	s, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	return exportBytes(t, s)
}

func TestWarmColdExportsByteIdentical(t *testing.T) {
	for _, seed := range []int64{5, 61} {
		warm := microCfg(seed)
		cold := microCfg(seed)
		cold.ColdCrypto = true
		if !bytes.Equal(runExport(t, warm), runExport(t, cold)) {
			t.Fatalf("seed %d: warm export differs from cold export", seed)
		}
	}
}

func TestWarmColdExportsByteIdenticalParallel(t *testing.T) {
	// Workers share the plane's chain store, memo, and trust stores; the
	// export must still match a cold single-worker run byte for byte.
	warm := microCfg(17)
	warm.Workers = 4
	cold := microCfg(17)
	cold.ColdCrypto = true
	if !bytes.Equal(runExport(t, warm), runExport(t, cold)) {
		t.Fatal("parallel warm export differs from cold export")
	}
}

func TestWarmColdExportsByteIdenticalUnderFaults(t *testing.T) {
	// Faulted attempts bypass the memo and forge caches take the fault
	// path first, so a 10% fault rate must not open any warm/cold gap.
	mk := func(coldCrypto bool) Config {
		cfg := microCfg(23)
		cfg.Faults = faultinject.NewPlan(23, faultinject.Uniform(0.1))
		cfg.Retries = 2
		cfg.ColdCrypto = coldCrypto
		return cfg
	}
	if !bytes.Equal(runExport(t, mk(false)), runExport(t, mk(true))) {
		t.Fatal("warm export differs from cold export under a 10% fault plan")
	}
}

func TestPlaneMatchesColdProxyIdentity(t *testing.T) {
	// The plane's CA must be the same derivation a cold worker's proxy
	// makes from the study seed, or warm and cold runs would forge under
	// different issuers. Signature bytes vary per issuance (ECDSA), so the
	// comparison is the key material and name, not raw DER.
	cfg := microCfg(9)
	w, err := worldgen.Build(cfg.Params)
	if err != nil {
		t.Fatal(err)
	}
	plane, err := newCryptoPlane(cfg, w)
	if err != nil {
		t.Fatal(err)
	}
	coldProxy, err := mitmproxy.NewWithCA(detrand.New(cfg.Params.Seed).Child("study-proxy"))
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(plane.proxyCA.Cert.RawSubjectPublicKeyInfo, coldProxy.CACert().Cert.RawSubjectPublicKeyInfo) {
		t.Fatal("plane CA key differs from a cold proxy's CA key")
	}
	if plane.proxyCA.Cert.Subject.CommonName != coldProxy.CACert().Cert.Subject.CommonName {
		t.Fatal("plane CA name differs from a cold proxy's CA name")
	}
	for _, plat := range appmodel.Platforms {
		ps := plane.stores[plat]
		if ps.plainUser == nil || ps.mitmUser == nil || ps.system == nil {
			t.Fatalf("%s: plane stores incomplete", plat)
		}
		if ps.plainUser.Digest() == ps.mitmUser.Digest() {
			t.Fatalf("%s: MITM user store does not include the proxy CA", plat)
		}
		if ps.plainUser.Digest() != ps.system.Digest() {
			t.Fatalf("%s: system store content deviates from the base store", plat)
		}
	}
}

func TestPlaneCachesAreExercised(t *testing.T) {
	// A warm run must actually route through the plane: forged chains
	// interned, handshake outcomes replayed.
	cfg := microCfg(13)
	w, err := worldgen.Build(cfg.Params)
	if err != nil {
		t.Fatal(err)
	}
	plane, err := newCryptoPlane(cfg, w)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := runOnWorldWithPlane(cfg, w, plane, nil); err != nil {
		t.Fatal(err)
	}
	if plane.forged.Len() == 0 {
		t.Fatal("study run interned no forged chains")
	}
	if plane.memo.Len() == 0 {
		t.Fatal("study run memoized no handshake outcomes")
	}
	if plane.memo.Hits() == 0 {
		t.Fatal("study run never replayed a memoized handshake")
	}
}
