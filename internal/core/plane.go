package core

// plane.go builds the study's shared immutable crypto plane: the one copy
// of every cryptographic object the workers previously rebuilt per-lab.
//
//   - one proxy CA (the same detrand derivation every worker's NewWithCA
//     used, so cold and shared runs forge identical leaf identities);
//   - one process-wide content-addressed forged-leaf chain store
//     (pki.ChainStore) that every worker's proxy interns into;
//   - one handshake-outcome memo (device.HandshakeMemo) replaying clean
//     runs' record sequences without re-dialing;
//   - one trust store per (platform, leg): workers share the stores' x509
//     validation caches instead of each warming a private clone.
//
// Sharing is sound because every worker derives the identical proxy CA and
// identical devices from the study seed: the plane only moves where the
// work happens, never what any device observes. Config.ColdCrypto disables
// the plane wholesale, which is both the equivalence test's control and an
// escape hatch for profiling the uncached pipeline.

import (
	"fmt"

	"pinscope/internal/appmodel"
	"pinscope/internal/detrand"
	"pinscope/internal/device"
	"pinscope/internal/pki"
	"pinscope/internal/worldgen"
)

// sharedForged is the process-wide forged-leaf store every plane adopts.
// Forged leaves are pure functions of (proxy CA key, hostname) — the proxy
// keys the store by CA SPKI — so chains issued for one study are byte-
// equivalent in every observable way for any later study with the same
// seed, and studies with different seeds simply miss. Like the pki
// signature memo it grows with the distinct material seen by the process;
// entries are a few KB each and immutable.
var sharedForged = pki.NewChainStore()

// planeStores is the per-platform trust-store set of the plane.
type planeStores struct {
	plainUser *pki.RootStore // app store, baseline leg
	mitmUser  *pki.RootStore // app store with the proxy CA installed
	system    *pki.RootStore // OS store; never trusts user CAs, shared by both legs
}

// cryptoPlane is the shared immutable crypto plane. All fields are built
// once in RunOnWorld and only read (or internally locked) afterwards.
type cryptoPlane struct {
	proxyCA *pki.Authority
	forged  *pki.ChainStore
	memo    *device.HandshakeMemo
	stores  map[appmodel.Platform]planeStores
}

// newCryptoPlane derives the plane for a study configuration; a ColdCrypto
// run has none (nil). The proxy CA reproduces exactly what each worker's
// mitmproxy.NewWithCA derived from the study seed, so adopting the plane
// changes no observable bytes.
func newCryptoPlane(cfg Config, w *worldgen.World) (*cryptoPlane, error) {
	if cfg.ColdCrypto {
		return nil, nil
	}
	proxyRng := detrand.New(cfg.Params.Seed).Child("study-proxy")
	ca, err := pki.NewRootCA(proxyRng.Child("mitm-ca"), "mitmproxy", "mitmproxy", 10)
	if err != nil {
		return nil, fmt.Errorf("core: crypto plane CA: %w", err)
	}
	p := &cryptoPlane{
		proxyCA: ca,
		forged:  sharedForged,
		memo:    device.NewHandshakeMemo(),
		stores:  map[appmodel.Platform]planeStores{},
	}
	base := cfg.baseStores(w)
	for _, plat := range appmodel.Platforms {
		ps := planeStores{
			plainUser: base[plat].Clone(string(plat) + "-user"),
			mitmUser:  base[plat].Clone(string(plat) + "-user"),
			system:    base[plat].Clone(string(plat) + "-system"),
		}
		ps.mitmUser.Add(ca.Cert)
		p.stores[plat] = ps
	}
	return p, nil
}

// forgeRng returns the per-proxy forging rng of the study seed — the same
// stream NewWithCA would hand a cold proxy.
func forgeRng(cfg Config) *detrand.Source {
	return detrand.New(cfg.Params.Seed).Child("study-proxy").Child("mitm-forge")
}
