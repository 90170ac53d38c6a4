// Package device models the study's test phones (a Pixel 3 on Android 11
// and a Checkra1n-jailbroken iPhone X on iOS 13.6) and the automation
// framework driving them (§4.2.1): install an app, run it for a capture
// window while recording its traffic, uninstall, repeat.
//
// The device executes an app's behaviour plan over the emulated network.
// Two trust stores exist, as on real phones: the store apps consult (where
// the mitmproxy CA gets installed for MITM experiments) and the store OS
// services consult, which never trusts user-added CAs — the root cause of
// the iOS associated-domains traffic looking pinned (§4.5).
package device

import (
	"fmt"

	"pinscope/internal/appmodel"
	"pinscope/internal/apppkg"
	"pinscope/internal/detrand"
	"pinscope/internal/faultinject"
	"pinscope/internal/frida"
	"pinscope/internal/netem"
	"pinscope/internal/pii"
	"pinscope/internal/pki"
	"pinscope/internal/tlswire"
)

// AppleBackgroundDomains are contacted by iOS itself throughout every test,
// regardless of the app under test (§4.5). The analysis pipeline excludes
// them by name, as the paper did.
var AppleBackgroundDomains = []string{"icloud.com", "apple.com", "mzstatic.com"}

// Device is one test phone.
type Device struct {
	Platform   appmodel.Platform
	Net        *netem.Network
	Jailbroken bool

	// Profile is the device identity whose PII may appear in traffic.
	Profile *pii.Profile

	userStore   *pki.RootStore // consulted by apps
	systemStore *pki.RootStore // consulted by OS services; no user CAs
	rng         *detrand.Source
	memo        *HandshakeMemo // nil = every connection runs live
}

// New creates a device whose app store trust anchors come from base.
func New(platform appmodel.Platform, net *netem.Network, base *pki.RootStore, rng *detrand.Source) *Device {
	jail := platform == appmodel.IOS // the study iPhone is jailbroken
	return &Device{
		Platform:    platform,
		Net:         net,
		Jailbroken:  jail,
		Profile:     pii.NewProfile(rng.Child("profile")),
		userStore:   base.Clone(string(platform) + "-user"),
		systemStore: base.Clone(string(platform) + "-system"),
		rng:         rng,
	}
}

// InstallCA adds a certificate to the store apps consult (the study phones
// were modified/configured to trust the mitmproxy CA). OS services remain
// unaffected.
func (d *Device) InstallCA(cert *pki.Authority) {
	d.userStore.Add(cert.Cert)
}

// UserStore exposes the app-visible trust store (read-only use).
func (d *Device) UserStore() *pki.RootStore { return d.userStore }

// UseStores replaces the device's private trust-store clones with shared,
// fully configured stores (the study's crypto plane builds one user store
// per platform/leg with any proxy CA already installed). Sharing pools the
// stores' validation caches across workers. Callers must not InstallCA on
// a device after adopting shared stores — configure the shared store once
// instead.
func (d *Device) UseStores(user, system *pki.RootStore) {
	d.userStore = user
	d.systemStore = system
}

// UseHandshakeMemo points the device at a shared handshake-outcome memo.
// Runs with hooks, device faults, or an installed network fault tap bypass
// it automatically (see memo.go for the contract).
func (d *Device) UseHandshakeMemo(m *HandshakeMemo) { d.memo = m }

// DumpPackage returns the decrypted package of an iOS app, as Flexdecrypt
// or Frida-iOS-Dump would, leaving the app's store package untouched (see
// apppkg.Package.Decrypted). Packages that are not encrypted come back as
// they are. It fails off-jailbreak, which is what limited the paper's iOS
// dataset size (Appendix A).
func (d *Device) DumpPackage(app *appmodel.App) (*apppkg.Package, error) {
	if app.Pkg == nil || !app.Pkg.Encrypted {
		return app.Pkg, nil
	}
	if !d.Jailbroken {
		return nil, fmt.Errorf("device: cannot decrypt %s without a jailbreak", app.ID)
	}
	return app.Pkg.Decrypted(), nil
}

// DecryptApp replaces the app's package with its decrypted dump
// (DumpPackage).
func (d *Device) DecryptApp(app *appmodel.App) error {
	pkg, err := d.DumpPackage(app)
	if err != nil {
		return err
	}
	app.Pkg = pkg
	return nil
}

// RunOptions parameterize one app run.
type RunOptions struct {
	// Window is the capture duration in seconds after launch (the paper
	// settled on 30 s after sweeping 15/30/60, §4.2.1).
	Window float64
	// LaunchDelay is the idle time between install and launch. The Common
	// re-run uses 120 s so iOS associated-domain verification finishes
	// before capture (§4.5).
	LaunchDelay float64
	// Hooks, when non-nil, is an attached instrumentation session that
	// disables validation for covered TLS libraries.
	Hooks *frida.Session
	// Faults, when non-nil, injects the device-layer faults of this run:
	// capture-window truncation and app crashes (faultinject package).
	Faults *faultinject.RunFaults
}

// DefaultWindow is the capture window, in seconds, of a run that sets
// none: the paper's 30 s.
const DefaultWindow = 30

func (o RunOptions) withDefaults() RunOptions {
	if o.Window == 0 {
		o.Window = DefaultWindow
	}
	return o
}

// osAssocWindow is how long after install the iOS associated-domains
// verification keeps generating traffic.
const osAssocWindow = 60.0

// truncTailSlack is how close (in seconds) to a capture cut a dial must be
// for its flow to lose its recorded tail rather than the whole flow.
const truncTailSlack = 4.0

// Run installs the app, launches it, captures traffic for the window, and
// uninstalls. The returned capture contains everything the monitoring point
// saw: app traffic inside the window plus any OS traffic overlapping it.
func (d *Device) Run(app *appmodel.App, opts RunOptions) *netem.Capture {
	cap, _ := d.Measure(app, opts)
	return cap
}

// Measure is Run with fault accounting: it additionally reports an error
// when an injected crash kills the app at launch, before any planned
// connection fired — the per-app failure the study runner retries. The
// capture is valid (OS traffic may be present) even when err is non-nil.
func (d *Device) Measure(app *appmodel.App, opts RunOptions) (*netem.Capture, error) {
	opts = opts.withDefaults()
	cap := netem.NewCapture()
	runRng := d.rng.Child("run/" + app.ID)

	// Device-layer faults: the monitoring point may stop early (capWindow)
	// and the app may die mid-run (crashAt).
	capWindow, truncated := opts.Faults.TruncatedWindow(opts.Window)
	crashAt, crashed := opts.Faults.CrashTime(opts.Window)

	// The handshake memo serves only clean, unhooked runs: injected faults
	// must hit real handshakes, and hooked runs feed the proxy's plaintext
	// logs, which a replayed flow would leave empty.
	memoOK := d.memo != nil && opts.Hooks == nil && opts.Faults == nil && !d.Net.HasFaultTap()
	var pending []pendingFill

	// OS background traffic first (it is concurrent in reality; ordering
	// within the capture does not matter to the analyses). It outlives the
	// app, so a crash does not silence it — but a capture cut does.
	if d.Platform == appmodel.IOS {
		osOpts := opts
		osOpts.Window = capWindow
		d.runIOSBackground(app, osOpts, cap, runRng.Child("os"), memoOK, &pending)
	}

	launched := false
	for i, pc := range app.Conns {
		if pc.At > opts.Window {
			continue // connection would occur after capture/uninstall
		}
		if crashed && pc.At > crashAt {
			continue // the app is dead; nothing later fires
		}
		connCap := cap
		var cf netem.ConnFaults
		if truncated {
			if pc.At > capWindow {
				// Monitoring already stopped; the app still talks (the
				// proxy still logs it) but the capture misses the flow.
				connCap = nil
			} else if capWindow-pc.At < truncTailSlack {
				// Dialed moments before the cut: the capture keeps the
				// handshake opening but loses the tail and the teardown.
				cf.CaptureTailAfter = 2
			}
		}
		d.runConn(app, pc, opts, connCap, cf, runRng.ChildN("conn", i), memoOK, &pending)
		launched = true
	}
	d.Net.WaitIdle()
	// The network is idle, so every pending flow holds its final record
	// sequence and close flags: snapshot them into the memo.
	for _, p := range pending {
		d.memo.fill(p.key, p.flow)
	}
	if crashed && !launched && firstConnAt(app, opts.Window) >= 0 {
		return cap, fmt.Errorf("device: app %s crashed %.1fs after launch, before any connection", app.ID, crashAt)
	}
	return cap, nil
}

// firstConnAt returns the dial time of the first planned connection inside
// the window, or -1 when the app plans none.
func firstConnAt(app *appmodel.App, window float64) float64 {
	first := -1.0
	for _, pc := range app.Conns {
		if pc.At > window {
			continue
		}
		if first < 0 || pc.At < first {
			first = pc.At
		}
	}
	return first
}

// runIOSBackground emits the OS-initiated traffic of §4.5: Apple service
// domains spanning the whole test, and associated-domain verification
// triggered by the install (which precedes launch by LaunchDelay).
func (d *Device) runIOSBackground(app *appmodel.App, opts RunOptions, cap *netem.Capture, rng *detrand.Source, memoOK bool, pending *[]pendingFill) {
	proxied := d.Net.HasInterceptor()
	osClient := func(host string, at float64) {
		payload := "GET /.well-known/apple-app-site-association HTTP/1.1\r\nhost: " + host + "\r\n\r\n"
		var key string
		if memoOK {
			key = memoKey(proxied, host, d.systemStore, nil, tlswire.FailAlertClose, 0, nil, len(payload))
			if e, ok := d.memo.load(key); ok {
				cap.AddReplayedFlow(host, at, e.records, e.clientClose, e.serverClose)
				return
			}
		}
		tr, err := d.Net.Dial(host, netem.DialOpts{At: at, Capture: cap})
		if err != nil {
			return
		}
		if key != "" {
			if f := cap.Last(); f != nil {
				*pending = append(*pending, pendingFill{key: key, flow: f})
			}
		}
		defer tr.Close(tlswire.CloseFIN)
		conn, err := tlswire.Client(tr, &tlswire.ClientConfig{
			ServerName: host,
			RootStore:  d.systemStore, // user CAs are NOT trusted here
			PinFailure: tlswire.FailAlertClose,
		})
		if err != nil {
			return
		}
		conn.Send([]byte(payload))
		conn.Recv()
		conn.Close()
	}

	// Apple service domains: present in every capture window.
	for i, host := range AppleBackgroundDomains {
		osClient(host, float64(2+4*i))
	}

	// Associated-domain verification happens within osAssocWindow of the
	// install. With a long enough LaunchDelay it completes before capture.
	if opts.LaunchDelay >= osAssocWindow {
		return
	}
	for _, host := range app.AssociatedDomains {
		at := rng.Float64() * osAssocWindow
		if at < opts.LaunchDelay { // finished before capture started
			continue
		}
		if at-opts.LaunchDelay > opts.Window { // after capture ended
			continue
		}
		osClient(host, at-opts.LaunchDelay)
	}
}

// runConn executes one planned connection.
func (d *Device) runConn(app *appmodel.App, pc appmodel.PlannedConn, opts RunOptions, cap *netem.Capture, cf netem.ConnFaults, rng *detrand.Source, memoOK bool, pending *[]pendingFill) {
	hooked := opts.Hooks.Covers(pc.Lib)
	store := d.userStore
	if pc.TrustAnchors != nil {
		store = pc.TrustAnchors
	}
	// The payload is built ahead of the dial: it consumes only this
	// connection's private rng stream, and its length is part of the memo
	// key (content never reaches the capture — summaries carry lengths).
	payloadLen := -1 // sentinel: connection established but never used
	var payload []byte
	if pc.Used {
		payload = pii.BuildPayload(rng, pc.Host, pc.Path, d.Profile, pc.PIIKinds)
		payloadLen = len(payload)
	}
	var key string
	if memoOK && cap != nil {
		key = memoKey(d.Net.HasInterceptor(), pc.Host, store, pc.Pins, pc.FailureMode, pc.MaxVersion, pc.Ciphers, payloadLen)
		if e, ok := d.memo.load(key); ok {
			cap.AddReplayedFlow(pc.Host, pc.At, e.records, e.clientClose, e.serverClose)
			return
		}
	}

	tr, err := d.Net.Dial(pc.Host, netem.DialOpts{At: pc.At, Capture: cap, Faults: cf})
	if err != nil {
		return
	}
	if key != "" {
		if f := cap.Last(); f != nil {
			*pending = append(*pending, pendingFill{key: key, flow: f})
		}
	}
	// App teardown closes whatever is still open; Close is idempotent.
	defer tr.Close(tlswire.CloseFIN)

	cfg := &tlswire.ClientConfig{
		ServerName:   pc.Host,
		MaxVersion:   pc.MaxVersion,
		CipherSuites: pc.Ciphers,
		RootStore:    store,
		Pins:         pc.Pins,
		PinFailure:   pc.FailureMode,
		SkipVerify:   hooked,
		SkipPinning:  hooked,
	}
	conn, err := tlswire.Client(tr, cfg)
	if err != nil {
		return // failure signature already on the wire
	}
	if !pc.Used {
		// Redundant connection: established, never used, closed by the
		// deferred teardown.
		return
	}
	if err := conn.Send(payload); err != nil {
		return
	}
	conn.Recv()
	conn.Close()
}

// ProbeChain fetches the certificate chain served at host, bypassing any
// interceptor — the study's equivalent of an `openssl s_client` probe used
// for the PKI classification of pinned destinations (§5.3.1).
func (d *Device) ProbeChain(host string) (pki.Chain, error) {
	tr, err := d.Net.DialDirect(host)
	if err != nil {
		return nil, err
	}
	defer tr.Close(tlswire.CloseFIN)
	conn, err := tlswire.Client(tr, &tlswire.ClientConfig{
		ServerName: host,
		SkipVerify: true,
	})
	if err != nil {
		return nil, err
	}
	defer conn.Close()
	return conn.PeerChain, nil
}
