// Package core orchestrates the full study: it generates the world, runs
// static analysis over every app package, drives the dynamic differential
// experiments on emulated devices (baseline run, MITM run, and the iOS
// Common re-run of §4.5), circumvents pinning with instrumentation hooks
// for the PII analysis, and probes pinned destinations for the certificate
// analyses. The aggregate tables and figures are computed on top of the
// per-app results by the report layer.
package core

import (
	"context"
	"errors"
	"fmt"
	"runtime"
	"sync"

	"pinscope/internal/appmodel"
	"pinscope/internal/apppkg"
	"pinscope/internal/appstore"
	"pinscope/internal/detrand"
	"pinscope/internal/device"
	"pinscope/internal/dynamicanalysis"
	"pinscope/internal/faultinject"
	"pinscope/internal/frida"
	"pinscope/internal/mitmproxy"
	"pinscope/internal/netem"
	"pinscope/internal/pii"
	"pinscope/internal/pki"
	"pinscope/internal/staticanalysis"
	"pinscope/internal/worldgen"
)

// Config parameterizes a study run.
type Config struct {
	Params worldgen.Params
	// Window is the per-app capture window in seconds (0: the device
	// default, the paper's 30).
	Window float64
	// Workers caps parallel app processing; 0 means GOMAXPROCS.
	Workers int
	// Faults, when non-nil and enabled, injects deterministic operational
	// faults into every layer of the pipeline. A nil plan (or all-zero
	// rates) leaves the study byte-identical to a fault-free build.
	Faults *faultinject.Plan
	// Retries bounds extra measurement attempts per app when an attempt
	// hard-fails or comes back below full confidence. Only consulted while
	// faults are enabled: clean runs are deterministic, so retrying them
	// cannot change the outcome.
	Retries int
	// ColdCrypto disables the shared crypto plane (interned forged chains,
	// handshake memo, shared trust stores), forcing every worker to rebuild
	// and re-handshake everything — the pre-plane behavior. Results are
	// byte-identical either way (the equivalence test holds the study to
	// that); the switch exists as the test's control and for profiling the
	// uncached pipeline.
	ColdCrypto bool
	// Release names the root-program timeline point this run measures "as
	// of" (see internal/rootprogram); empty means the static snapshot
	// world. It is stamped into journal headers and export metadata so a
	// resume cannot mix timeline points and a served snapshot knows its
	// lineage.
	Release string
	// Stores, when non-nil, replaces the per-platform device trust stores
	// with the materialized stores of the timeline point named by Release.
	// Nil falls back to the ecosystem's static OEM/iOS stores. Stores is
	// derived (Release + seed regenerate it), so it never appears in
	// journal metadata itself. RunLongitudinal sets both together.
	Stores map[appmodel.Platform]*pki.RootStore
}

// captureWindow is the capture window the run measures with: Window, or
// the device default when it is unset. Journal headers and export
// metadata record this value, so Window 0 and the default name one run.
func (cfg Config) captureWindow() float64 {
	if cfg.Window == 0 {
		return device.DefaultWindow
	}
	return cfg.Window
}

// baseStores returns the per-platform trust stores this run measures
// against: the configured timeline-point stores, or the ecosystem's
// static stores when no timeline point is set.
func (cfg Config) baseStores(w *worldgen.World) map[appmodel.Platform]*pki.RootStore {
	if cfg.Stores != nil {
		return cfg.Stores
	}
	return map[appmodel.Platform]*pki.RootStore{
		appmodel.Android: w.Eco.OEM, // Pixel 3 factory image, OEM store
		appmodel.IOS:     w.Eco.IOS,
	}
}

// TestConfig is a miniature configuration for tests and examples: the
// world pinscope.MiniConfig(seed) studies.
func TestConfig(seed int64) Config {
	return Config{Params: worldgen.TestParams(seed), Window: 30}
}

// AppResult is everything the study learned about one app.
type AppResult struct {
	App *appmodel.App

	// Static pipeline output (§4.1). StaticErr records decryption or
	// packaging obstacles.
	Static    *staticanalysis.Report
	StaticErr error

	// Dyn is the differential dynamic verdict (§4.2).
	Dyn *dynamicanalysis.Result

	// Weak-cipher observations from the baseline capture (Table 8).
	WeakAnyConn    bool
	WeakPinnedConn bool

	// CircumventedDests maps each pinned destination to whether the
	// instrumentation hooks exposed its plaintext (§4.3).
	CircumventedDests map[string]bool

	// DestPII is the PII observed per destination in the hooked MITM run
	// (§4.4); only populated for pinning apps.
	DestPII map[string]map[pii.Kind]bool
	// ObservedDests are the destinations whose plaintext was observable in
	// the hooked run (Table 9's denominators).
	ObservedDests map[string]bool

	// Robustness accounting, filled in by the resilient runner.

	// Confidence grades how much of the pipeline informed this result.
	Confidence Confidence
	// Attempts is how many measurement attempts this app consumed (>= 1).
	Attempts int
	// FromAttempt is the 0-based attempt whose result was kept.
	FromAttempt int
	// Quarantined marks an app every attempt of which failed to produce
	// analysis-grade data; the study records it instead of aborting.
	Quarantined bool
	// Err joins the per-attempt failures of a degraded or quarantined app.
	Err error
	// DynRun records, for iOS Common apps, which §4.5 run produced the kept
	// dynamic verdicts: "initial" or "delayed-rerun".
	DynRun string
}

// Pinned is a convenience accessor.
func (r *AppResult) Pinned() bool { return r.Dyn != nil && r.Dyn.Pins() }

// Confidence grades an AppResult by which pipeline halves produced valid
// data — the study's graceful-degradation signal. Ordering matters: higher
// is better, and the dynamic differential (the paper's core contribution)
// outranks static extraction when only one survived.
type Confidence int

const (
	// ConfidenceNone: neither pipeline produced analysis-grade data.
	ConfidenceNone Confidence = iota
	// ConfidenceStaticOnly: the dynamic differential never completed; only
	// static extraction stands.
	ConfidenceStaticOnly
	// ConfidenceDynamicOnly: static extraction failed (e.g. decryption);
	// dynamic verdicts stand.
	ConfidenceDynamicOnly
	// ConfidenceFull: both pipelines completed.
	ConfidenceFull
)

func (c Confidence) String() string {
	switch c {
	case ConfidenceFull:
		return "full"
	case ConfidenceDynamicOnly:
		return "dynamic-only"
	case ConfidenceStaticOnly:
		return "static-only"
	}
	return "none"
}

func confidenceFor(staticOK, dynOK bool) Confidence {
	switch {
	case staticOK && dynOK:
		return ConfidenceFull
	case dynOK:
		return ConfidenceDynamicOnly
	case staticOK:
		return ConfidenceStaticOnly
	}
	return ConfidenceNone
}

// DestProbe is the infrastructure classification of one pinned destination
// (Table 6).
type DestProbe struct {
	Dest        string
	Chain       pki.Chain
	DefaultPKI  bool
	SelfSigned  bool
	CustomPKI   bool
	Unavailable bool
}

// PairResult is a common app's cross-platform comparison.
type PairResult struct {
	Name     string
	Android  *AppResult
	IOS      *AppResult
	Analysis *dynamicanalysis.PairAnalysis
}

// Study is a completed run.
type Study struct {
	Cfg   Config
	World *worldgen.World

	mu      sync.Mutex
	results map[string]*AppResult

	Pairs  []*PairResult
	Probes map[string]*DestProbe

	// Resumed counts results replayed from a journal instead of measured
	// in this process (0 for fresh runs).
	Resumed int
}

// Result returns the result for an app (nil if the app was not studied).
func (s *Study) Result(a *appmodel.App) *AppResult {
	return s.results[string(a.Platform)+"/"+a.ID]
}

// ResultForListing resolves a dataset listing to its result.
func (s *Study) ResultForListing(l *appstore.Listing) *AppResult {
	return s.results[string(l.Platform)+"/"+l.ID]
}

// DatasetResults returns the results of a dataset in listing order.
func (s *Study) DatasetResults(ds *appstore.Dataset) []*AppResult {
	out := make([]*AppResult, 0, len(ds.Listings))
	for _, l := range ds.Listings {
		if r := s.ResultForListing(l); r != nil {
			out = append(out, r)
		}
	}
	return out
}

// RobustnessStats aggregates the resilient runner's accounting across a
// completed study.
type RobustnessStats struct {
	// Apps studied; Attempts is the total measurement attempts consumed.
	Apps     int
	Attempts int
	// Retried counts apps that needed more than one attempt; Quarantined
	// counts apps recorded as failures after exhausting their budget.
	Retried     int
	Quarantined int
	// Per-confidence app counts.
	Full        int
	DynamicOnly int
	StaticOnly  int
	None        int
	// DelayedRerunKept counts iOS Common apps whose §4.5 delayed re-run won
	// the verdict arbitration (at zero fault rate: all of them).
	DelayedRerunKept int
}

// Robustness tallies retry/quarantine/degradation accounting. Call after
// the run completes.
func (s *Study) Robustness() RobustnessStats {
	var st RobustnessStats
	for _, r := range s.results {
		st.Apps++
		st.Attempts += r.Attempts
		if r.Attempts > 1 {
			st.Retried++
		}
		if r.Quarantined {
			st.Quarantined++
		}
		switch r.Confidence {
		case ConfidenceFull:
			st.Full++
		case ConfidenceDynamicOnly:
			st.DynamicOnly++
		case ConfidenceStaticOnly:
			st.StaticOnly++
		default:
			st.None++
		}
		if r.DynRun == "delayed-rerun" {
			st.DelayedRerunKept++
		}
	}
	return st
}

// workItem is one unique app to measure; common marks members of the
// Common datasets (which get the iOS §4.5 re-run).
type workItem struct {
	app    *appmodel.App
	common bool
}

func (it workItem) key() string { return string(it.app.Platform) + "/" + it.app.ID }

// studyWork returns the deduped unique-app work list in dataset order
// (Common, Popular, Random; Android before iOS). Collisions are analyzed
// once, common pairs are marked for the iOS §4.5 re-run. Per-app results
// are pure functions of (seed, app), so this list — not worker
// scheduling — is the canonical identity of a run's work; the sharded
// runner re-sorts it by key to get the export order.
func studyWork(w *worldgen.World) []workItem {
	var work []workItem
	seen := map[string]bool{}
	add := func(ds *appstore.Dataset, common bool) {
		for _, l := range ds.Listings {
			key := string(l.Platform) + "/" + l.ID
			if seen[key] {
				continue
			}
			seen[key] = true
			work = append(work, workItem{app: w.App(l), common: common})
		}
	}
	add(w.DS.CommonAndroid, true)
	add(w.DS.CommonIOS, true)
	add(w.DS.PopularAndroid, false)
	add(w.DS.PopularIOS, false)
	add(w.DS.RandomAndroid, false)
	add(w.DS.RandomIOS, false)
	return work
}

// Run executes the complete study.
func Run(cfg Config) (*Study, error) {
	w, err := worldgen.Build(cfg.Params)
	if err != nil {
		return nil, err
	}
	return RunOnWorld(cfg, w)
}

// RunOnWorld executes the study against an existing world (lets callers
// reuse one world across experiments).
func RunOnWorld(cfg Config, w *worldgen.World) (*Study, error) {
	// The shared crypto plane: built once, read by every worker's lab.
	plane, err := newCryptoPlane(cfg, w)
	if err != nil {
		return nil, err
	}
	return runOnWorldWithPlane(cfg, w, plane, nil)
}

// runOnWorldWithPlane runs the study over plane (nil: cold crypto),
// streaming results into j and replaying the ones it holds (nil: no
// journal).
func runOnWorldWithPlane(cfg Config, w *worldgen.World, plane *cryptoPlane, j *studyJournal) (*Study, error) {
	s := &Study{Cfg: cfg, World: w, results: make(map[string]*AppResult)}

	// Apps already in the journal are replayed here instead of scheduled —
	// per-app results are pure functions of (seed, app), so a replayed
	// result is identical to a re-measured one.
	var work []workItem
	var replayErr error
	for _, item := range studyWork(w) {
		key := item.key()
		if data, ok := j.replayed(key); ok {
			res, err := decodeAppResult(data, item.app)
			if err != nil {
				replayErr = errors.Join(replayErr, err)
				continue
			}
			s.results[key] = res
			s.Resumed++
			continue
		}
		work = append(work, item)
	}
	if replayErr != nil {
		return nil, replayErr
	}

	workers := cfg.Workers
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	if workers > len(work) {
		workers = len(work)
	}

	// Per-app failures never reach this level anymore — the resilient
	// runner retries and quarantines them. A worker only fails fatally when
	// its bench cannot be built; the shared context then cancels the feeder
	// and the remaining workers promptly instead of letting them grind
	// through a doomed queue, and every fatal error is reported (joined),
	// not just the first one drained.
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	var (
		failMu sync.Mutex
		fatal  []error
	)
	fail := func(err error) {
		failMu.Lock()
		fatal = append(fatal, err)
		failMu.Unlock()
		cancel()
	}
	jobs := make(chan workItem)
	var wg sync.WaitGroup
	for i := 0; i < workers; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			lab, err := newLab(cfg, w, plane)
			if err != nil {
				fail(fmt.Errorf("core: worker bench setup: %w", err))
				return
			}
			for {
				select {
				case <-ctx.Done():
					return
				case item, ok := <-jobs:
					if !ok {
						return
					}
					key := item.key()
					res := lab.studyAppResilient(item.app, item.common)
					// Journal before recording: a result the study saw but
					// the journal did not would be re-measured identically
					// on resume, but the reverse (journaled, then the
					// process dies before the map insert) must also be
					// harmless — and it is, because a killed run discards
					// the in-memory study entirely.
					if err := j.append(key, res); err != nil {
						fail(err)
						return
					}
					s.mu.Lock()
					s.results[key] = res
					s.mu.Unlock()
				}
			}
		}()
	}
feed:
	for _, item := range work {
		select {
		case jobs <- item:
		case <-ctx.Done():
			break feed
		}
	}
	close(jobs)
	wg.Wait()
	failMu.Lock()
	err := errors.Join(fatal...)
	failMu.Unlock()
	if err != nil {
		return nil, err
	}

	s.buildPairs()
	if err := s.probePinnedDests(); err != nil {
		return nil, err
	}
	return s, nil
}

// lab is one worker's private measurement bench: its own networks, proxy
// and devices (the real study serialized everything through two phones;
// the per-app experiments are independent, so they parallelize cleanly).
type lab struct {
	cfg   Config
	world *worldgen.World

	proxy *mitmproxy.Proxy
	// Devices per platform: a clean one for baseline runs and one with the
	// proxy CA installed on an intercepted network.
	plain map[appmodel.Platform]*device.Device
	mitm  map[appmodel.Platform]*device.Device
	hooks map[appmodel.Platform]*frida.Session
}

func newLab(cfg Config, w *worldgen.World, plane *cryptoPlane) (*lab, error) {
	l := &lab{
		cfg: cfg, world: w,
		plain: map[appmodel.Platform]*device.Device{},
		mitm:  map[appmodel.Platform]*device.Device{},
		hooks: map[appmodel.Platform]*frida.Session{},
	}
	if plane != nil {
		// The plane already derived the CA from the same seed stream; the
		// proxy keeps its private forging rng but interns results into the
		// shared chain store.
		proxy := mitmproxy.New(plane.proxyCA, forgeRng(cfg))
		proxy.UseChainStore(plane.forged)
		l.proxy = proxy
	} else {
		proxy, err := mitmproxy.NewWithCA(detrand.New(cfg.Params.Seed).Child("study-proxy"))
		if err != nil {
			return nil, err
		}
		l.proxy = proxy
	}

	baseStores := cfg.baseStores(w)
	for _, plat := range appmodel.Platforms {
		// Device randomness is platform-keyed, not worker-keyed, so every
		// worker sees the identical device (profile and payload stream).
		devRng := func() *detrand.Source {
			return detrand.New(cfg.Params.Seed).Child("device/" + string(plat))
		}
		netPlain := w.NewNetwork(true)
		dp := device.New(plat, netPlain, baseStores[plat], devRng())
		l.plain[plat] = dp

		netMITM := w.NewNetwork(true)
		netMITM.SetInterceptor(l.proxy)
		dm := device.New(plat, netMITM, baseStores[plat], devRng())
		l.mitm[plat] = dm

		if plane != nil {
			ps := plane.stores[plat]
			dp.UseStores(ps.plainUser, ps.system)
			dm.UseStores(ps.mitmUser, ps.system)
			dp.UseHandshakeMemo(plane.memo)
			dm.UseHandshakeMemo(plane.memo)
		} else {
			dm.InstallCA(l.proxy.CACert())
		}

		hooks, err := frida.Attach(plat, true)
		if err != nil {
			return nil, err
		}
		l.hooks[plat] = hooks
	}
	return l, nil
}

// studyAppResilient wraps studyApp in the robustness layer: bounded retry
// with per-attempt fault scopes, keep-the-best-confidence arbitration, and
// quarantine — an app whose every attempt failed becomes a recorded failure
// instead of killing the study.
func (l *lab) studyAppResilient(app *appmodel.App, common bool) *AppResult {
	key := string(app.Platform) + "/" + app.ID
	maxAttempts := 1 + l.cfg.Retries
	if maxAttempts < 1 {
		maxAttempts = 1
	}
	var best *AppResult
	var failures []error
	var valids []*dynamicanalysis.Result // per-attempt valid differentials
	var dump *apppkg.Package             // the decrypted package, once an attempt obtained it
	attempts := 0
	for a := 0; a < maxAttempts; a++ {
		attempts++
		res, err := l.studyApp(app, common, l.cfg.Faults.ForApp(key, a), &dump)
		if err != nil {
			failures = append(failures, fmt.Errorf("attempt %d: %w", a+1, err))
		} else if res.Dyn != nil {
			valids = append(valids, res.Dyn)
		}
		if best == nil || res.Confidence > best.Confidence {
			res.FromAttempt = a
			best = res
		}
		if !l.cfg.Faults.Enabled() {
			break // clean runs are deterministic; a retry changes nothing
		}
		// Under faults a single differential is never trusted outright:
		// transient faults can hide pins and, more rarely, fabricate them.
		// Stop only once a full-confidence result has a second independent
		// differential to cross-examine against.
		if best.Confidence == ConfidenceFull && len(valids) >= 2 {
			break
		}
	}
	// Cross-attempt verdict arbitration, exploiting that fault scopes are
	// re-rolled per attempt. Two signals with opposite strengths:
	//
	//   - Refutation is decisive: a destination a truly pinning app contacts
	//     can never carry data under MITM, so ANY attempt observing it used
	//     under interception disproves a pin another attempt fabricated.
	//   - A single unrefuted sighting is suspicious but not conclusive — a
	//     transient fault can fabricate one — so a pin must be sighted by
	//     two independent differentials to stand. Contested pins (sighted
	//     once, unrefuted) earn extra tie-break attempts while the retry
	//     budget lasts.
	if l.cfg.Faults.Enabled() && len(valids) >= 2 && best.Dyn != nil {
		type tally struct {
			pins    map[string]int
			refuted map[string]bool
			seenAs  map[string]*dynamicanalysis.DestVerdict
		}
		count := func() tally {
			tl := tally{map[string]int{}, map[string]bool{}, map[string]*dynamicanalysis.DestVerdict{}}
			for _, r := range valids {
				for d, v := range r.Verdicts {
					if v.UsedMITM {
						tl.refuted[d] = true
					}
					if v.Pinned {
						tl.pins[d]++
						tl.seenAs[d] = v
					}
				}
			}
			return tl
		}
		tl := count()
		contested := func() bool {
			for d, n := range tl.pins {
				if n == 1 && !tl.refuted[d] {
					return true
				}
			}
			return false
		}
		for a := attempts; a < maxAttempts && contested(); a++ {
			attempts++
			res, err := l.studyApp(app, common, l.cfg.Faults.ForApp(key, a), &dump)
			if err != nil {
				failures = append(failures, fmt.Errorf("attempt %d: %w", a+1, err))
			} else if res.Dyn != nil {
				valids = append(valids, res.Dyn)
			}
			if res.Confidence > best.Confidence {
				res.FromAttempt = a
				best = res
			}
			tl = count()
		}
		for d, v := range best.Dyn.Verdicts {
			if v.Pinned && (tl.pins[d] < 2 || tl.refuted[d]) {
				v.Pinned = false
				delete(best.CircumventedDests, d)
			}
		}
		for d, n := range tl.pins {
			if n < 2 || tl.refuted[d] {
				continue
			}
			if bv := best.Dyn.Verdicts[d]; bv != nil {
				bv.Pinned = true
			} else {
				cp := *tl.seenAs[d]
				best.Dyn.Verdicts[d] = &cp
			}
		}
	}
	best.Attempts = attempts
	if len(failures) > 0 {
		best.Err = errors.Join(failures...)
	}
	if best.Confidence == ConfidenceNone {
		best.Quarantined = true
	}
	if best.Dyn == nil {
		// Keep downstream aggregation nil-safe: a quarantined app carries an
		// empty-but-valid dynamic result (contacted nothing, pinned nothing).
		best.Dyn = &dynamicanalysis.Result{
			AppID:    app.ID,
			Verdicts: map[string]*dynamicanalysis.DestVerdict{},
		}
	}
	return best
}

// studyApp runs the full per-app pipeline for one measurement attempt. The
// returned error marks a hard failure of the dynamic differential (an
// injected crash killed a leg before any connection); res is still valid,
// carrying whatever the attempt salvaged. *dump carries the decrypted
// package across the app's attempts: once one attempt has it, later
// attempts reuse it and skip the decryption fault.
func (l *lab) studyApp(app *appmodel.App, common bool, af *faultinject.AppFaults, dump **apppkg.Package) (res *AppResult, err error) {
	res = &AppResult{App: app}
	plat := app.Platform

	// Record-buffer recycling: once this attempt's result is assembled, the
	// captures' record slices go back to the netem pool. Release is nil-safe
	// and idempotent, so the capA = capA2 alias below is harmless.
	var spent []*netem.Capture
	defer func() {
		for _, c := range spent {
			c.Release()
		}
	}()

	// Attempt-scoped fault taps. All of these are no-ops for a nil af: the
	// taps install as nil, which netem and mitmproxy treat as absent.
	setTaps := func(baseLeg, mitmLeg string) {
		l.plain[plat].Net.SetFaultTap(af.NetTap(baseLeg))
		l.mitm[plat].Net.SetFaultTap(af.NetTap(mitmLeg))
	}
	setTaps("baseline", "mitm")
	l.proxy.SetForgeFaults(af.ForgeTap())
	defer func() {
		l.plain[plat].Net.SetFaultTap(nil)
		l.mitm[plat].Net.SetFaultTap(nil)
		l.proxy.SetForgeFaults(nil)
	}()

	// --- static (§4.1): dump iOS packages on the jailbroken device. The
	// dump is a private copy: the world's store package stays encrypted, so
	// an app measures the same however many times, and by however many
	// labs, it is measured — what lets sharded fleets and chaos drills
	// share one world.
	if *dump == nil && app.Pkg != nil && app.Pkg.Encrypted && af.DecryptFails() {
		res.StaticErr = faultinject.ErrTransient("decryption", app.ID)
	} else if *dump == nil {
		*dump, res.StaticErr = l.mitm[plat].DumpPackage(app)
	}
	if res.StaticErr == nil {
		rep, err := staticanalysis.AnalyzePackage(app, *dump)
		if err != nil {
			res.StaticErr = err
		} else {
			res.Static = rep
		}
	}
	staticOK := res.StaticErr == nil && res.Static != nil

	// --- dynamic (§4.2): baseline + MITM runs.
	opts := device.RunOptions{Window: l.cfg.Window, Faults: af.Run("baseline")}
	capA, errA := l.plain[plat].Measure(app, opts)
	optsB := device.RunOptions{Window: l.cfg.Window, Faults: af.Run("mitm")}
	capB, errB := l.mitm[plat].Measure(app, optsB)
	spent = append(spent, capA, capB)
	if errA != nil || errB != nil {
		// One leg lost the app before it spoke: the differential is invalid
		// (a dead baseline hides pinners; a dead MITM leg hides rejections).
		// Hard-fail the attempt so the resilient runner retries it.
		res.Confidence = confidenceFor(staticOK, false)
		return res, errors.Join(errA, errB)
	}

	detOpts := dynamicanalysis.Options{}
	if plat == appmodel.IOS {
		detOpts.ExcludeDomains = append(detOpts.ExcludeDomains, device.AppleBackgroundDomains...)
		if res.Static != nil {
			detOpts.ExcludeDomains = append(detOpts.ExcludeDomains, res.Static.AssociatedDomains...)
		}
	}
	res.Dyn = dynamicanalysis.Detect(app.ID, capA, capB, detOpts)
	res.Confidence = confidenceFor(staticOK, true)

	// --- iOS Common re-run (§4.5): pinning verdicts from a delayed launch
	// that lets associated-domain verification finish before capture, so
	// the associated-domain exclusion (and the false negatives it causes)
	// is no longer needed.
	if common && plat == appmodel.IOS {
		res.DynRun = "initial"
		setTaps("rerun-baseline", "rerun-mitm")
		rOpts := device.RunOptions{Window: l.cfg.Window, LaunchDelay: 120, Faults: af.Run("rerun-baseline")}
		capA2, errA2 := l.plain[plat].Measure(app, rOpts)
		rOptsB := device.RunOptions{Window: l.cfg.Window, LaunchDelay: 120, Faults: af.Run("rerun-mitm")}
		capB2, errB2 := l.mitm[plat].Measure(app, rOptsB)
		spent = append(spent, capA2, capB2)
		if errA2 == nil && errB2 == nil {
			rerunOpts := dynamicanalysis.Options{ExcludeDomains: device.AppleBackgroundDomains}
			rerun := dynamicanalysis.Detect(app.ID, capA2, capB2, rerunOpts)
			// Keep whichever run rests on more conclusive evidence. Ties go
			// to the re-run: with both runs clean it sees every destination
			// the initial run saw, minus the associated-domain exclusion
			// that §4.5 exists to remove.
			if rerun.Quality() >= res.Dyn.Quality() {
				res.Dyn = rerun
				res.DynRun = "delayed-rerun"
				capA = capA2 // weak-cipher observations follow the verdicts
			}
		}
	}

	// --- weak-cipher observations from the baseline capture (Table 8).
	pinnedSet := map[string]bool{}
	for _, d := range res.Dyn.PinnedDests() {
		pinnedSet[d] = true
	}
	for dest, sum := range dynamicanalysis.SummarizeCapture(capA) {
		if sum.WeakCipherOffered {
			res.WeakAnyConn = true
			if pinnedSet[dest] {
				res.WeakPinnedConn = true
			}
		}
	}

	// --- circumvention + PII (§4.3, §4.4): hooked MITM run for pinners.
	if res.Dyn.Pins() {
		l.mitm[plat].Net.SetFaultTap(af.NetTap("hooked"))
		l.proxy.ResetLogs()
		l.mitm[plat].Run(app, device.RunOptions{Window: l.cfg.Window, Hooks: l.hooks[plat], Faults: af.Run("hooked")})
		res.CircumventedDests = map[string]bool{}
		res.DestPII = map[string]map[pii.Kind]bool{}
		res.ObservedDests = map[string]bool{}
		scanner := pii.NewScanner(l.mitm[plat].Profile)
		for _, lg := range l.proxy.Logs() {
			if pinnedSet[lg.Dest()] {
				if lg.ClientOK {
					res.CircumventedDests[lg.Dest()] = true
				} else if _, ok := res.CircumventedDests[lg.Dest()]; !ok {
					res.CircumventedDests[lg.Dest()] = false
				}
			}
			if len(lg.Payloads) == 0 {
				continue
			}
			res.ObservedDests[lg.Dest()] = true
			found := scanner.ScanAll(lg.Payloads)
			if len(found) == 0 {
				continue
			}
			m := res.DestPII[lg.Dest()]
			if m == nil {
				m = map[pii.Kind]bool{}
				res.DestPII[lg.Dest()] = m
			}
			for k := range found {
				m[k] = true
			}
		}
	}
	return res, nil
}

// buildPairs attaches results and consistency analysis to common pairs.
func (s *Study) buildPairs() {
	for _, p := range s.World.CommonPairs {
		ra := s.Result(p.Android)
		ri := s.Result(p.IOS)
		if ra == nil || ri == nil {
			continue
		}
		s.Pairs = append(s.Pairs, &PairResult{
			Name:     p.Name,
			Android:  ra,
			IOS:      ri,
			Analysis: dynamicanalysis.AnalyzePair(p.Name, ra.Dyn, ri.Dyn),
		})
	}
}

// probePinnedDests fetches served chains at every pinned destination and
// classifies their PKI (Table 6).
func (s *Study) probePinnedDests() error {
	dests := map[string]bool{}
	for _, r := range s.results {
		for _, d := range r.Dyn.PinnedDests() {
			dests[d] = true
		}
	}
	p := newProber(s.Cfg, s.World)
	s.Probes = make(map[string]*DestProbe, len(dests))
	for d := range dests {
		s.Probes[d] = p.probe(d)
	}
	return nil
}

// prober probes and classifies pinned destinations. Its network leaves
// flaky hosts out (they are offline by probe time) and every other host
// serves its fixed chain, so a probe is a pure function of (run config,
// destination) — independent of probe order, of which prober asks, and of
// how often. That is what lets the study probe once at the end while shard
// workers probe per journal record, with identical results. The prober
// trusts the run's configured Android store (the timeline point's, when
// one is set), though classification itself is store-independent: probes
// fetch chains without validating, and the default-PKI check runs against
// the static Mozilla reference bundle.
type prober struct {
	w   *worldgen.World
	dev *device.Device
}

func newProber(cfg Config, w *worldgen.World) *prober {
	return &prober{w: w, dev: device.New(appmodel.Android, w.NewNetwork(false), cfg.baseStores(w)[appmodel.Android],
		detrand.New(cfg.Params.Seed).Child("prober"))}
}

// probe fetches the chain served at dest and classifies it.
func (p *prober) probe(dest string) *DestProbe {
	dp := &DestProbe{Dest: dest}
	chain, err := p.dev.ProbeChain(dest)
	if err != nil {
		dp.Unavailable = true
		return dp
	}
	dp.Chain = chain
	switch {
	case p.w.Eco.IsDefaultPKI(chain, dest):
		dp.DefaultPKI = true
	case len(chain) == 1:
		dp.SelfSigned = true
	default:
		dp.CustomPKI = true
	}
	return dp
}
