package main

// serve.go is the serve workload: an in-process pinserve.Server on
// loopback HTTP serving the committed paper-scale snapshot. Two keep-alive
// client connections run a closed loop over the query plan derived from
// the snapshot (as pinscoped -selftest derives its plan), each in its own
// seeded order, while a reloader swaps the snapshot at a fixed interval,
// so lookups (pre-rendered bytes) and reloads (re-decode plus index
// rebuild) share the two cores. Every answer's status is checked in the
// window; afterwards the whole plan is re-issued and compared field by
// field with answers computed from the benchmark's own scan of the
// snapshot JSON.

import (
	"context"
	"encoding/json"
	"fmt"
	"io"
	"math/rand"
	"net"
	"net/http"
	"net/http/httptest"
	"net/url"
	"os"
	"reflect"
	"runtime"
	"sort"
	"strconv"
	"strings"
	"sync"
	"time"

	"pinscope/internal/core"
	"pinscope/internal/pinserve"
	"pinscope/internal/worldgen"
)

const (
	// reloadInterval is how often the reloader swaps the snapshot. It is
	// an assumed stress rate, not an observed one: pinscoped republishes
	// only when a study export lands, minutes apart at paper scale. One
	// reload a second puts about ten reloads in a ten-second window, so
	// their median (publish_ms) is steady.
	reloadInterval = time.Second
	// warmup runs the clients before the measured window opens.
	warmup = time.Second
)

// Query kinds: the endpoint a query hits.
const (
	qApp      = iota // /v1/app/{platform}/{id}
	qPin             // /v1/pins?spki=
	qDest            // /v1/dest/{host}
	qDistrust        // /v1/distrust/{fingerprint}
	qTable           // /v1/tables/{n}
	qHealth          // /v1/healthz
)

type query struct {
	kind int
	path string
	want int    // expected HTTP status
	arg  string // app key, pin, host, fingerprint or table number
}

// snapshotScan is the benchmark's own reading of the snapshot JSON. Every
// expected answer comes from here, never from pinserve.
type snapshotScan struct {
	apps     map[string]json.RawMessage // "platform/id" -> app record
	names    map[string][2]string       // "platform/id" -> name, developer
	pins     map[string][]string        // pin -> app keys
	probes   map[string]json.RawMessage // host -> probe record
	pinnedBy map[string][]string
	circBy   map[string][]string
	roots    map[string][]string // root fingerprint -> probed hosts
	// plan is the query plan derived from the snapshot the way
	// pinscoped -selftest derives its plan: one app lookup per app, one
	// destination lookup per pinned destination and one pin lookup per
	// pin of each app, one distrust lookup per probe with a trust anchor,
	// then fixed misses, malformed ids, tables and health.
	plan []query
}

func scanSnapshot(path string) (*snapshotScan, error) {
	raw, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var doc struct {
		Apps  []json.RawMessage `json:"apps"`
		Dests []json.RawMessage `json:"pinned_destinations"`
	}
	if err := json.Unmarshal(raw, &doc); err != nil {
		return nil, err
	}
	sc := &snapshotScan{
		apps: map[string]json.RawMessage{}, names: map[string][2]string{},
		pins: map[string][]string{}, probes: map[string]json.RawMessage{},
		pinnedBy: map[string][]string{}, circBy: map[string][]string{}, roots: map[string][]string{},
	}
	for _, rec := range doc.Apps {
		var a struct {
			ID, Name, Developer, Platform string
			Pins                          []string `json:"pin_spki_hashes"`
			Pinned                        []string `json:"pinned_domains"`
			Circumvented                  []string `json:"circumvented_domains"`
		}
		if err := json.Unmarshal(rec, &a); err != nil {
			return nil, err
		}
		key := a.Platform + "/" + a.ID
		sc.apps[key] = rec
		sc.names[key] = [2]string{a.Name, a.Developer}
		sc.plan = append(sc.plan, query{qApp, "/v1/app/" + a.Platform + "/" + url.PathEscape(a.ID), http.StatusOK, key})
		for _, d := range a.Pinned {
			sc.pinnedBy[d] = append(sc.pinnedBy[d], key)
			sc.plan = append(sc.plan, query{qDest, "/v1/dest/" + url.PathEscape(d), http.StatusOK, d})
		}
		for _, p := range a.Pins {
			sc.pins[p] = append(sc.pins[p], key)
			sc.plan = append(sc.plan, query{qPin, "/v1/pins?spki=" + url.QueryEscape(p), http.StatusOK, p})
		}
		for _, d := range a.Circumvented {
			sc.circBy[d] = append(sc.circBy[d], key)
		}
	}
	for _, rec := range doc.Dests {
		var p struct {
			Host   string `json:"host"`
			RootFP string `json:"root_fp"`
		}
		if err := json.Unmarshal(rec, &p); err != nil {
			return nil, err
		}
		sc.probes[p.Host] = rec
		if p.RootFP != "" {
			sc.roots[p.RootFP] = append(sc.roots[p.RootFP], p.Host)
			sc.plan = append(sc.plan, query{qDistrust, "/v1/distrust/" + url.PathEscape(p.RootFP), http.StatusOK, p.RootFP})
		}
	}
	for _, m := range []map[string][]string{sc.pins, sc.pinnedBy, sc.circBy, sc.roots} {
		for _, keys := range m {
			sort.Strings(keys)
		}
	}
	zeros := strings.Repeat("0", 64)
	sc.plan = append(sc.plan,
		query{qDistrust, "/v1/distrust/" + zeros, http.StatusNotFound, zeros},
		query{qDistrust, "/v1/distrust/not-a-fingerprint", http.StatusBadRequest, "not-a-fingerprint"},
		query{qApp, "/v1/app/android/com.does.not.exist", http.StatusNotFound, "android/com.does.not.exist"},
		query{qApp, "/v1/app/windows/com.example", http.StatusBadRequest, "windows/com.example"},
		query{qDest, "/v1/dest/never-seen.example.org", http.StatusNotFound, "never-seen.example.org"},
		query{qPin, "/v1/pins?spki=sha256:" + zeros, http.StatusOK, "sha256:" + zeros},
		query{qTable, "/v1/tables/1", http.StatusOK, "1"},
		query{qTable, "/v1/tables/2", http.StatusOK, "2"},
		query{qTable, "/v1/tables/3?format=text", http.StatusOK, "3"},
		query{qTable, "/v1/tables/9", http.StatusNotFound, "9"},
		query{qHealth, "/v1/healthz", http.StatusOK, ""},
	)
	for _, q := range sc.plan {
		if q.want == http.StatusOK && q.kind == qApp && sc.apps[q.arg] == nil {
			return nil, fmt.Errorf("%s: the plan looks up an app the snapshot does not hold", q.path)
		}
	}
	return sc, nil
}

func sortedKeys[V any](m map[string]V) []string {
	out := make([]string, 0, len(m))
	for k := range m {
		out = append(out, k)
	}
	sort.Strings(out)
	return out
}

// shuffled returns the plan in a seeded order. Every query of the plan
// appears once, so the mix is the plan's whatever the seed.
func (sc *snapshotScan) shuffled(seed int64) []query {
	qs := append([]query(nil), sc.plan...)
	rand.New(rand.NewSource(seed)).Shuffle(len(qs), func(i, j int) { qs[i], qs[j] = qs[j], qs[i] })
	return qs
}

type pinMatch struct {
	Key       string `json:"key"`
	Name      string `json:"name"`
	Developer string `json:"developer"`
}

func (sc *snapshotScan) matches(keys []string) []pinMatch {
	out := make([]pinMatch, 0, len(keys))
	for _, k := range keys {
		out = append(out, pinMatch{k, sc.names[k][0], sc.names[k][1]})
	}
	return out
}

// expect renders the answer the snapshot implies for a query that should
// succeed.
func (sc *snapshotScan) expect(q query) []byte {
	switch q.kind {
	case qApp:
		return sc.apps[q.arg]
	case qPin:
		return mustJSON(struct {
			SPKI  string     `json:"spki"`
			Count int        `json:"count"`
			Apps  []pinMatch `json:"apps"`
		}{q.arg, len(sc.pins[q.arg]), sc.matches(sc.pins[q.arg])})
	case qDest:
		return mustJSON(struct {
			Host           string          `json:"host"`
			Probe          json.RawMessage `json:"probe,omitempty"`
			PinnedBy       []string        `json:"pinned_by,omitempty"`
			CircumventedBy []string        `json:"circumvented_by,omitempty"`
		}{q.arg, sc.probes[q.arg], sc.pinnedBy[q.arg], sc.circBy[q.arg]})
	case qDistrust:
		hosts := sc.roots[q.arg]
		seen := map[string]bool{}
		var keys []string
		for _, h := range hosts {
			for _, k := range append(append([]string(nil), sc.pinnedBy[h]...), sc.circBy[h]...) {
				if !seen[k] {
					seen[k] = true
					keys = append(keys, k)
				}
			}
		}
		sort.Strings(keys)
		return mustJSON(struct {
			Fingerprint string     `json:"fingerprint"`
			HostCount   int        `json:"host_count"`
			AppCount    int        `json:"app_count"`
			Hosts       []string   `json:"hosts"`
			Apps        []pinMatch `json:"apps"`
		}{q.arg, len(hosts), len(keys), hosts, sc.matches(keys)})
	case qTable:
		return mustJSON(map[string]string{"table": []string{"", "prevalence", "categories", "pki"}[q.arg[0]-'0']})
	case qHealth:
		return mustJSON(map[string]string{"status": "ok"})
	}
	return nil
}

// verify compares a response body with the expected answer field by field.
// An error answer must carry a message; tables are checked by name only
// (their aggregates are not recomputed), the text table by its title, and
// the health answer by its status.
func (sc *snapshotScan) verify(q query, body []byte) error {
	if q.kind == qTable && strings.Contains(q.path, "format=text") {
		if title := "Snapshot table " + q.arg; !strings.HasPrefix(string(body), title) {
			return fmt.Errorf("%s: text table does not start with %q", q.path, title)
		}
		return nil
	}
	var got, want map[string]any
	if err := json.Unmarshal(body, &got); err != nil {
		return fmt.Errorf("%s: undecodable answer: %w", q.path, err)
	}
	if q.want != http.StatusOK {
		if msg, _ := got["error"].(string); msg == "" {
			return fmt.Errorf("%s: %d without an error message", q.path, q.want)
		}
		return nil
	}
	if err := json.Unmarshal(sc.expect(q), &want); err != nil {
		return err
	}
	if q.kind == qTable || q.kind == qHealth {
		k := sortedKeys(want)[0]
		got = map[string]any{k: got[k]}
	}
	for _, k := range sortedKeys(want) {
		if !reflect.DeepEqual(got[k], want[k]) {
			return fmt.Errorf("%s: field %q is %v, the snapshot says %v", q.path, k, got[k], want[k])
		}
	}
	for k := range got {
		if _, ok := want[k]; !ok {
			return fmt.Errorf("%s: unexpected field %q", q.path, k)
		}
	}
	return nil
}

// loadClient is one keep-alive connection running a closed loop.
type loadClient struct {
	http      *http.Client
	base      string
	ring      []query
	next      int
	latencies []time.Duration
	done      int64
	failed    int64
	errs      []string
}

func newLoadClient(base string, ring []query) *loadClient {
	tr := &http.Transport{MaxIdleConnsPerHost: 1, MaxConnsPerHost: 1, DisableCompression: true}
	return &loadClient{http: &http.Client{Transport: tr, Timeout: 10 * time.Second}, base: base, ring: ring}
}

// get issues one query and returns its status and body.
func (c *loadClient) get(q query) (int, []byte, error) {
	resp, err := c.http.Get(c.base + q.path)
	if err != nil {
		return 0, nil, err
	}
	body, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	return resp.StatusCode, body, err
}

// loop runs queries until the deadline, recording latencies if record.
func (c *loadClient) loop(deadline time.Time, record bool) {
	for time.Now().Before(deadline) {
		q := c.ring[c.next%len(c.ring)]
		c.next++
		t0 := time.Now()
		code, _, err := c.get(q)
		d := time.Since(t0)
		if !record {
			continue
		}
		c.done++
		c.latencies = append(c.latencies, d)
		if err != nil || code != q.want {
			c.failed++
			if len(c.errs) < 5 {
				c.errs = append(c.errs, fmt.Sprintf("%s: status %d, want %d (%v)", q.path, code, q.want, err))
			}
		}
	}
}

// serveRun is what a serve pass leaves for its traced variant.
type serveRun struct {
	reloads    []float64 // ms
	stats      []byte    // /v1/stats after the window
	gcFraction float64
}

func runServe(o options) (*report, error) {
	r, _, err := serve(o)
	return r, err
}

// newServer is the serve workload's set-up: pinserve.New loads the
// snapshot and builds the first index before the first request.
func newServer(r *report) (*pinserve.Server, error) {
	c0 := cpuTime()
	srv, err := pinserve.New(pinserve.Options{Paths: []string{referencePath}})
	if err != nil {
		return nil, err
	}
	r.SetupS = append(r.SetupS, seconds(cpuTime()-c0))
	return srv, nil
}

// setupServe times the serve set-up alone in a fresh process.
func setupServe(o options) (*report, error) {
	r := &report{}
	_, err := newServer(r)
	return r, err
}

func serve(o options) (*report, *serveRun, error) {
	r := &report{}
	// The set-up is the first thing the fresh process does, as in
	// setupServe.
	srv, err := newServer(r)
	if err != nil {
		return nil, nil, err
	}
	sc, err := scanSnapshot(referencePath)
	if err != nil {
		return nil, nil, err
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, nil, err
	}
	ctx, cancel := context.WithCancel(context.Background())
	served := make(chan error, 1)
	go func() { served <- srv.Serve(ctx, ln, 5*time.Second) }()
	base := "http://" + ln.Addr().String()

	clients := make([]*loadClient, workers)
	for i := range clients {
		clients[i] = newLoadClient(base, sc.shuffled(o.seed*1000+int64(i)))
	}
	var wg sync.WaitGroup
	run := func(deadline time.Time, record bool) {
		for _, c := range clients {
			wg.Add(1)
			go func(c *loadClient) {
				defer wg.Done()
				c.loop(deadline, record)
			}(c)
		}
	}
	run(time.Now().Add(warmup), false)
	wg.Wait()

	sr := &serveRun{}
	window := time.Duration(o.seconds) * time.Second
	start, cpu0 := time.Now(), cpuTime()
	deadline := start.Add(window)
	run(deadline, true)
	reloadErr := make(chan error, 1)
	go func() {
		var err error
		for next := start.Add(reloadInterval / 2); next.Before(deadline); next = next.Add(reloadInterval) {
			time.Sleep(time.Until(next))
			t0 := time.Now()
			if err = srv.Reload(); err != nil {
				break
			}
			sr.reloads = append(sr.reloads, millis(time.Since(t0)))
		}
		reloadErr <- err
	}()
	wg.Wait()
	elapsed, cpu := time.Since(start), cpuTime()-cpu0
	if err := <-reloadErr; err != nil {
		r.problem("snapshot reload under load: %v", err)
	}
	r.PeakRSSMB = peakRSSMB()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	sr.gcFraction = ms.GCCPUFraction

	var lat []time.Duration
	var wrong int64
	for _, c := range clients {
		r.Ops += c.done
		wrong += c.failed
		lat = append(lat, c.latencies...)
		for _, e := range c.errs {
			fmt.Fprintln(os.Stderr, "perfbench: serve:", e)
		}
	}
	r.Attempted, r.Failed = r.Ops, wrong
	if wrong > 0 {
		r.problem("%d of %d responses in the window had the wrong status or none", wrong, r.Ops)
	}
	r.IntervalS = seconds(elapsed)
	r.CPUS = seconds(cpu)
	r.PublishMS = sr.reloads
	sort.Slice(lat, func(i, j int) bool { return lat[i] < lat[j] })
	fmt.Fprintf(os.Stderr, "perfbench: serve: %d queries in %.2fs, p50 %.3f ms, p99 %.3f ms, %d reloads (median %.1f ms)\n",
		r.Ops, elapsed.Seconds(), millis(lat[len(lat)/2]), millis(lat[len(lat)*99/100]), len(sr.reloads), median(sr.reloads))

	// Outside the window: every query of the plan once, its status and
	// its answer checked field by field.
	check := newLoadClient(base, nil)
	for _, q := range sc.plan {
		r.Attempted++
		code, body, err := check.get(q)
		if err != nil || code != q.want {
			r.Failed++
			r.problem("%s: status %d, want %d (%v)", q.path, code, q.want, err)
			continue
		}
		if err := sc.verify(q, body); err != nil {
			r.problem("%v", err)
		}
	}
	if code, body, err := check.get(query{path: "/v1/stats"}); err == nil && code == http.StatusOK {
		sr.stats = body
	}
	cancel()
	if err := <-served; err != nil {
		return nil, nil, err
	}
	return r, sr, nil
}

// pinserveLayers times the snapshot decode, the index build, direct Index
// lookups and in-process handler calls (no socket) over the query plan.
func pinserveLayers(seed int64, L map[string]float64) error {
	var decode, build []float64
	var ds *core.ExportedDataset
	var ix *pinserve.Index
	for i := 0; i < 3; i++ {
		t0 := time.Now()
		d, err := snapshotDataset()
		if err != nil {
			return err
		}
		t1 := time.Now()
		x, err := pinserve.Build(d)
		if err != nil {
			return err
		}
		decode = append(decode, millis(t1.Sub(t0)))
		build = append(build, millis(time.Since(t1)))
		ds, ix = d, x
	}
	L["core.readjson_ms"] = median(decode)
	L["pinserve.build_ms"] = median(build)

	sc, err := scanSnapshot(referencePath)
	if err != nil {
		return err
	}
	qs := sc.shuffled(seed)
	const lookups = 200_000
	hits := 0
	t0 := time.Now()
	for i := 0; i < lookups; i++ {
		q := qs[i%len(qs)]
		var ok bool
		switch q.kind {
		case qApp:
			platform, id, _ := strings.Cut(q.arg, "/")
			_, ok = ix.AppJSON(platform, id)
		case qPin:
			_, ok = ix.PinJSON(q.arg)
		case qDest:
			_, ok = ix.DestJSON(q.arg)
		case qDistrust:
			_, ok = ix.DistrustJSON(q.arg)
		case qTable:
			n, _ := strconv.Atoi(q.arg)
			_, ok = ix.Table(n)
		case qHealth:
			ok = ix.Stats().Apps > 0
		}
		if ok {
			hits++
		}
	}
	L["pinserve.index_lookup_us"] = float64(time.Since(t0).Nanoseconds()) / 1e3 / lookups
	if hits == 0 {
		return fmt.Errorf("no index lookup hit")
	}

	srv, err := pinserve.New(pinserve.Options{})
	if err != nil {
		return err
	}
	if err := srv.Load(ds); err != nil {
		return err
	}
	h := srv.Handler()
	const calls = 20_000
	t1 := time.Now()
	for i := 0; i < calls; i++ {
		q := qs[i%len(qs)]
		rec := httptest.NewRecorder()
		h.ServeHTTP(rec, httptest.NewRequest(http.MethodGet, q.path, nil))
		if rec.Code != q.want {
			return fmt.Errorf("handler: %s answered %d, want %d", q.path, rec.Code, q.want)
		}
	}
	L["pinserve.handler_us"] = float64(time.Since(t1).Nanoseconds()) / 1e3 / calls
	return nil
}

func traceServe(o options) (*report, error) {
	stop, err := startProfile(o)
	if err != nil {
		return nil, err
	}
	defer stop()
	r, sr, err := serve(o)
	if err != nil {
		return nil, err
	}
	L := map[string]float64{}
	var stats struct {
		Endpoints []struct {
			Errors5xx int64 `json:"errors_5xx"`
		} `json:"endpoints"`
	}
	if err := json.Unmarshal(sr.stats, &stats); err != nil {
		return nil, fmt.Errorf("/v1/stats: %w", err)
	}
	shed := int64(0)
	for _, e := range stats.Endpoints {
		shed += e.Errors5xx
	}
	L["pinserve.shed"] = float64(shed)
	if err := pinserveLayers(o.seed, L); err != nil {
		return nil, err
	}
	L[stageSumMS] = L["core.readjson_ms"] + L["pinserve.build_ms"]
	L[stageIntervalMS] = median(sr.reloads)

	ds, err := snapshotDataset()
	if err != nil {
		return nil, err
	}
	dests, _ := exportMix(ds)
	exportDur, size, err := exportReplay(o.dir, ds)
	if err != nil {
		return nil, err
	}
	L["core.export_s"] = seconds(exportDur)
	L["core.export_mb"] = float64(size) / 1e6
	L["core.probes"] = float64(len(dests))
	L["core.alloc_mb_per_app"] = 0 // serving measures no apps
	L["core.gc_cpu_fraction"] = sr.gcFraction

	cfg := paperCoreConfig()
	w, err := worldgen.Build(cfg.Params)
	if err != nil {
		return nil, err
	}
	costs, err := replayPipeline(o.seed, cfg, w, dests)
	if err != nil {
		return nil, err
	}
	pipelineLayers(costs, L)
	if err := unshardedLayers(o.dir, L); err != nil {
		return nil, err
	}
	r.Layers = L
	return r, nil
}
