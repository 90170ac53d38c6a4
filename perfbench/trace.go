package main

// trace.go is the traced run. core runs the per-app stages inside
// RunOnWorld, so the traced run replays them over the same paper world
// through each layer's public functions (the way the repository's
// BenchmarkDynamicDetectionPerApp does), times the public calls the
// workload makes, and reads the counters the layers expose. A CPU profile
// of the whole traced process is written under .bench_build. End-to-end
// metrics never come from here.

import (
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"runtime/pprof"
	"time"

	"pinscope"
	"pinscope/internal/appmodel"
	"pinscope/internal/core"
	"pinscope/internal/detrand"
	"pinscope/internal/device"
	"pinscope/internal/dynamicanalysis"
	"pinscope/internal/frida"
	"pinscope/internal/journal"
	"pinscope/internal/mitmproxy"
	"pinscope/internal/pii"
	"pinscope/internal/pki"
	"pinscope/internal/staticanalysis"
	"pinscope/internal/worldgen"
)

const (
	// replayStride samples every fifth app of the universe (offset by the
	// seed) for the per-app stage replay: about 1,000 apps.
	replayStride = 5
	// replayFrames is how many journal frames the append replay writes.
	replayFrames = 256
	// stageSumMS and stageIntervalMS carry the stage sum and the interval
	// it explains from a traced child to the parent, which reports their
	// ratio as trace.stage_sum_gap.
	stageSumMS      = "trace.stage_sum_ms"
	stageIntervalMS = "trace.interval_ms"
)

// startProfile writes a CPU profile of this process until the returned
// stop is called.
func startProfile(o options) (stop func(), err error) {
	dir := filepath.Join(buildDir, "perfbench", "profiles")
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, err
	}
	path := filepath.Join(dir, fmt.Sprintf("%s-seed%d.cpu.pprof", o.workload, o.seed))
	f, err := os.Create(path)
	if err != nil {
		return nil, err
	}
	if err := pprof.StartCPUProfile(f); err != nil {
		f.Close()
		return nil, err
	}
	return func() {
		pprof.StopCPUProfile()
		f.Close()
		fmt.Fprintln(os.Stderr, "perfbench: CPU profile written to", path)
	}, nil
}

// stageCosts are the per-app stage costs of the pipeline replay.
type stageCosts struct {
	staticMS, legsMS, detectMS float64 // per app
	rerunMS                    float64 // per iOS Common app (delayed re-run)
	hookedMS                   float64 // per pinning app (hooked run + PII scan)
	flows                      float64 // per app, both legs
	probeMS                    float64 // per destination
}

// perApp is the summed cost of measuring a universe with the given mix,
// spread over the workers.
func (c stageCosts) perApp(apps, reruns, pinners int) float64 {
	return (float64(apps)*(c.staticMS+c.legsMS+c.detectMS) +
		float64(reruns)*c.rerunMS + float64(pinners)*c.hookedMS) / workers
}

// replayPipeline runs the per-app stages of lab.studyApp over a sample of
// w's apps, and the destination probes over dests, through the layers'
// public functions. w must not have been measured yet (static analysis
// decrypts iOS packages in place).
func replayPipeline(seed int64, cfg core.Config, w *worldgen.World, dests []string) (stageCosts, error) {
	var c stageCosts
	t := newTruth(w)
	proxy, err := mitmproxy.NewWithCA(detrand.New(cfg.Params.Seed).Child("perfbench-proxy"))
	if err != nil {
		return c, err
	}
	proxy.UseChainStore(pki.NewChainStore())
	memo := device.NewHandshakeMemo()
	base := map[appmodel.Platform]*pki.RootStore{appmodel.Android: w.Eco.OEM, appmodel.IOS: w.Eco.IOS}
	plain := map[appmodel.Platform]*device.Device{}
	mitm := map[appmodel.Platform]*device.Device{}
	hooks := map[appmodel.Platform]*frida.Session{}
	for _, plat := range appmodel.Platforms {
		// Device randomness is platform-keyed, as in core's labs.
		rng := func() *detrand.Source { return detrand.New(cfg.Params.Seed).Child("device/" + string(plat)) }
		plain[plat] = device.New(plat, w.NewNetwork(true), base[plat], rng())
		netMITM := w.NewNetwork(true)
		netMITM.SetInterceptor(proxy)
		mitm[plat] = device.New(plat, netMITM, base[plat], rng())
		mitm[plat].InstallCA(proxy.CACert())
		plain[plat].UseHandshakeMemo(memo)
		mitm[plat].UseHandshakeMemo(memo)
		if hooks[plat], err = frida.Attach(plat, true); err != nil {
			return c, err
		}
	}

	var static, legs, detect, rerun, hooked time.Duration
	var apps, reruns, pinners, flows int
	run := device.RunOptions{Window: cfg.Window}
	for i := int(seed%replayStride+replayStride) % replayStride; i < len(t.keys); i += replayStride {
		key := t.keys[i]
		app := t.apps[key]
		plat := app.Platform
		proxy.ResetLogs()
		apps++

		t0 := time.Now()
		var rep *staticanalysis.Report
		if err := mitm[plat].DecryptApp(app); err == nil {
			rep, _ = staticanalysis.Analyze(app)
		}
		t1 := time.Now()
		capA, _ := plain[plat].Measure(app, run)
		capB, _ := mitm[plat].Measure(app, run)
		t2 := time.Now()
		opts := dynamicanalysis.Options{}
		if plat == appmodel.IOS {
			opts.ExcludeDomains = append(opts.ExcludeDomains, device.AppleBackgroundDomains...)
			if rep != nil {
				opts.ExcludeDomains = append(opts.ExcludeDomains, rep.AssociatedDomains...)
			}
		}
		res := dynamicanalysis.Detect(app.ID, capA, capB, opts)
		t3 := time.Now()
		static += t1.Sub(t0)
		legs += t2.Sub(t1)
		detect += t3.Sub(t2)
		flows += len(capA.Flows()) + len(capB.Flows())
		capA.Release()
		capB.Release()

		if t.commonIOS[key] {
			t4 := time.Now()
			delayed := device.RunOptions{Window: cfg.Window, LaunchDelay: 120}
			capA2, _ := plain[plat].Measure(app, delayed)
			capB2, _ := mitm[plat].Measure(app, delayed)
			again := dynamicanalysis.Detect(app.ID, capA2, capB2,
				dynamicanalysis.Options{ExcludeDomains: device.AppleBackgroundDomains})
			rerun += time.Since(t4)
			reruns++
			if again.Quality() >= res.Quality() {
				res = again
			}
			capA2.Release()
			capB2.Release()
		}
		if res.Pins() {
			proxy.ResetLogs()
			t5 := time.Now()
			capH := mitm[plat].Run(app, device.RunOptions{Window: cfg.Window, Hooks: hooks[plat]})
			scanner := pii.NewScanner(mitm[plat].Profile)
			for _, lg := range proxy.Logs() {
				if len(lg.Payloads) > 0 {
					scanner.ScanAll(lg.Payloads)
				}
			}
			hooked += time.Since(t5)
			pinners++
			capH.Release()
		}
	}
	if apps == 0 || reruns == 0 || pinners == 0 {
		return c, fmt.Errorf("replay sample too small: %d apps, %d re-runs, %d pinners", apps, reruns, pinners)
	}
	c.staticMS = millis(static) / float64(apps)
	c.legsMS = millis(legs) / float64(apps)
	c.detectMS = millis(detect) / float64(apps)
	c.flows = float64(flows) / float64(apps)
	c.rerunMS = millis(rerun) / float64(reruns)
	c.hookedMS = millis(hooked) / float64(pinners)

	prober := device.New(appmodel.Android, w.NewNetwork(false), base[appmodel.Android],
		detrand.New(cfg.Params.Seed).Child("prober"))
	t6 := time.Now()
	for _, d := range dests {
		if chain, err := prober.ProbeChain(d); err == nil {
			w.Eco.IsDefaultPKI(chain, d)
		}
	}
	c.probeMS = millis(time.Since(t6)) / float64(len(dests))
	return c, nil
}

// pipelineLayers renders the replayed stage costs as per-layer metrics.
func pipelineLayers(c stageCosts, L map[string]float64) {
	L["staticanalysis.ms_per_app"] = c.staticMS
	L["device.legs_ms_per_app"] = c.legsMS
	L["device.rerun_ms_per_app"] = c.rerunMS
	L["device.hooked_ms_per_pinner"] = c.hookedMS
	L["device.flows_per_app"] = c.flows
	L["dynamicanalysis.detect_ms_per_app"] = c.detectMS
	L["core.probe_ms_per_dest"] = c.probeMS
}

// exportMix counts what the stage sum needs from an export.
func exportMix(ds *core.ExportedDataset) (dests []string, pinners int) {
	for _, p := range ds.Destinations {
		dests = append(dests, p.Host)
	}
	for i := range ds.Apps {
		if ds.Apps[i].PinsDynamic {
			pinners++
		}
	}
	return dests, pinners
}

// appendReplay appends payloads to a fresh journal through journal.Append
// (one fsync each) and returns the mean time per frame.
func appendReplay(dir string, payloads [][]byte) (float64, error) {
	path := filepath.Join(dir, "append-replay.wal")
	jw, err := journal.Create(path, []byte(`{"perfbench":"append replay"}`))
	if err != nil {
		return 0, err
	}
	t0 := time.Now()
	for _, p := range payloads {
		if err := jw.Append(p); err != nil {
			jw.Close()
			return 0, err
		}
	}
	d := time.Since(t0)
	if err := jw.Close(); err != nil {
		return 0, err
	}
	return millis(d) / float64(len(payloads)), os.Remove(path)
}

// exportReplay streams ds through core.NewStreamExporter into a file — the
// encoder MergeShards uses, byte-identical to Study.WriteJSON — for the
// workloads that write no export of their own.
func exportReplay(dir string, ds *core.ExportedDataset) (time.Duration, int64, error) {
	path := filepath.Join(dir, "export-replay.json")
	t0 := time.Now()
	err := writeFile(path, func(w io.Writer) error {
		se, err := core.NewStreamExporter(w, ds.Meta)
		if err != nil {
			return err
		}
		for i := range ds.Apps {
			if err := se.App(&ds.Apps[i]); err != nil {
				return err
			}
		}
		return se.Finish(ds.Destinations)
	})
	d := time.Since(t0)
	if err != nil {
		return 0, 0, err
	}
	fi, err := os.Stat(path)
	if err != nil {
		return 0, 0, err
	}
	return d, fi.Size(), os.Remove(path)
}

// miniShardReplay gives the workloads that journal nothing a journal and a
// merge to time: a sharded run of the miniature world (two slices, two
// workers, no faults), then MergeShards to io.Discard.
func miniShardReplay(dir string, L map[string]float64) (walScan, error) {
	cfg := pinscope.MiniConfig(pinscope.PaperConfig().Seed)
	opts := pinscope.ShardOptions{Shards: 2, Workers: workers, Dir: filepath.Join(dir, "mini-wal")}
	if _, err := pinscope.RunSharded(cfg, opts); err != nil {
		return walScan{}, err
	}
	ws, err := scanJournals(opts.Dir)
	if err != nil {
		return ws, err
	}
	t0 := time.Now()
	if err := pinscope.MergeShards(io.Discard, cfg, opts); err != nil {
		return ws, err
	}
	L["core.merge_ms_per_app"] = millis(time.Since(t0)) / float64(ws.frames)
	return ws, os.RemoveAll(opts.Dir)
}

// journalLayers fills the journal read/append metrics from a read-back.
func journalLayers(dir string, ws walScan, L map[string]float64) error {
	if ws.frames == 0 {
		return errors.New("no journal frames to replay")
	}
	appendMS, err := appendReplay(dir, ws.payloads)
	if err != nil {
		return err
	}
	L["journal.append_ms_per_frame"] = appendMS
	L["journal.read_ms_per_frame"] = millis(ws.read) / float64(ws.frames)
	return nil
}

// unshardedLayers fills the journal and shard metrics of a workload that
// journals nothing: its counters read 0 (and the useful ratio 1: no
// pipeline execution is wasted), and the journal and merge timings come
// from a miniature sharded run.
func unshardedLayers(dir string, L map[string]float64) error {
	for _, k := range []string{
		"journal.frames", "journal.bytes_per_app",
		"shardcoord.resumed_frames", "shardcoord.reassigned", "shardcoord.expired",
		"shardnet.conn_drops", "shardnet.send_retries", "shardnet.duplicates", "shardnet.fenced",
	} {
		L[k] = 0
	}
	L["shardcoord.useful_ratio"] = 1
	ws, err := miniShardReplay(dir, L)
	if err != nil {
		return err
	}
	return journalLayers(dir, ws, L)
}

func traceStudy(o options) (*report, error) {
	stop, err := startProfile(o)
	if err != nil {
		return nil, err
	}
	defer stop()
	r, sr, err := study(o)
	if err != nil {
		return nil, err
	}
	L := map[string]float64{}
	apps := len(sr.export.Apps)
	dests, pinners := exportMix(sr.export)
	L["core.export_s"] = seconds(sr.exportDur)
	L["core.export_mb"] = float64(sr.exportSize) / 1e6
	L["core.probes"] = float64(len(sr.study.Probes))
	L["core.alloc_mb_per_app"] = float64(sr.allocBytes) / 1e6 / float64(apps)
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
	t := newTruth(w)
	L[stageSumMS] = costs.perApp(len(t.keys), len(t.commonIOS), pinners) +
		float64(len(dests))*costs.probeMS + millis(sr.exportDur)
	L[stageIntervalMS] = millis(sr.run + sr.exportDur)

	if err := unshardedLayers(o.dir, L); err != nil {
		return nil, err
	}
	if err := pinserveLayers(o.seed, L); err != nil {
		return nil, err
	}
	L["pinserve.shed"] = 0
	r.Layers = L
	return r, nil
}

func traceShard(o options, tcp bool) (*report, error) {
	stop, err := startProfile(o)
	if err != nil {
		return nil, err
	}
	defer stop()
	r, sr, err := shard(o, tcp)
	if err != nil {
		return nil, err
	}
	L := map[string]float64{}
	apps := len(sr.export.Apps)
	dests, pinners := exportMix(sr.export)
	st := sr.stats
	exportDur, size, err := exportReplay(o.dir, sr.export)
	if err != nil {
		return nil, err
	}
	L["core.export_s"] = seconds(exportDur)
	L["core.export_mb"] = float64(size) / 1e6
	L["core.probes"] = float64(len(dests))
	L["core.alloc_mb_per_app"] = float64(sr.allocBytes) / 1e6 / float64(apps)
	L["core.gc_cpu_fraction"] = sr.gcFraction
	L["core.merge_ms_per_app"] = sr.mergeMS / float64(apps)
	L["journal.frames"] = float64(sr.wal.frames)
	L["journal.bytes_per_app"] = float64(sr.wal.bytes) / float64(apps)
	// Every pipeline execution whose result did not reach the merge is
	// waste: the killed worker's torn frame, appends refused by the epoch
	// fence, and duplicate deliveries.
	L["shardcoord.useful_ratio"] = float64(apps) / float64(apps+st.WorkersKilled+st.Fenced+st.Duplicates)
	L["shardcoord.resumed_frames"] = float64(st.ResumedFrames)
	L["shardcoord.reassigned"] = float64(st.Reassigned)
	L["shardcoord.expired"] = float64(st.LeasesExpired)
	L["shardnet.conn_drops"] = float64(st.ConnDrops)
	L["shardnet.send_retries"] = float64(st.SendRetries)
	L["shardnet.duplicates"] = float64(st.Duplicates)
	L["shardnet.fenced"] = float64(st.Fenced)
	if err := journalLayers(o.dir, sr.wal, L); err != nil {
		return nil, err
	}

	cfg := paperCoreConfig()
	costs, err := replayPipeline(o.seed, cfg, sr.world, dests)
	if err != nil {
		return nil, err
	}
	pipelineLayers(costs, L)
	t := newTruth(sr.world)
	L[stageSumMS] = costs.perApp(len(t.keys), len(t.commonIOS), pinners) +
		float64(sr.wal.frames)*L["journal.append_ms_per_frame"]/workers
	L[stageIntervalMS] = millis(sr.run)

	if err := pinserveLayers(o.seed, L); err != nil {
		return nil, err
	}
	L["pinserve.shed"] = 0
	r.Layers = L
	return r, nil
}

// snapshotDataset loads the reference export through core.ReadJSON.
func snapshotDataset() (*core.ExportedDataset, error) {
	f, err := os.Open(referencePath)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	return core.ReadJSON(f)
}

// mustJSON marshals v (used for values that always marshal).
func mustJSON(v any) []byte {
	b, err := json.Marshal(v)
	if err != nil {
		panic(err)
	}
	return b
}
