package main

// study.go is the study workload: pinscope.PaperConfig() in one process
// with two workers. The world build (store crawl and certificate issuance)
// is the set-up; the measured interval is the per-app measurement of every
// unique app, the destination probes and the export.

import (
	"bufio"
	"bytes"
	"io"
	"os"
	"path/filepath"
	"runtime"
	"time"

	"pinscope/internal/core"
	"pinscope/internal/worldgen"
)

func runStudy(o options) (*report, error) {
	r, _, err := study(o)
	return r, err
}

// setupStudy times the world build alone in a fresh process: CPU time for
// setup_s, wall-clock time for worldgen.build_s.
func setupStudy(o options) (*report, error) {
	t0, c0 := time.Now(), cpuTime()
	w, err := worldgen.Build(paperCoreConfig().Params)
	if err != nil {
		return nil, err
	}
	return &report{
		SetupS: []float64{seconds(cpuTime() - c0)},
		Layers: map[string]float64{
			"worldgen.build_s": seconds(time.Since(t0)),
			"worldgen.hosts":   float64(len(w.Hosts)),
		},
	}, nil
}

// studyRun is what a study pass leaves for its traced variant.
type studyRun struct {
	study      *core.Study
	export     *core.ExportedDataset
	exportSize int
	run        time.Duration // core.RunOnWorld
	exportDur  time.Duration // WriteJSON
	allocBytes uint64        // allocated during RunOnWorld
	gcFraction float64
}

func study(o options) (*report, *studyRun, error) {
	cfg := paperCoreConfig()
	c0 := cpuTime()
	w, err := worldgen.Build(cfg.Params)
	if err != nil {
		return nil, nil, err
	}
	setup := cpuTime() - c0

	var ms0, ms1 runtime.MemStats
	runtime.ReadMemStats(&ms0)
	t1, c1 := time.Now(), cpuTime()
	s, err := core.RunOnWorld(cfg, w)
	if err != nil {
		return nil, nil, err
	}
	run := time.Since(t1)
	out := filepath.Join(o.dir, "study.json")
	t2 := time.Now()
	if err := writeFile(out, s.WriteJSON); err != nil {
		return nil, nil, err
	}
	exportDur := time.Since(t2)
	interval := time.Since(t1)
	r := &report{
		SetupS:    []float64{seconds(setup)},
		IntervalS: seconds(interval),
		CPUS:      seconds(cpuTime() - c1),
		PeakRSSMB: peakRSSMB(),
	}
	runtime.ReadMemStats(&ms1)
	// The export in the interval runs while the collector still works off
	// the measurement's garbage, and one export is too short to time
	// alone: publish_ms is the median of exportSamples exports, each
	// started on a collected heap.
	for len(r.PublishMS) < exportSamples {
		runtime.GC()
		t3 := time.Now()
		if err := writeFile(out, s.WriteJSON); err != nil {
			return nil, nil, err
		}
		r.PublishMS = append(r.PublishMS, millis(time.Since(t3)))
	}

	got, err := os.ReadFile(out)
	if err != nil {
		return nil, nil, err
	}
	checkReference(got, "the study export", r)
	ds, err := core.ReadJSON(bytes.NewReader(got))
	if err != nil {
		return nil, nil, err
	}
	t := newTruth(w)
	missing := t.check(ds, r)
	var quarantined int64
	for _, key := range t.keys {
		if res := s.Result(t.apps[key]); res != nil && res.Quarantined {
			quarantined++
		}
	}
	r.Ops = int64(len(ds.Apps))
	r.Attempted = int64(len(t.keys))
	r.Failed = missing + quarantined
	return r, &studyRun{
		study: s, export: ds, exportSize: len(got),
		run: run, exportDur: exportDur,
		allocBytes: ms1.TotalAlloc - ms0.TotalAlloc, gcFraction: ms1.GCCPUFraction,
	}, nil
}

// writeFile streams write's output into a new file at path.
func writeFile(path string, write func(io.Writer) error) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	bw := bufio.NewWriterSize(f, 1<<20)
	if err := write(bw); err != nil {
		f.Close()
		return err
	}
	if err := bw.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}
