// Command perfbench is pinscope's end-to-end benchmark. One invocation runs
// one workload at paper scale, checks the program's outputs, and prints one
// JSON result line on stdout:
//
//	python3 perfbench/run.py --workload study --seed 1 --seconds 10 --trace 0
//
// The workloads are study, shard, shard-tcp and serve (see README.md). Every
// measurement runs in a fresh child process of this binary: internal/pki
// keeps process-global issuance and signature memos, so a second same-seed
// run in one process is much faster than the first and would measure the
// memo, not the program.
//
// With --trace 0 the result carries the end-to-end metrics listed in
// BENCHMARK.json; with --trace 1 it carries the per-layer metrics of a
// separate traced run, and a CPU profile is written under .bench_build.
package main

import (
	"bufio"
	"context"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"sort"
	"strconv"
	"strings"
	"time"
)

// referencePath is the committed single-process paper-scale export that
// every workload checks its output against (DESIGN §8's byte-identity
// contract) and that the serve workload serves.
const referencePath = "dataset_paper_scale.json"

// remakeReference is the command that regenerates referencePath.
const remakeReference = "go run ./cmd/pinstudy -scale paper -export dataset_paper_scale.json"

// buildDir holds everything the benchmark writes: the binary, the Go build
// cache, per-run work directories and CPU profiles.
const buildDir = ".bench_build"

// Run shape shared by the workloads: two workers (the reference machine has
// two cores), four slices for the sharded runs.
const (
	workers = 2
	shards  = 4
	// setupSamples is how many set-ups each run times, each in its own
	// fresh process; the reported setup_s is the median of their CPU times.
	setupSamples = 3
	// exportSamples and mergeSamples are how many times a pass times its
	// publish step (the study export, the shard merge).
	exportSamples = 11
	mergeSamples  = 3
	// childLimit bounds one run end to end, children included.
	childLimit = 170 * time.Second
)

var workloads = []string{"study", "shard", "shard-tcp", "serve"}

type options struct {
	workload string
	seed     int64
	seconds  int
	trace    int
	child    string
	dir      string
}

// metric is one named measurement in the result line.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the last line of stdout.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int64             `json:"attempted"`
	Failed    int64             `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// report is what one child process measured, printed by the child as the
// last line of its stdout.
type report struct {
	// SetupS are the CPU times (user plus system), in seconds, that the
	// process spent in set-ups.
	SetupS []float64 `json:"setup_s,omitempty"`
	// Ops counts operations completed in the measured interval: apps in
	// the result (batch workloads) or answered queries (serve).
	Ops       int64   `json:"ops"`
	IntervalS float64 `json:"interval_s"`
	// CPUS is the CPU time (user plus system) the process spent in the
	// measured interval, in seconds.
	CPUS float64 `json:"cpu_s"`
	// PublishMS are the times to publish the result: the export write
	// (study), the shard merge (shard, shard-tcp) or snapshot reloads
	// under load (serve).
	PublishMS []float64 `json:"publish_ms,omitempty"`
	PeakRSSMB float64   `json:"peak_rss_mb"`
	Attempted int64     `json:"attempted"`
	Failed    int64     `json:"failed"`
	// Problems are failed output checks; any makes the run incorrect.
	Problems []string `json:"problems,omitempty"`
	// Layers are per-layer metrics (traced runs and set-up children).
	Layers map[string]float64 `json:"layers,omitempty"`
}

func (r *report) problem(format string, args ...any) {
	r.Problems = append(r.Problems, fmt.Sprintf(format, args...))
}

func main() {
	var o options
	flag.StringVar(&o.workload, "workload", "", "workload: "+strings.Join(workloads, ", "))
	flag.Int64Var(&o.seed, "seed", 1, "seed for the kill plan and the request order")
	flag.IntVar(&o.seconds, "seconds", 10, "seconds to measure")
	flag.IntVar(&o.trace, "trace", 0, "1 runs the traced run and prints per-layer metrics")
	flag.StringVar(&o.child, "child", "", "internal: run one role in this process and print its report")
	flag.StringVar(&o.dir, "dir", "", "internal: the child's work directory")
	flag.Parse()
	if o.child != "" {
		os.Exit(runChild(o))
	}
	if err := runParent(o); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
}

// benchSpec is the part of BENCHMARK.json the result line must match.
type benchSpec struct {
	EndToEnd []struct {
		Name string `json:"name"`
		Unit string `json:"unit"`
	} `json:"end_to_end"`
	PerLayer []struct {
		Name string `json:"name"`
		Unit string `json:"unit"`
	} `json:"per_layer"`
}

func runParent(o options) error {
	known := false
	for _, w := range workloads {
		known = known || w == o.workload
	}
	if !known {
		return fmt.Errorf("unknown workload %q (want one of %s)", o.workload, strings.Join(workloads, ", "))
	}
	if o.seconds < 1 || o.trace < 0 || o.trace > 1 {
		return errors.New("--seconds must be at least 1 and --trace 0 or 1")
	}
	raw, err := os.ReadFile("BENCHMARK.json")
	if err != nil {
		return fmt.Errorf("run from the repository root: %w", err)
	}
	var spec benchSpec
	if err := json.Unmarshal(raw, &spec); err != nil {
		return fmt.Errorf("BENCHMARK.json: %w", err)
	}
	if _, err := os.Stat(referencePath); err != nil {
		return fmt.Errorf("reference export missing (remake it with %s): %w", remakeReference, err)
	}
	work := filepath.Join(buildDir, "perfbench", "work", fmt.Sprintf("%s-%d", o.workload, os.Getpid()))
	if err := os.MkdirAll(work, 0o755); err != nil {
		return err
	}
	defer os.RemoveAll(work)
	ctx, cancel := context.WithTimeout(context.Background(), childLimit)
	defer cancel()
	sp := &spawner{ctx: ctx, o: o, work: work}

	var values map[string]float64
	var agg *report
	if o.trace == 1 {
		values, agg, err = traced(sp)
	} else {
		values, agg, err = untraced(sp)
	}
	if err != nil {
		return err
	}
	res := result{Correct: len(agg.Problems) == 0, Attempted: agg.Attempted, Failed: agg.Failed,
		Metrics: map[string]metric{}}
	names := spec.EndToEnd
	if o.trace == 1 {
		names = spec.PerLayer
	}
	for _, m := range names {
		v, ok := values[m.Name]
		if !ok {
			return fmt.Errorf("workload %s produced no value for metric %s", o.workload, m.Name)
		}
		res.Metrics[m.Name] = metric{Value: v, Unit: m.Unit}
	}
	for _, p := range agg.Problems {
		fmt.Fprintln(os.Stderr, "perfbench: CHECK FAILED:", p)
	}
	line, err := json.Marshal(res)
	if err != nil {
		return err
	}
	fmt.Println(string(line))
	if !res.Correct {
		os.Exit(1)
	}
	return nil
}

// untraced measures the end-to-end metrics. A batch workload runs whole
// passes, each a fresh process, until --seconds have elapsed (at least
// one); serve measures inside one child. Every workload then tops its
// set-up samples up to setupSamples with set-up-only children.
func untraced(sp *spawner) (map[string]float64, *report, error) {
	w := sp.o.workload
	var passes []*report
	start := time.Now()
	for len(passes) == 0 || time.Since(start) < time.Duration(sp.o.seconds)*time.Second && w != "serve" {
		r, err := sp.run(w)
		if err != nil {
			return nil, nil, err
		}
		passes = append(passes, r)
	}
	agg := &report{}
	var setups, cpu, publish, rss []float64
	for _, r := range passes {
		agg.Attempted += r.Attempted
		agg.Failed += r.Failed
		agg.Problems = append(agg.Problems, r.Problems...)
		setups = append(setups, r.SetupS...)
		fmt.Fprintf(os.Stderr, "perfbench: %s: %d ops in %.3fs: %.1f ops/s wall\n",
			w, r.Ops, r.IntervalS, float64(r.Ops)/r.IntervalS)
		cpu = append(cpu, 1000*r.CPUS/float64(r.Ops))
		publish = append(publish, median(r.PublishMS))
		rss = append(rss, r.PeakRSSMB)
	}
	for len(setups) < setupSamples {
		r, err := sp.run("setup-" + w)
		if err != nil {
			return nil, nil, err
		}
		setups = append(setups, r.SetupS...)
	}
	return map[string]float64{
		"cpu_ms_per_op": median(cpu),
		"setup_s":       median(setups),
		"publish_ms":    median(publish),
		"peak_rss_mb":   median(rss),
	}, agg, nil
}

// traced runs the fresh-process world build (worldgen's own figures) and
// the workload's traced child, and folds the two into the per-layer set.
func traced(sp *spawner) (map[string]float64, *report, error) {
	setup, err := sp.run("setup-study")
	if err != nil {
		return nil, nil, err
	}
	tr, err := sp.run("trace-" + sp.o.workload)
	if err != nil {
		return nil, nil, err
	}
	values := setup.Layers
	for k, v := range tr.Layers {
		values[k] = v
	}
	// The sharded runs build their world inside the timed call, so the
	// stage sum of their interval includes a fresh world build.
	if sp.o.workload == "shard" || sp.o.workload == "shard-tcp" {
		values[stageSumMS] += 1000 * setup.Layers["worldgen.build_s"]
	}
	values["trace.stage_sum_gap"] = values[stageSumMS]/values[stageIntervalMS] - 1
	delete(values, stageSumMS)
	delete(values, stageIntervalMS)
	return values, tr, nil
}

// spawner starts fresh child processes of this binary.
type spawner struct {
	ctx  context.Context
	o    options
	work string
	n    int
}

func (sp *spawner) run(role string) (*report, error) {
	self, err := os.Executable()
	if err != nil {
		return nil, err
	}
	sp.n++
	dir := filepath.Join(sp.work, fmt.Sprintf("%02d-%s", sp.n, role))
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, err
	}
	defer os.RemoveAll(dir)
	cmd := exec.CommandContext(sp.ctx, self, "-child", role,
		"-seed", strconv.FormatInt(sp.o.seed, 10), "-seconds", strconv.Itoa(sp.o.seconds),
		"-dir", dir, "-workload", sp.o.workload)
	cmd.Stderr = os.Stderr
	out, err := cmd.Output()
	if err != nil {
		return nil, fmt.Errorf("child %s: %w", role, err)
	}
	var last string
	sc := bufio.NewScanner(strings.NewReader(string(out)))
	sc.Buffer(make([]byte, 1<<20), 1<<24)
	for sc.Scan() {
		if s := strings.TrimSpace(sc.Text()); s != "" {
			last = s
		}
	}
	var r report
	if err := json.Unmarshal([]byte(last), &r); err != nil {
		return nil, fmt.Errorf("child %s printed no report: %w", role, err)
	}
	return &r, nil
}

// runChild runs one role in this (fresh) process and prints its report.
func runChild(o options) int {
	roles := map[string]func(options) (*report, error){
		"study":           runStudy,
		"setup-study":     setupStudy,
		"trace-study":     traceStudy,
		"shard":           func(o options) (*report, error) { return runShard(o, false) },
		"shard-tcp":       func(o options) (*report, error) { return runShard(o, true) },
		"setup-shard":     func(o options) (*report, error) { return setupShard(o, false) },
		"setup-shard-tcp": func(o options) (*report, error) { return setupShard(o, true) },
		"trace-shard":     func(o options) (*report, error) { return traceShard(o, false) },
		"trace-shard-tcp": func(o options) (*report, error) { return traceShard(o, true) },
		"serve":           runServe,
		"setup-serve":     setupServe,
		"trace-serve":     traceServe,
	}
	fn := roles[o.child]
	if fn == nil {
		fmt.Fprintf(os.Stderr, "perfbench: unknown child role %q\n", o.child)
		return 2
	}
	r, err := fn(o)
	if err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %s: %v\n", o.child, err)
		return 1
	}
	printReport(r)
	return 0
}

func printReport(r *report) {
	line, err := json.Marshal(r)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	fmt.Println(string(line))
}

// median of xs (0 for none). xs is not modified.
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	if len(s)%2 == 1 {
		return s[len(s)/2]
	}
	return (s[len(s)/2-1] + s[len(s)/2]) / 2
}

func seconds(d time.Duration) float64 { return d.Seconds() }
func millis(d time.Duration) float64  { return float64(d.Nanoseconds()) / 1e6 }
