package main

// shard.go is the shard and shard-tcp workloads: pinscope.PaperConfig()
// through the public RunSharded (in-process leases) or RunShardedTCP (real
// loopback TCP), four slices, two workers, one injected worker death
// partway through a slice, then MergeShards into a file. The set-up is the
// CPU time from the run call until the first slice journal exists (world
// build plus the first worker's bench); the measured interval is the rest
// of the run call; the merge is the publish step.

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math/rand"
	"os"
	"path/filepath"
	"runtime"
	"time"

	"pinscope"
	"pinscope/internal/core"
	"pinscope/internal/journal"
	"pinscope/internal/worldgen"
)

// shardOptions derives the run shape and its kill plan from the seed. The
// death lands late in one of the two slices leased in the second round,
// between items 1,150 and 1,190 of its ~1,255: the survivor finishes its
// own slice, takes the dead holder's lease over and resumes the torn
// journal. A death at the same late point of every run keeps the
// single-worker tail short and the same for every seed, so it does not
// swamp the throughput.
func shardOptions(seed int64, dir string) pinscope.ShardOptions {
	rng := rand.New(rand.NewSource(seed))
	return pinscope.ShardOptions{
		Shards:   shards,
		Workers:  workers,
		Dir:      dir,
		Kills:    []pinscope.ShardKill{{Slice: 2 + rng.Intn(2), AfterResults: 1150 + rng.Intn(41)}},
		KillTorn: 1 + rng.Intn(24),
	}
}

func runSharded(opts pinscope.ShardOptions, tcp bool) (*pinscope.NetShardStats, error) {
	cfg := pinscope.PaperConfig()
	if tcp {
		return pinscope.RunShardedTCP(cfg, opts)
	}
	st, err := pinscope.RunSharded(cfg, opts)
	if st == nil {
		return nil, err
	}
	return &pinscope.NetShardStats{ShardStats: *st}, err
}

func shardPath(dir string, slice int) string {
	return filepath.Join(dir, fmt.Sprintf("shard-%03d.wal", slice))
}

// journalWatch reports when the first slice journal appears on disk, and
// the process's CPU time then.
type journalWatch struct {
	first chan journalSeen
	done  chan struct{}
}

type journalSeen struct {
	at  time.Time
	cpu time.Duration
}

func watchJournals(dir string) *journalWatch {
	jw := &journalWatch{first: make(chan journalSeen, 1), done: make(chan struct{})}
	go func() {
		tick := time.NewTicker(time.Millisecond)
		defer tick.Stop()
		for {
			for i := 0; i < shards; i++ {
				if _, err := os.Stat(shardPath(dir, i)); err == nil {
					jw.first <- journalSeen{time.Now(), cpuTime()}
					return
				}
			}
			select {
			case <-jw.done:
				return
			case <-tick.C:
			}
		}
	}()
	return jw
}

// wait returns when the first journal appeared, waiting at most limit.
func (jw *journalWatch) wait(limit time.Duration) (journalSeen, error) {
	defer close(jw.done)
	select {
	case seen := <-jw.first:
		return seen, nil
	case <-time.After(limit):
		return journalSeen{}, errors.New("no slice journal appeared")
	}
}

// setupShard times the set-up of a sharded run in a fresh process: it
// starts the run, waits for the first slice journal and returns; the
// process then exits with the run still going.
func setupShard(o options, tcp bool) (*report, error) {
	opts := shardOptions(o.seed, filepath.Join(o.dir, "wal"))
	jw := watchJournals(opts.Dir)
	c0 := cpuTime()
	go runSharded(opts, tcp) //nolint:errcheck // abandoned at exit by design
	seen, err := jw.wait(150 * time.Second)
	if err != nil {
		return nil, err
	}
	return &report{SetupS: []float64{seconds(seen.cpu - c0)}}, nil
}

// shardRun is what a sharded pass leaves for its traced variant.
type shardRun struct {
	stats      *pinscope.NetShardStats
	world      *worldgen.World
	export     *core.ExportedDataset
	run        time.Duration
	mergeMS    float64 // median MergeShards call
	allocBytes uint64
	gcFraction float64
	wal        walScan
}

func runShard(o options, tcp bool) (*report, error) {
	r, _, err := shard(o, tcp)
	return r, err
}

func shard(o options, tcp bool) (*report, *shardRun, error) {
	opts := shardOptions(o.seed, filepath.Join(o.dir, "wal"))
	jw := watchJournals(opts.Dir)
	var ms0, ms1 runtime.MemStats
	runtime.ReadMemStats(&ms0)
	start, c0 := time.Now(), cpuTime()
	stats, err := runSharded(opts, tcp)
	if err != nil {
		return nil, nil, err
	}
	run, cpu := time.Since(start), cpuTime()
	runtime.ReadMemStats(&ms1)
	seen, err := jw.wait(time.Second)
	if err != nil {
		return nil, nil, err
	}
	setup := seen.at.Sub(start)
	// The merge is timed mergeSamples times, each started on a collected
	// heap; every merge reads the same journals and writes the same bytes.
	out := filepath.Join(o.dir, "merged.json")
	var merges []float64
	for i := 0; i < mergeSamples; i++ {
		runtime.GC()
		t1 := time.Now()
		err = writeFile(out, func(w io.Writer) error { return pinscope.MergeShards(w, pinscope.PaperConfig(), opts) })
		if err != nil {
			return nil, nil, err
		}
		merges = append(merges, millis(time.Since(t1)))
	}
	// Set-up is reported on its own, so the throughput interval starts
	// when the first slice journal exists.
	r := &report{
		SetupS:    []float64{seconds(seen.cpu - c0)},
		IntervalS: seconds(run - setup),
		CPUS:      seconds(cpu - seen.cpu),
		PublishMS: merges,
		PeakRSSMB: peakRSSMB(),
	}

	fmt.Fprintf(os.Stderr, "perfbench: %s: kill %+v torn %d: %+v\n", o.workload, opts.Kills, opts.KillTorn, *stats)
	if stats.WorkersKilled != 1 || stats.Reassigned == 0 {
		r.problem("the kill plan %+v killed %d workers and reassigned %d slices, want 1 and at least 1",
			opts.Kills, stats.WorkersKilled, stats.Reassigned)
	}
	// In-process, the survivor reopens the torn journal itself; over TCP
	// the coordinator owns the journals and the torn frame is on the wire.
	if !tcp && stats.ResumedFrames == 0 {
		r.problem("the survivor resumed no frames from the dead worker's journal")
	}
	if tcp && stats.ConnDrops == 0 {
		r.problem("the coordinator saw no connection drop for the dead worker")
	}
	got, err := os.ReadFile(out)
	if err != nil {
		return nil, nil, err
	}
	checkReference(got, "the merged shard export", r)
	ds, err := core.ReadJSON(bytes.NewReader(got))
	if err != nil {
		return nil, nil, err
	}
	w, err := worldgen.Build(paperCoreConfig().Params)
	if err != nil {
		return nil, nil, err
	}
	t := newTruth(w)
	missing := t.check(ds, r)
	wal, err := scanJournals(opts.Dir)
	if err != nil {
		return nil, nil, err
	}
	if wal.frames != len(t.keys) {
		r.problem("slice journals hold %d results, want %d", wal.frames, len(t.keys))
	}
	r.Ops = int64(len(ds.Apps))
	r.Attempted = int64(len(t.keys))
	r.Failed = missing + int64(wal.quarantined)
	return r, &shardRun{
		stats: stats, world: w, export: ds,
		run: run, mergeMS: median(merges), wal: wal,
		allocBytes: ms1.TotalAlloc - ms0.TotalAlloc, gcFraction: ms1.GCCPUFraction,
	}, nil
}

// walScan is a read-back of a run's slice journals.
type walScan struct {
	frames, quarantined int
	bytes               int64
	read                time.Duration // OpenReader plus every Next
	payloads            [][]byte      // the first frames, for the append replay
}

// scanJournals reads every slice journal back through journal.OpenReader
// and Next, counting frames and the results the resilient runner
// quarantined.
func scanJournals(dir string) (walScan, error) {
	var ws walScan
	for i := 0; ; i++ {
		path := shardPath(dir, i)
		fi, err := os.Stat(path)
		if errors.Is(err, os.ErrNotExist) {
			return ws, nil
		} else if err != nil {
			return ws, err
		}
		ws.bytes += fi.Size()
		t0 := time.Now()
		rd, err := journal.OpenReader(path)
		if err != nil {
			return ws, err
		}
		var frames [][]byte
		for {
			data, err := rd.Next()
			if errors.Is(err, io.EOF) {
				break
			} else if err != nil {
				rd.Close()
				return ws, err
			}
			frames = append(frames, data)
		}
		rd.Close()
		ws.read += time.Since(t0)
		for _, data := range frames {
			var rec struct {
				Quarantined bool `json:"quarantined"`
			}
			if err := json.Unmarshal(data, &rec); err != nil {
				return ws, fmt.Errorf("%s: %w", path, err)
			}
			if rec.Quarantined {
				ws.quarantined++
			}
			if len(ws.payloads) < replayFrames {
				ws.payloads = append(ws.payloads, data)
			}
		}
		ws.frames += len(frames)
	}
}
