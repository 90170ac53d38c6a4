// Command pinstudy runs the complete reproduction of "A Comparative
// Analysis of Certificate Pinning in Android & iOS" (IMC '22) and prints
// every table and figure of the paper's evaluation.
//
// Usage:
//
//	pinstudy [-scale mini|paper] [-seed N] [-section table3] [-sweep] [-ablate]
//	         [-faults 0.1] [-retries 2] [-chaos]
//	         [-journal run.wal] [-kill-after N] [-kill-torn K]
//	         [-shards N] [-shard-kill 1@3,2@0] [-merge]
//	         [-shard-listen host:port] [-shard-connect host:port] [-shard-scope label]
//	         [-timeline] [-points tag,tag,...] [-kill-at-point tag]
//	         [-coldcrypto] [-cpuprofile cpu.prof] [-memprofile mem.prof]
//
// The default paper scale studies ≈5,000 unique apps and takes a couple of
// minutes; -scale mini runs a few hundred apps in seconds.
//
// With -journal the study is crash-only: results stream into a
// write-ahead journal, and rerunning the same command over a killed run's
// journal resumes it (-kill-after injects such a kill for testing).
//
// With -shards N the study runs as N crash-only slices under lease-based
// coordination, journaling into the -journal directory (one WAL per slice);
// -shard-kill injects deterministic worker deaths, and rerunning the same
// command resumes an interrupted run from the journals. -merge folds the
// completed slice journals into the exported dataset (-export, or stdout),
// byte-identical to an unsharded same-seed run's export.
//
// With -shard-listen the sharded run goes cross-machine: this process is
// the coordinator, serving the run over message-framed TCP, and any number
// of `pinstudy -shard-connect host:port` workers (started before, after,
// or restarted mid-run) dial in, receive the run configuration over the
// wire, and stream slice results back under the same lease protocol. The
// journals land on the coordinator's disk; merge as usual with -merge.
//
// With -timeline the study runs longitudinally: the same app universe is
// replayed across root-program releases and distrust events (-points picks
// the timeline points) and the time-axis report is printed. -journal names
// a directory holding one WAL per point; a killed sweep (-kill-after with
// -kill-at-point choosing where the cut lands) resumes by rerunning the
// same command without the kill flags. -export writes one snapshot per
// point as <export>-<tag>.json.
package main

import (
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"runtime/pprof"
	"strings"
	"time"

	"pinscope"
	"pinscope/internal/atomicio"
)

func main() {
	scale := flag.String("scale", "paper", "study scale: mini, paper, or 100k")
	seed := flag.Int64("seed", 0, "world seed (0 = default)")
	section := flag.String("section", "", "render a single section (e.g. table3, figure5); empty = all")
	sweep := flag.Bool("sweep", false, "also run the sleep-window sweep (§4.2.1)")
	ablate := flag.Bool("ablate", false, "also run the methodology ablations")
	export := flag.String("export", "", "write the study dataset as JSON to this file")
	workers := flag.Int("workers", 0, "parallel workers (0 = GOMAXPROCS)")
	faults := flag.Float64("faults", 0, "fault-injection rate in [0,1] (0 = clean run)")
	retries := flag.Int("retries", 0, "per-app retry budget under faults (0 = default)")
	chaos := flag.Bool("chaos", false, "also run the chaos sweep (full study per fault rate)")
	jpath := flag.String("journal", "", "write-ahead journal path: stream results durably as they complete; an existing journal is resumed")
	killAfter := flag.Int("kill-after", 0, "fault injection: die after N journaled results (requires -journal)")
	killTorn := flag.Int("kill-torn", 0, "fault injection: bytes of the interrupted frame left on disk (with -kill-after); no effect on -shard-kill deaths, which tear only a TCP wire frame")
	shards := flag.Int("shards", 0, "run the study as N crash-only slices; -journal names the shard directory")
	shardKill := flag.String("shard-kill", "", "fault injection: comma-separated slice@afterN worker deaths (requires -shards)")
	merge := flag.Bool("merge", false, "merge a completed sharded run's journals into the dataset (requires -shards)")
	shardListen := flag.String("shard-listen", "", "serve a cross-machine sharded run: listen on host:port for shard workers (requires -shards and -journal)")
	shardConnect := flag.String("shard-connect", "", "join a cross-machine sharded run as a worker: dial the coordinator at host:port")
	shardScope := flag.String("shard-scope", "", "worker label for -shard-connect backoff jitter (default hostname-pid)")
	timeline := flag.Bool("timeline", false, "run longitudinally across root-program releases and distrust events")
	points := flag.String("points", "", "timeline points for -timeline (comma-separated tags; empty = all)")
	killAtPoint := flag.String("kill-at-point", "", "arm -kill-after only at this timeline point (requires -timeline)")
	coldCrypto := flag.Bool("coldcrypto", false, "disable the shared crypto plane (uncached baseline for profiling)")
	cpuprofile := flag.String("cpuprofile", "", "write a CPU profile of the study run to this file")
	memprofile := flag.String("memprofile", "", "write a post-study heap profile to this file")
	flag.Parse()

	var cfg pinscope.Config
	switch *scale {
	case "paper":
		cfg = pinscope.PaperConfig()
	case "mini":
		cfg = pinscope.MiniConfig(1)
	case "100k":
		cfg = pinscope.Config100k(1)
	default:
		fmt.Fprintf(os.Stderr, "unknown -scale %q (want mini, paper, or 100k)\n", *scale)
		os.Exit(2)
	}
	if *seed != 0 {
		cfg.Seed = *seed
	}
	cfg.Workers = *workers
	if *faults < 0 || *faults > 1 {
		fmt.Fprintf(os.Stderr, "-faults %v outside [0,1]\n", *faults)
		os.Exit(2)
	}
	cfg.FaultRate = *faults
	cfg.Retries = *retries
	if *killAfter > 0 && *jpath == "" {
		fmt.Fprintln(os.Stderr, "pinstudy: -kill-after requires -journal")
		os.Exit(2)
	}
	cfg.KillAfter = *killAfter
	cfg.KillTorn = *killTorn
	cfg.ColdCrypto = *coldCrypto

	if *shardConnect != "" {
		runShardWorker(*shardConnect, *shardScope)
		return
	}
	if *shardListen != "" {
		runShardServe(cfg, *shards, *jpath, *workers, *shardListen)
		return
	}
	if *shards > 0 || *merge || *shardKill != "" {
		runSharded(cfg, *shards, *shardKill, *killTorn, *jpath, *export, *workers, *merge)
		return
	}
	if *timeline || *points != "" || *killAtPoint != "" {
		runTimeline(cfg, *timeline, *points, *killAtPoint, *jpath, *export)
		return
	}

	cfg.JournalPath = *jpath
	var cpuOut *atomicio.Writer
	if *cpuprofile != "" {
		w, err := atomicio.Create(*cpuprofile)
		if err != nil {
			fmt.Fprintf(os.Stderr, "pinstudy: cpuprofile: %v\n", err)
			os.Exit(1)
		}
		if err := pprof.StartCPUProfile(w); err != nil {
			fmt.Fprintf(os.Stderr, "pinstudy: cpuprofile: %v\n", err)
			os.Exit(1)
		}
		cpuOut = w
	}

	start := time.Now()
	fmt.Fprintf(os.Stderr, "pinstudy: building world and running study (%s scale, seed %d)...\n",
		*scale, cfg.Seed)
	study, err := pinscope.Run(cfg)
	if cpuOut != nil {
		// The profile covers exactly the study run; stop and persist it
		// before any error handling so failed runs still profile.
		pprof.StopCPUProfile()
		perr := cpuOut.Commit()
		cpuOut.Close()
		if perr != nil {
			fmt.Fprintf(os.Stderr, "pinstudy: cpuprofile: %v\n", perr)
			os.Exit(1)
		}
		fmt.Fprintf(os.Stderr, "pinstudy: CPU profile written to %s\n", *cpuprofile)
	}
	if *memprofile != "" {
		w, merr := atomicio.Create(*memprofile)
		if merr == nil {
			runtime.GC() // settle to reachable heap before snapshotting
			if merr = pprof.WriteHeapProfile(w); merr == nil {
				merr = w.Commit()
			}
			w.Close()
		}
		if merr != nil {
			fmt.Fprintf(os.Stderr, "pinstudy: memprofile: %v\n", merr)
			os.Exit(1)
		}
		fmt.Fprintf(os.Stderr, "pinstudy: heap profile written to %s\n", *memprofile)
	}
	if err != nil {
		fmt.Fprintf(os.Stderr, "pinstudy: %v\n", err)
		if pinscope.IsKilled(err) {
			fmt.Fprintf(os.Stderr, "pinstudy: journaled results survive in %s; rerun without the kill flags to resume\n", *jpath)
		}
		os.Exit(1)
	}
	if n := study.Resumed(); n > 0 {
		fmt.Fprintf(os.Stderr, "pinstudy: replayed %d journaled results\n", n)
	}
	fmt.Fprintf(os.Stderr, "pinstudy: study complete in %s\n\n", time.Since(start).Round(time.Millisecond))

	if *section != "" {
		out, err := study.Report(pinscope.Section(strings.ToLower(*section)))
		if err != nil {
			fmt.Fprintf(os.Stderr, "pinstudy: %v\navailable sections: %v\n", err, pinscope.Sections())
			os.Exit(2)
		}
		fmt.Println(out)
	} else {
		fmt.Println(study.FullReport())
	}

	if *sweep {
		out, err := study.SleepSweep([]float64{15, 30, 60}, sweepSample(*scale))
		if err != nil {
			fmt.Fprintf(os.Stderr, "pinstudy: sweep: %v\n", err)
			os.Exit(1)
		}
		fmt.Println(out)
	}
	if *ablate {
		out, err := study.Ablations(sweepSample(*scale))
		if err != nil {
			fmt.Fprintf(os.Stderr, "pinstudy: ablations: %v\n", err)
			os.Exit(1)
		}
		fmt.Println(out)
	}
	if *chaos {
		rates := []float64{0, 0.05, 0.1, 0.2}
		fmt.Fprintf(os.Stderr, "pinstudy: chaos sweep over rates %v (one full study each)...\n", rates)
		out, err := pinscope.ChaosReport(cfg, rates)
		if err != nil {
			fmt.Fprintf(os.Stderr, "pinstudy: chaos: %v\n", err)
			os.Exit(1)
		}
		fmt.Println(out)
	}
	if *export != "" {
		w, err := atomicio.Create(*export, atomicio.WithChecksum())
		if err != nil {
			fmt.Fprintf(os.Stderr, "pinstudy: export: %v\n", err)
			os.Exit(1)
		}
		if err := study.ExportDataset(w); err == nil {
			err = w.Commit()
		}
		w.Close()
		if err != nil {
			fmt.Fprintf(os.Stderr, "pinstudy: export: %v\n", err)
			os.Exit(1)
		}
		fmt.Fprintf(os.Stderr, "pinstudy: dataset written to %s\n", *export)
	}
}

func sweepSample(scale string) int {
	if scale == "paper" {
		return 400
	}
	return 60
}

// runTimeline handles the -timeline mode: the longitudinal sweep across
// root-program releases and distrust events, with per-point crash-only
// journals under -journal and one exported snapshot per point.
func runTimeline(cfg pinscope.Config, enabled bool, points, killAtPoint, dir, export string) {
	if !enabled {
		fmt.Fprintln(os.Stderr, "pinstudy: -points and -kill-at-point require -timeline")
		os.Exit(2)
	}
	var tags []string
	for _, t := range strings.Split(points, ",") {
		if t = strings.TrimSpace(t); t != "" {
			tags = append(tags, t)
		}
	}
	start := time.Now()
	fmt.Fprintf(os.Stderr, "pinstudy: longitudinal study (seed %d)...\n", cfg.Seed)
	ts, err := pinscope.RunTimeline(cfg, pinscope.TimelineOptions{
		Points: tags, Dir: dir, KillAtPoint: killAtPoint,
	})
	if err != nil {
		fmt.Fprintf(os.Stderr, "pinstudy: %v\n", err)
		if pinscope.IsKilled(err) {
			fmt.Fprintf(os.Stderr, "pinstudy: point journals survive in %s; rerun without the kill flags to resume\n", dir)
		}
		os.Exit(1)
	}
	if n := ts.Resumed(); n > 0 {
		fmt.Fprintf(os.Stderr, "pinstudy: replayed %d journaled results across points\n", n)
	}
	fmt.Fprintf(os.Stderr, "pinstudy: %d timeline points complete in %s\n\n",
		len(ts.Points()), time.Since(start).Round(time.Millisecond))
	fmt.Println(ts.Report())

	if export == "" {
		return
	}
	for _, tag := range ts.Points() {
		path := pointExportPath(export, tag)
		w, err := atomicio.Create(path, atomicio.WithChecksum())
		if err != nil {
			fmt.Fprintf(os.Stderr, "pinstudy: export: %v\n", err)
			os.Exit(1)
		}
		if err := ts.ExportPoint(w, tag); err == nil {
			err = w.Commit()
		}
		w.Close()
		if err != nil {
			fmt.Fprintf(os.Stderr, "pinstudy: export: %v\n", err)
			os.Exit(1)
		}
		fmt.Fprintf(os.Stderr, "pinstudy: point %s written to %s\n", tag, path)
	}
}

// pointExportPath splices a point tag into the export filename:
// study.json + kitkat -> study-kitkat.json.
func pointExportPath(base, tag string) string {
	ext := filepath.Ext(base)
	return strings.TrimSuffix(base, ext) + "-" + tag + ext
}

// runSharded handles the -shards / -shard-kill / -merge modes: the study as
// a fleet of crash-only slices, and the streaming merge of their journals.
func runSharded(cfg pinscope.Config, shards int, shardKill string, killTorn int,
	dir, export string, workers int, merge bool) {
	if shards <= 0 {
		fmt.Fprintln(os.Stderr, "pinstudy: -shard-kill and -merge require -shards")
		os.Exit(2)
	}
	if dir == "" {
		fmt.Fprintln(os.Stderr, "pinstudy: -shards requires -journal (the shard-journal directory)")
		os.Exit(2)
	}
	kills, err := parseShardKills(shardKill)
	if err != nil {
		fmt.Fprintf(os.Stderr, "pinstudy: %v\n", err)
		os.Exit(2)
	}
	opts := pinscope.ShardOptions{
		Shards: shards, Workers: workers, Dir: dir,
		Kills: kills, KillTorn: killTorn,
	}

	if merge {
		start := time.Now()
		var w *atomicio.Writer
		var out = os.Stdout
		if export != "" {
			w, err = atomicio.Create(export, atomicio.WithChecksum())
			if err != nil {
				fmt.Fprintf(os.Stderr, "pinstudy: merge: %v\n", err)
				os.Exit(1)
			}
			out = nil
		}
		if w != nil {
			err = pinscope.MergeShards(w, cfg, opts)
			if err == nil {
				err = w.Commit()
			}
			w.Close()
		} else {
			err = pinscope.MergeShards(out, cfg, opts)
		}
		if err != nil {
			fmt.Fprintf(os.Stderr, "pinstudy: merge: %v\n", err)
			os.Exit(1)
		}
		if export != "" {
			fmt.Fprintf(os.Stderr, "pinstudy: merged %d shard journals into %s in %s\n",
				shards, export, time.Since(start).Round(time.Millisecond))
		}
		return
	}

	start := time.Now()
	fmt.Fprintf(os.Stderr, "pinstudy: sharded study (seed %d): %d shards into %s...\n",
		cfg.Seed, shards, dir)
	stats, err := pinscope.RunSharded(cfg, opts)
	if stats != nil {
		fmt.Fprintf(os.Stderr, "pinstudy: %d workers / %d shards: %d killed, %d leases expired, %d slices reassigned, %d results resumed from journals\n",
			stats.Workers, stats.Shards, stats.WorkersKilled, stats.LeasesExpired, stats.Reassigned, stats.ResumedFrames)
	}
	if err != nil {
		fmt.Fprintf(os.Stderr, "pinstudy: %v\n", err)
		fmt.Fprintf(os.Stderr, "pinstudy: shard journals survive in %s; rerun without -shard-kill to resume\n", dir)
		os.Exit(1)
	}
	fmt.Fprintf(os.Stderr, "pinstudy: sharded run complete in %s; merge with -shards %d -merge\n",
		time.Since(start).Round(time.Millisecond), shards)
}

// runShardServe handles -shard-listen: the coordinator half of a
// cross-machine sharded run. Workers join with -shard-connect; the run
// resumes from the journals if interrupted, and -merge folds the result.
func runShardServe(cfg pinscope.Config, shards int, dir string, workers int, addr string) {
	if shards <= 0 {
		fmt.Fprintln(os.Stderr, "pinstudy: -shard-listen requires -shards")
		os.Exit(2)
	}
	if dir == "" {
		fmt.Fprintln(os.Stderr, "pinstudy: -shard-listen requires -journal (the shard-journal directory)")
		os.Exit(2)
	}
	start := time.Now()
	fmt.Fprintf(os.Stderr, "pinstudy: serving sharded study (seed %d): %d shards on %s, journals in %s...\n",
		cfg.Seed, shards, addr, dir)
	stats, err := pinscope.ServeShards(cfg, pinscope.ShardOptions{
		Shards: shards, Workers: workers, Dir: dir,
	}, addr)
	if stats != nil {
		fmt.Fprintf(os.Stderr, "pinstudy: %d worker conns / %d shards: %d leases expired, %d slices reassigned, %d results resumed, %d duplicates dropped, %d zombie frames fenced\n",
			stats.Workers, stats.Shards, stats.LeasesExpired, stats.Reassigned,
			stats.ResumedFrames, stats.Duplicates, stats.Fenced)
	}
	if err != nil {
		fmt.Fprintf(os.Stderr, "pinstudy: %v\n", err)
		fmt.Fprintf(os.Stderr, "pinstudy: shard journals survive in %s; rerun the same command to resume\n", dir)
		os.Exit(1)
	}
	fmt.Fprintf(os.Stderr, "pinstudy: sharded serve complete in %s; merge with -shards %d -journal %s -merge\n",
		time.Since(start).Round(time.Millisecond), shards, dir)
}

// runShardWorker handles -shard-connect: the worker half of a
// cross-machine sharded run. The run's configuration ships over the wire,
// so the worker needs no flags beyond the coordinator's address.
func runShardWorker(addr, scope string) {
	if scope == "" {
		// The scope is the worker's operator-facing name in coordinator
		// logs and its backoff-jitter decorrelation label — it must differ
		// per machine and per process, which is exactly what host-ambient
		// identity provides. It never feeds study results: every exported
		// byte is a pure function of the run config the coordinator ships.
		host, err := os.Hostname() //pinlint:allow detrandonly worker identity label, never reaches study output
		if err != nil || host == "" {
			host = "worker"
		}
		scope = fmt.Sprintf("%s-%d", host, os.Getpid()) //pinlint:allow detrandonly worker identity label, never reaches study output
	}
	fmt.Fprintf(os.Stderr, "pinstudy: shard worker %s dialing %s...\n", scope, addr)
	if err := pinscope.ConnectShardWorker(addr, scope); err != nil {
		fmt.Fprintf(os.Stderr, "pinstudy: shard worker: %v\n", err)
		os.Exit(1)
	}
	fmt.Fprintln(os.Stderr, "pinstudy: shard worker done: coordinator reports the run complete")
}

// parseShardKills parses "slice@afterN[,slice@afterN...]".
func parseShardKills(s string) ([]pinscope.ShardKill, error) {
	if s == "" {
		return nil, nil
	}
	var out []pinscope.ShardKill
	for _, part := range strings.Split(s, ",") {
		var slice, after int
		if _, err := fmt.Sscanf(part, "%d@%d", &slice, &after); err != nil {
			return nil, fmt.Errorf("bad -shard-kill part %q (want slice@afterN)", part)
		}
		out = append(out, pinscope.ShardKill{Slice: slice, AfterResults: after})
	}
	return out, nil
}
