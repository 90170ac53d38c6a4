package core

// sharded.go runs the study as a fleet of crash-only shards. The app
// universe — the same deduped work list a single-process run uses,
// re-sorted into export order — is cut into contiguous slices;
// internal/shardnet's coordinator hands the slices to workers under
// crash-tolerant leases and journals each slice through the same WAL the
// single-process runner uses. RunSharded runs the fleet in this process,
// over shardnet's simulated network: frames pass in memory, and a fault
// plan can batter them. The fleet builds its world once: every in-process
// worker measures against that one world and one crypto plane, adding
// only its private lab and prober.
//
// Each slice journal record is self-contained. Besides the measured
// result it carries the app's export header, its dataset membership and
// the exported probe of every destination it reports pinned, and it is a
// pure function of (run config, app) — so the journals' contents are
// independent of scheduling, takeovers and kills, and MergeShards
// (merge.go) folds them into an export byte-identical to an unsharded
// same-seed run without ever building the world.

import (
	"encoding/json"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"strconv"

	"pinscope/internal/faultinject"
	"pinscope/internal/shardnet"
	"pinscope/internal/worldgen"
)

// ShardedConfig parameterizes a sharded run of a study Config.
type ShardedConfig struct {
	// Shards is the slice count; Workers (0 = one per shard) the worker
	// pool measuring them.
	Shards  int
	Workers int
	// Dir holds the slice journals (shard-NNN.wal), created if missing.
	// Rerunning over an interrupted run's directory resumes from the
	// journals instead of recomputing.
	Dir string
	// Faults is the deterministic shard fault plan: worker kills, and for
	// RunSharded the simulated network's faults. Nil injects nothing;
	// faultinject.DeriveShardPlan seeds one from (seed, rate, slice sizes).
	Faults *faultinject.ShardPlan
}

// shardMeta is a slice journal's header: the full run configuration plus
// the slice's coordinates. Takeover and merge verify it byte-for-byte, so
// a journal can never be resumed into — or merged with — a different run,
// shard layout, or slice position.
type shardMeta struct {
	Run    journalMeta `json:"run"`
	Slice  int         `json:"slice"`
	Slices int         `json:"slices"`
	Start  int         `json:"start"`
	Count  int         `json:"count"`
}

func shardPath(dir string, slice int) string {
	return filepath.Join(dir, fmt.Sprintf("shard-%03d.wal", slice))
}

// shardUniverse is the canonical sharded work order: the study work list
// sorted by result key — the order Export emits apps in. Concatenating
// slice journals in slice order therefore streams apps in final export
// order with no buffering or re-sorting.
func shardUniverse(w *worldgen.World) []workItem {
	uni := studyWork(w)
	sort.Slice(uni, func(i, j int) bool { return uni[i].key() < uni[j].key() })
	return uni
}

// sliceRanges cuts n items into contiguous {start, count} ranges.
func sliceRanges(n, shards int) [][2]int {
	out := make([][2]int, shards)
	start := 0
	for i := range out {
		count := n / shards
		if i < n%shards {
			count++
		}
		out[i] = [2]int{start, count}
		start += count
	}
	return out
}

// sliceItems lists the item count of each range — the slice sizes the
// seeded shard fault plans are derived from.
func sliceItems(ranges [][2]int) []int {
	items := make([]int, len(ranges))
	for i, rg := range ranges {
		items[i] = rg[1]
	}
	return items
}

// shardSlices renders the coordinator's slice list for (cfg, sc, ranges).
func shardSlices(cfg Config, sc ShardedConfig, ranges [][2]int) ([]shardnet.Slice, error) {
	slices := make([]shardnet.Slice, 0, len(ranges))
	for i, rg := range ranges {
		meta, err := json.Marshal(shardMeta{
			Run: metaFor(cfg), Slice: i, Slices: len(ranges), Start: rg[0], Count: rg[1],
		})
		if err != nil {
			return nil, err
		}
		slices = append(slices, shardnet.Slice{Path: shardPath(sc.Dir, i), Meta: meta, Items: rg[1]})
	}
	return slices, nil
}

// prepareShardRun checks a sharded run's arguments and creates its
// journal directory; every sharded entry point calls it before any world
// is built.
func prepareShardRun(sc ShardedConfig) error {
	if sc.Shards <= 0 {
		return errors.New("core: sharded run needs at least one shard")
	}
	if sc.Dir == "" {
		return errors.New("core: sharded run needs a journal directory")
	}
	if err := os.MkdirAll(sc.Dir, 0o755); err != nil {
		return fmt.Errorf("core: shard dir: %w", err)
	}
	return nil
}

// shardFleet is what every worker of one sharded run in this process
// shares: the world, its canonical work order cut into slices, the dataset
// membership index and (unless ColdCrypto) one crypto plane — the same
// sharing RunOnWorld does across its workers.
type shardFleet struct {
	cfg        Config
	w          *worldgen.World
	uni        []workItem
	ranges     [][2]int
	membership map[string][]string
	plane      *cryptoPlane
}

func newShardFleet(cfg Config, w *worldgen.World, shards int) (*shardFleet, error) {
	plane, err := newCryptoPlane(cfg, w)
	if err != nil {
		return nil, err
	}
	uni := shardUniverse(w)
	return &shardFleet{
		cfg: cfg, w: w, uni: uni,
		ranges:     sliceRanges(len(uni), shards),
		membership: datasetMembership(w),
		plane:      plane,
	}, nil
}

// newBench builds one worker's private lab and prober over the fleet's
// shared world and plane.
func (f *shardFleet) newBench() (*shardBench, error) {
	lab, err := newLab(f.cfg, f.w, f.plane)
	if err != nil {
		return nil, err
	}
	return &shardBench{fleet: f, lab: lab, prober: newProber(f.cfg, f.w), probed: map[string]ExportedProbe{}}, nil
}

// shardBench adapts one worker's lab to shardnet.Bench. Benches are
// single-goroutine: each worker owns one.
type shardBench struct {
	fleet  *shardFleet
	lab    *lab
	prober *prober
	// probed memoizes this worker's probes by destination. It saves probe
	// work only: every record still carries each probe it reports.
	probed map[string]ExportedProbe
}

func (b *shardBench) RunItem(slice, item int) ([]byte, error) {
	it := b.fleet.uni[b.fleet.ranges[slice][0]+item]
	res := b.lab.studyAppResilient(it.app, it.common)
	dests := res.Dyn.PinnedDests()
	probes := make([]ExportedProbe, 0, len(dests))
	for _, d := range dests {
		ep, ok := b.probed[d]
		if !ok {
			ep = exportProbe(b.prober.probe(d))
			b.probed[d] = ep
		}
		probes = append(probes, ep)
	}
	return encodeShardRecord(it.key(), res, b.fleet.membership[it.key()], probes)
}

// RunSharded executes the study as sc.Shards crash-only slices under the
// lease coordinator, with an in-process worker fleet on shardnet's
// simulated network, leaving one complete journal per slice in sc.Dir.
// The plan's network faults (sc.Faults.Net) batter the simulated wire;
// its kills become mid-stream worker deaths. It does not build a Study:
// the deliverable of a sharded run is its journals, folded into an export
// by MergeShards. If the run is killed (injected or real), rerunning with
// the same arguments resumes every slice from its journal.
func RunSharded(cfg Config, sc ShardedConfig) (*shardnet.Stats, error) {
	return runShardedOn(cfg, sc, nil)
}

// runShardedOn is RunSharded against an existing world (nil builds one
// once the arguments check out). The world is only read, so a caller may
// share it — the chaos drill reruns a point on the point's own world.
func runShardedOn(cfg Config, sc ShardedConfig, w *worldgen.World) (*shardnet.Stats, error) {
	nr, err := netRunSetup(cfg, sc, w)
	if err != nil {
		return nil, err
	}
	newBench, err := nr.localFleet()
	if err != nil {
		return nil, err
	}
	net := shardnet.NewSimNet(sc.Faults.NetFaults())
	coord, err := shardnet.NewCoordinator(shardnet.Config{
		Listener:    net.Listener(),
		Clock:       net,
		Slices:      nr.slices,
		RunConfig:   nr.rc,
		BackoffSeed: cfg.Params.Seed,
	})
	if err != nil {
		return nil, err
	}
	kill := sc.Faults.KillTap()
	return shardnet.RunFleet(coord, fleetSize(sc), func(i int) error {
		return shardnet.RunWorker(net.Dialer(), shardnet.WorkerOptions{
			Clock:       net,
			NewBench:    newBench,
			Reconnects:  16,
			BackoffSeed: cfg.Params.Seed,
			Scope:       "sim/" + strconv.Itoa(i),
			KillTap:     kill,
		})
	})
}

// fleetSize is the worker count of an in-process fleet.
func fleetSize(sc ShardedConfig) int {
	if sc.Workers > 0 {
		return sc.Workers
	}
	return sc.Shards
}
