package core

import (
	"bytes"
	"encoding/json"
	"strings"
	"testing"

	"pinscope/internal/faultinject"
	"pinscope/internal/shardnet"
	"pinscope/internal/worldgen"
)

// netShardedExport runs cfg through run (RunSharded or RunShardedTCP) and
// merges the journals.
func netShardedExport(t *testing.T, run func(Config, ShardedConfig) (*shardnet.Stats, error),
	cfg Config, sc ShardedConfig) ([]byte, *shardnet.Stats) {
	t.Helper()
	stats, err := run(cfg, sc)
	if err != nil {
		t.Fatalf("transported sharded run: %v (stats %+v)", err, stats)
	}
	var buf bytes.Buffer
	if err := MergeShards(&buf, cfg, sc); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes(), stats
}

func TestShardNetSimMergesByteIdentical(t *testing.T) {
	// The tentpole acceptance shape: a transported sharded run under a
	// seeded sweep of every network fault kind — a delayed frame, a
	// dropped frame (severed conn), duplicate delivery, a partition long
	// enough to expire a lease, plus a mid-stream worker death — must
	// merge into the exact bytes an unsharded same-seed run exports.
	cfg := microCfg(29)
	single := exportBytes(t, runCfg(t, cfg))

	shardedCfg := cfg
	shardedCfg.Workers = 0 // transported runs own their worker fleet
	sc := ShardedConfig{
		Shards:  4,
		Workers: 3,
		Dir:     t.TempDir(),
		Faults: &faultinject.ShardPlan{
			Kills: []faultinject.ShardKill{{Slice: 2, AfterResults: 1, TornBytes: 7}},
			Net: &faultinject.NetChaos{
				Delays:     []faultinject.NetDelay{{Slice: 0, Item: 1, Ticks: faultinject.NetTTL / 2}},
				Drops:      []faultinject.NetDrop{{Slice: 1, Item: 1}},
				Dups:       []faultinject.NetDup{{Slice: 2, Item: 0}},
				Partitions: []faultinject.NetPartition{{Slice: 3, AfterItem: 0, Ticks: 3 * faultinject.NetTTL / 2}},
			},
		},
	}
	merged, stats := netShardedExport(t, RunSharded, shardedCfg, sc)
	if !bytes.Equal(merged, single) {
		t.Fatalf("transported sharded merge diverges from single-process export (%d vs %d bytes)",
			len(merged), len(single))
	}

	// The faults must actually have fired, or the equivalence proved
	// nothing.
	if stats.WorkersKilled != 1 {
		t.Fatalf("WorkersKilled = %d, want 1", stats.WorkersKilled)
	}
	if stats.Duplicates < 1 {
		t.Fatalf("Duplicates = %d, want >= 1 (injected duplicate never arrived twice)", stats.Duplicates)
	}
	if stats.ConnDrops < 2 { // the dropped frame severs one conn, the kill another
		t.Fatalf("ConnDrops = %d, want >= 2", stats.ConnDrops)
	}
	if stats.Expired < 1 { // the partition must outlive a lease TTL
		t.Fatalf("Expired = %d, want >= 1 (partition never expired a lease)", stats.Expired)
	}
	if stats.Reassigned < 1 {
		t.Fatalf("Reassigned = %d, want >= 1", stats.Reassigned)
	}
}

func TestShardNetTCPMergesByteIdentical(t *testing.T) {
	// Same equivalence over real loopback TCP: every frame crosses a
	// socket, a killed worker leaves a torn wire frame the receiver's
	// framing must reject, and the merge still matches the single-process
	// bytes.
	cfg := microCfg(71)
	single := exportBytes(t, runCfg(t, cfg))

	shardedCfg := cfg
	shardedCfg.Workers = 0
	sc := ShardedConfig{
		Shards:  2,
		Workers: 2,
		Dir:     t.TempDir(),
		Faults: &faultinject.ShardPlan{
			Kills: []faultinject.ShardKill{{Slice: 1, AfterResults: 1, TornBytes: 5}},
		},
	}
	merged, stats := netShardedExport(t, RunShardedTCP, shardedCfg, sc)
	if !bytes.Equal(merged, single) {
		t.Fatalf("TCP sharded merge diverges from single-process export (%d vs %d bytes)",
			len(merged), len(single))
	}
	if stats.WorkersKilled != 1 {
		t.Fatalf("WorkersKilled = %d, want 1", stats.WorkersKilled)
	}
	if stats.Slices != 2 || stats.Granted < 2 {
		t.Fatalf("stats %+v: want 2 slices and >= 2 grants", stats)
	}
}

func TestShardNetRerunResumesAfterFleetDeath(t *testing.T) {
	// One worker, one kill: the whole fleet dies with work outstanding
	// and the coordinator must fail loudly rather than wait forever. A
	// rerun over the same directory resumes from the journals — the
	// frames admitted before the death are never recomputed — and the
	// merge still matches the unsharded export.
	cfg := microCfg(41)
	single := exportBytes(t, runCfg(t, cfg))

	shardedCfg := cfg
	shardedCfg.Workers = 0
	dir := t.TempDir()
	sc := ShardedConfig{Shards: 3, Workers: 1, Dir: dir,
		Faults: &faultinject.ShardPlan{Kills: []faultinject.ShardKill{{Slice: 0, AfterResults: 2}}}}
	if _, err := RunSharded(shardedCfg, sc); err == nil {
		t.Fatal("run with its only worker killed reported success")
	} else if !strings.Contains(err.Error(), "all workers disconnected") {
		t.Fatalf("fleet-death error = %v, want all-workers-disconnected", err)
	}

	// Merging a half-finished run must fail loudly, not emit partial data.
	if err := MergeShards(&bytes.Buffer{}, shardedCfg, ShardedConfig{Shards: 3, Dir: dir}); err == nil ||
		!strings.Contains(err.Error(), "incomplete run") {
		t.Fatalf("merge of interrupted run: %v, want incomplete-run error", err)
	}

	rerun := ShardedConfig{Shards: 3, Workers: 1, Dir: dir}
	merged, stats := netShardedExport(t, RunSharded, shardedCfg, rerun)
	if stats.ResumedFrames < 2 {
		t.Fatalf("rerun ResumedFrames = %d, want >= 2", stats.ResumedFrames)
	}
	if !bytes.Equal(merged, single) {
		t.Fatal("resumed transported merge diverges from single-process export")
	}
}

func TestShardNetDerivedPlanMergesByteIdentical(t *testing.T) {
	// Same equivalence under the derived (seeded) fault plan with its
	// network family — the path the chaos sweep's network drill exercises.
	cfg := microCfg(57)
	single := exportBytes(t, runCfg(t, cfg))

	shardedCfg := cfg
	shardedCfg.Workers = 0
	w, err := worldgen.Build(cfg.Params)
	if err != nil {
		t.Fatal(err)
	}
	plan := faultinject.DeriveShardPlan(cfg.Params.Seed, 1.0, 4, sliceItems(sliceRanges(len(shardUniverse(w)), 4)))
	if plan == nil || !plan.Net.Any() {
		t.Fatalf("derived plan injected no network chaos: %+v", plan)
	}
	sc := ShardedConfig{Shards: 4, Workers: 4, Dir: t.TempDir(), Faults: plan}
	merged, _ := netShardedExport(t, RunSharded, shardedCfg, sc)
	if !bytes.Equal(merged, single) {
		t.Fatalf("derived-plan transported merge diverges (%d vs %d bytes)", len(merged), len(single))
	}
}

func TestRemoteBenchAgreesWithLocalFleet(t *testing.T) {
	// A remote worker builds its own world from the Welcome payload; an
	// in-process worker uses the coordinator's. Both must journal the same
	// merge-visible content for every item, and the in-process fleet must
	// refuse a Welcome naming another run.
	cfg := microCfg(69)
	cfg.Workers = 0
	nr, err := netRunSetup(cfg, ShardedConfig{Shards: 2, Dir: t.TempDir()}, nil)
	if err != nil {
		t.Fatal(err)
	}
	newBench, err := nr.localFleet()
	if err != nil {
		t.Fatal(err)
	}
	local, err := newBench(nr.rc)
	if err != nil {
		t.Fatal(err)
	}
	before := worldgen.Builds()
	remote, err := benchFromRunConfig(nr.rc)
	if err != nil {
		t.Fatal(err)
	}
	if n := worldgen.Builds() - before; n != 1 {
		t.Fatalf("remote bench built %d worlds, want 1", n)
	}
	visible := func(data []byte) string {
		rec, res, err := decodeShardRecord(data)
		if err != nil {
			t.Fatal(err)
		}
		b, err := json.Marshal(struct {
			App    ExportedApp
			Probes []ExportedProbe
		}{exportApp(res, rec.Datasets), rec.Probes})
		if err != nil {
			t.Fatal(err)
		}
		return string(b)
	}
	for slice, rg := range sliceRanges(len(studyWork(nr.w)), 2) {
		for item := 0; item < rg[1]; item++ {
			l, err := local.RunItem(slice, item)
			if err != nil {
				t.Fatal(err)
			}
			r, err := remote.RunItem(slice, item)
			if err != nil {
				t.Fatal(err)
			}
			if visible(l) != visible(r) {
				t.Fatalf("slice %d item %d: remote record diverges from the local fleet's:\n%s\n%s", slice, item, visible(r), visible(l))
			}
		}
	}

	other := microCfg(70)
	other.Window = 30
	rc, err := encodeNetRunConfig(other, 2)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := newBench(rc); err == nil || !strings.Contains(err.Error(), "different run") {
		t.Fatalf("local fleet given another run's Welcome: %v, want a different-run error", err)
	}
}
