package core

import (
	"bytes"
	"encoding/json"
	"strings"
	"testing"

	"pinscope/internal/faultinject"
	"pinscope/internal/worldgen"
)

// streamBytes renders a completed study through the streaming exporter —
// the same head/app/tail path the shard merge uses — so tests can hold it
// against WriteJSON byte for byte.
func streamBytes(t *testing.T, s *Study) []byte {
	t.Helper()
	ds := s.Export()
	var buf bytes.Buffer
	se, err := NewStreamExporter(&buf, ds.Meta)
	if err != nil {
		t.Fatal(err)
	}
	for i := range ds.Apps {
		if err := se.App(&ds.Apps[i]); err != nil {
			t.Fatal(err)
		}
	}
	if err := se.Finish(ds.Destinations); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

func TestStreamExporterMatchesWriteJSON(t *testing.T) {
	s := runCfg(t, TestConfig(77))
	want := exportBytes(t, s)
	got := streamBytes(t, s)
	if !bytes.Equal(got, want) {
		t.Fatalf("streamed export diverges from WriteJSON (%d vs %d bytes)", len(got), len(want))
	}
}

func TestStreamExporterEmptyDocument(t *testing.T) {
	// The degenerate shapes — no apps, no probes — must reproduce
	// encoding/json's null rendering of nil slices exactly.
	meta := DatasetMeta{Seed: 1, Window: 30}
	var want bytes.Buffer
	enc := json.NewEncoder(&want)
	enc.SetIndent("", "  ")
	if err := enc.Encode(&ExportedDataset{Version: DatasetVersion, Meta: meta}); err != nil {
		t.Fatal(err)
	}
	var got bytes.Buffer
	se, err := NewStreamExporter(&got, meta)
	if err != nil {
		t.Fatal(err)
	}
	if err := se.Finish(nil); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got.Bytes(), want.Bytes()) {
		t.Fatalf("empty streamed doc diverges:\ngot:  %q\nwant: %q", got.Bytes(), want.Bytes())
	}
}

// shardedExport runs cfg as a sharded study and merges the journals.
func shardedExport(t *testing.T, cfg Config, sc ShardedConfig) []byte {
	t.Helper()
	stats, err := RunSharded(cfg, sc)
	if err != nil {
		t.Fatalf("sharded run: %v (stats %+v)", err, stats)
	}
	var buf bytes.Buffer
	if err := MergeShards(&buf, cfg, sc); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

func TestShardedRunMergesByteIdentical(t *testing.T) {
	// The acceptance shape: a sharded run with shard kills at two distinct
	// slice boundaries plus a partition that expires a live holder's lease
	// must merge into the exact bytes an unsharded same-seed run exports.
	cfg := microCfg(93)
	single := exportBytes(t, runCfg(t, cfg))

	shardedCfg := cfg
	shardedCfg.Workers = 0 // sharded runs own their worker pool
	sc := ShardedConfig{
		Shards:  4,
		Workers: 4,
		Dir:     t.TempDir(),
		Faults: faultinject.ShardPlan{
			{Slice: 1, Item: 1}: {Kill: true, TornBytes: 9},
			{Slice: 3, Item: 2}: {Kill: true, TornBytes: 3},
			{Slice: 2, Item: 1}: {Partition: 3 * faultinject.NetTTL / 2},
		},
	}
	merged := shardedExport(t, shardedCfg, sc)
	if !bytes.Equal(merged, single) {
		t.Fatalf("sharded merge diverges from single-process export (%d vs %d bytes)",
			len(merged), len(single))
	}

	// And the faults must actually have fired, or the test proved nothing.
	stats2, err := RunSharded(shardedCfg, ShardedConfig{
		Shards: 4, Workers: 4, Dir: t.TempDir(), Faults: sc.Faults,
	})
	if err != nil {
		t.Fatal(err)
	}
	if stats2.WorkersKilled != 2 {
		t.Fatalf("WorkersKilled = %d, want 2", stats2.WorkersKilled)
	}
	if stats2.ConnDrops < 2 { // each killed holder's connection must drop
		t.Fatalf("ConnDrops = %d, want >= 2", stats2.ConnDrops)
	}
	if stats2.Expired < 1 { // the partitioned holder's lease must expire
		t.Fatalf("Expired = %d, want >= 1", stats2.Expired)
	}
	if stats2.ResumedFrames < 3 {
		t.Fatalf("ResumedFrames = %d, want >= 3 (survivors must resume, not recompute)", stats2.ResumedFrames)
	}
}

func TestShardedDerivedPlanMergesByteIdentical(t *testing.T) {
	// Same equivalence under the derived (seeded) fault plan — the path
	// ChaosSweep and pinstudy -shard-kill exercise.
	cfg := microCfg(57)
	single := exportBytes(t, runCfg(t, cfg))

	shardedCfg := cfg
	shardedCfg.Workers = 0
	w, err := worldgen.Build(cfg.Params)
	if err != nil {
		t.Fatal(err)
	}
	ranges := sliceRanges(len(shardUniverse(w)), 4)
	items := make([]int, len(ranges))
	for i, rg := range ranges {
		items[i] = rg[1]
	}
	plan := faultinject.DeriveShardPlan(cfg.Params.Seed, 1.0, 4, items)
	kills := 0
	for _, ff := range plan {
		if ff.Kill {
			kills++
		}
	}
	if kills == 0 {
		t.Fatalf("derived plan killed no worker: %+v", plan)
	}
	sc := ShardedConfig{Shards: 4, Workers: 4, Dir: t.TempDir(), Faults: plan}
	merged := shardedExport(t, shardedCfg, sc)
	if !bytes.Equal(merged, single) {
		t.Fatalf("derived-plan sharded merge diverges (%d vs %d bytes)", len(merged), len(single))
	}
}

func TestShardedRerunResumesInterruptedRun(t *testing.T) {
	// One worker, one kill: the run dies with work outstanding. A rerun
	// over the same directory resumes from the journals and the merge
	// still matches the unsharded export.
	cfg := microCfg(41)
	single := exportBytes(t, runCfg(t, cfg))

	shardedCfg := cfg
	shardedCfg.Workers = 0
	dir := t.TempDir()
	sc := ShardedConfig{Shards: 3, Workers: 1, Dir: dir,
		Faults: faultinject.ShardPlan{{Slice: 0, Item: 2}: {Kill: true, TornBytes: 5}}}
	if _, err := RunSharded(shardedCfg, sc); err == nil {
		t.Fatal("run with its only worker killed reported success")
	}

	// Merging a half-finished run must fail loudly, not emit partial data.
	if err := MergeShards(&bytes.Buffer{}, shardedCfg, ShardedConfig{Shards: 3, Dir: dir}); err == nil ||
		!strings.Contains(err.Error(), "incomplete run") {
		t.Fatalf("merge of interrupted run: %v, want incomplete-run error", err)
	}

	rerun := ShardedConfig{Shards: 3, Workers: 1, Dir: dir}
	stats, err := RunSharded(shardedCfg, rerun)
	if err != nil {
		t.Fatal(err)
	}
	if stats.ResumedFrames < 2 {
		t.Fatalf("rerun ResumedFrames = %d, want >= 2", stats.ResumedFrames)
	}
	var buf bytes.Buffer
	if err := MergeShards(&buf, shardedCfg, rerun); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(buf.Bytes(), single) {
		t.Fatal("resumed sharded merge diverges from single-process export")
	}
}

func TestMergeRejectsForeignRun(t *testing.T) {
	cfg := microCfg(8)
	cfg.Workers = 0
	dir := t.TempDir()
	sc := ShardedConfig{Shards: 2, Workers: 2, Dir: dir}
	if _, err := RunSharded(cfg, sc); err != nil {
		t.Fatal(err)
	}
	other := microCfg(9)
	other.Workers = 0
	err := MergeShards(&bytes.Buffer{}, other, ShardedConfig{Shards: 2, Dir: dir})
	if err == nil || !strings.Contains(err.Error(), "different run") {
		t.Fatalf("merge with mismatched config: %v, want different-run error", err)
	}
}

func TestRunShardedValidation(t *testing.T) {
	cfg := microCfg(3)
	if _, err := RunSharded(cfg, ShardedConfig{Shards: 0, Dir: t.TempDir()}); err == nil {
		t.Fatal("zero shards accepted")
	}
	if _, err := RunSharded(cfg, ShardedConfig{Shards: 2}); err == nil {
		t.Fatal("missing journal dir accepted")
	}
}
