package core

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"path/filepath"
	"strings"
	"testing"

	"pinscope/internal/dynamicanalysis"
	"pinscope/internal/faultinject"
	"pinscope/internal/journal"
	"pinscope/internal/worldgen"
)

// shardRun runs cfg as a clean sharded study into a fresh directory.
func shardRun(t *testing.T, cfg Config, shards int) ShardedConfig {
	t.Helper()
	cfg.Workers = 0
	sc := ShardedConfig{Shards: shards, Workers: shards, Dir: t.TempDir()}
	if _, err := RunSharded(cfg, sc); err != nil {
		t.Fatal(err)
	}
	return sc
}

// sliceJournal is one slice journal read back: its meta and records.
type sliceJournal struct {
	meta shardMeta
	recs []*journalRecord
}

func readSlices(t *testing.T, sc ShardedConfig) []sliceJournal {
	t.Helper()
	out := make([]sliceJournal, sc.Shards)
	for i := range out {
		r, err := journal.OpenReader(shardPath(sc.Dir, i))
		if err != nil {
			t.Fatal(err)
		}
		if err := json.Unmarshal(r.Meta(), &out[i].meta); err != nil {
			t.Fatal(err)
		}
		for {
			data, err := r.Next()
			if errors.Is(err, io.EOF) {
				break
			} else if err != nil {
				t.Fatal(err)
			}
			rec, err := decodeRecord(data)
			if err != nil {
				t.Fatal(err)
			}
			out[i].recs = append(out[i].recs, rec)
		}
		r.Close()
	}
	return out
}

// writeSlices crafts slice journals from metas and records into a fresh
// directory, through the same journal writer the fleet uses.
func writeSlices(t *testing.T, slices []sliceJournal) string {
	t.Helper()
	dir := t.TempDir()
	for i, sl := range slices {
		meta, err := json.Marshal(sl.meta)
		if err != nil {
			t.Fatal(err)
		}
		w, err := journal.Create(shardPath(dir, i), meta)
		if err != nil {
			t.Fatal(err)
		}
		for _, rec := range sl.recs {
			data, err := json.Marshal(rec)
			if err != nil {
				t.Fatal(err)
			}
			if err := w.Append(data); err != nil {
				t.Fatal(err)
			}
		}
		if err := w.Close(); err != nil {
			t.Fatal(err)
		}
	}
	return dir
}

func mergeErr(cfg Config, shards int, dir string) error {
	return MergeShards(io.Discard, cfg, ShardedConfig{Shards: shards, Dir: dir})
}

func wantMergeErr(t *testing.T, err error, want ...string) {
	t.Helper()
	if err == nil {
		t.Fatalf("merge succeeded, want an error containing %q", want)
	}
	for _, w := range want {
		if !strings.Contains(err.Error(), w) {
			t.Fatalf("merge error %q does not contain %q", err, w)
		}
	}
}

func TestMergeBuildsNoWorld(t *testing.T) {
	// The merge is a pure fold over the journals: it must come out
	// byte-identical to the single-process export without building a world.
	cfg := microCfg(61)
	single := exportBytes(t, runCfg(t, cfg))
	sc := shardRun(t, cfg, 3)
	before := worldgen.Builds()
	var buf bytes.Buffer
	if err := MergeShards(&buf, cfg, sc); err != nil {
		t.Fatal(err)
	}
	if n := worldgen.Builds() - before; n != 0 {
		t.Fatalf("MergeShards built %d worlds, want 0", n)
	}
	if !bytes.Equal(buf.Bytes(), single) {
		t.Fatal("merged export diverges from the single-process export")
	}
}

func TestInProcessFleetsBuildOneWorld(t *testing.T) {
	// Every worker of an in-process fleet shares the world the run built;
	// given a world, as the chaos drill gives the point's own, a fleet
	// builds none.
	cfg := microCfg(62)
	cfg.Workers = 0
	w, err := worldgen.Build(cfg.Params)
	if err != nil {
		t.Fatal(err)
	}
	runs := []struct {
		name  string
		run   func(sc ShardedConfig) error
		built int64
	}{
		{"RunSharded", func(sc ShardedConfig) error { _, err := RunSharded(cfg, sc); return err }, 1},
		{"RunShardedTCP", func(sc ShardedConfig) error { _, err := RunShardedTCP(cfg, sc); return err }, 1},
		{"runShards on a given world", func(sc ShardedConfig) error { _, err := runShards(cfg, sc, w, "", true); return err }, 0},
	}
	for _, r := range runs {
		before := worldgen.Builds()
		if err := r.run(ShardedConfig{Shards: 2, Workers: 2, Dir: t.TempDir()}); err != nil {
			t.Fatalf("%s: %v", r.name, err)
		}
		if n := worldgen.Builds() - before; n != r.built {
			t.Fatalf("%s built %d worlds, want %d", r.name, n, r.built)
		}
	}
}

func TestStudyLeavesWorldReusable(t *testing.T) {
	// Fleets and the chaos drill measure against a world another study
	// already measured, so a study must leave the world as it found it.
	// Decryption faults are the ones that read package state: on a used
	// world a rerun must still fail decryption on the same attempts, so
	// every app keeps the confidence, the winning attempt and the static
	// outcome of the first run.
	cfg := microCfg(64)
	cfg.Faults = faultinject.NewPlan(64, faultinject.Rates{DecryptFail: 0.5})
	cfg.Retries = 2
	w, err := worldgen.Build(cfg.Params)
	if err != nil {
		t.Fatal(err)
	}
	first, err := RunOnWorld(cfg, w)
	if err != nil {
		t.Fatal(err)
	}
	again, err := RunOnWorld(cfg, w)
	if err != nil {
		t.Fatal(err)
	}
	outcome := func(r *AppResult) string {
		return fmt.Sprintf("confidence %v, from attempt %d, static report %t, static error %v",
			r.Confidence, r.FromAttempt, r.Static != nil, r.StaticErr)
	}
	decryptFailed := 0
	for key, r := range first.results {
		if r.FromAttempt > 0 {
			decryptFailed++
		}
		if got, want := outcome(again.results[key]), outcome(r); got != want {
			t.Errorf("%s on a used world: %s, first run: %s", key, got, want)
		}
	}
	if decryptFailed == 0 {
		t.Fatal("no decryption fault fired; the test proved nothing")
	}
}

func TestMergeRefusesKeysOutOfOrder(t *testing.T) {
	cfg := microCfg(65)
	slices := readSlices(t, shardRun(t, cfg, 2))

	// Within a slice: swap its first two records.
	within := readSlicesCopy(slices)
	r := within[0].recs
	r[0], r[1] = r[1], r[0]
	wantMergeErr(t, mergeErr(cfg, 2, writeSlices(t, within)), "shard-000.wal item 1", "does not ascend")

	// Across the boundary: swap slice 0's last record with slice 1's first.
	across := readSlicesCopy(slices)
	a, b := across[0].recs, across[1].recs
	a[len(a)-1], b[0] = b[0], a[len(a)-1]
	wantMergeErr(t, mergeErr(cfg, 2, writeSlices(t, across)), "shard-001.wal item 0", "does not ascend")
}

func TestMergeRefusesBrokenSliceLayout(t *testing.T) {
	cfg := microCfg(66)
	slices := readSlices(t, shardRun(t, cfg, 2))

	// A gap between slices: slice 1 claims to start one item late.
	gap := readSlicesCopy(slices)
	gap[1].meta.Start++
	wantMergeErr(t, mergeErr(cfg, 2, writeSlices(t, gap)), "shard-001.wal", "contiguous start")

	// Contiguous, but not the cut sliceRanges makes: one record moves from
	// slice 0 to slice 1 and both metas follow it.
	skew := readSlicesCopy(slices)
	moved := skew[0].recs[len(skew[0].recs)-1]
	skew[0].recs = skew[0].recs[:len(skew[0].recs)-1]
	skew[1].recs = append([]*journalRecord{moved}, skew[1].recs...)
	skew[0].meta.Count--
	skew[1].meta.Start--
	skew[1].meta.Count++
	wantMergeErr(t, mergeErr(cfg, 2, writeSlices(t, skew)), "shard-000.wal", "is not the cut")
}

func TestMergeRefusesConflictingProbes(t *testing.T) {
	// Two records that both report the same pinned destination must carry
	// the same probe. Identical copies fold into one; differing copies are
	// a fleet inconsistency the merge refuses, naming both records.
	cfg := microCfg(67)
	slices := readSlices(t, shardRun(t, cfg, 2))
	const host = "pinned.conflict.example"
	pin := func(rec *journalRecord, p ExportedProbe) {
		rec.Dyn = &dynamicanalysis.Result{AppID: rec.App.ID, Verdicts: map[string]*dynamicanalysis.DestVerdict{
			host: {Dest: host, Pinned: true, UsedNoMITM: true, ConclusiveFlows: 2},
		}}
		rec.Probes = []ExportedProbe{p}
	}
	probe := ExportedProbe{Host: host, CustomPKI: true, LeafCN: host, ChainLen: 2, RootFP: "sha256:00"}

	same := readSlicesCopy(slices)
	pin(same[0].recs[0], probe)
	pin(same[1].recs[1], probe)
	var buf bytes.Buffer
	if err := MergeShards(&buf, cfg, ShardedConfig{Shards: 2, Dir: writeSlices(t, same)}); err != nil {
		t.Fatalf("identical probes: %v", err)
	}
	if n := strings.Count(buf.String(), `"host": "`+host+`"`); n != 1 {
		t.Fatalf("merged export lists %s %d times, want once", host, n)
	}

	differ := readSlicesCopy(slices)
	pin(differ[0].recs[0], probe)
	other := probe
	other.ChainLen = 3
	pin(differ[1].recs[1], other)
	wantMergeErr(t, mergeErr(cfg, 2, writeSlices(t, differ)),
		host, "slice 0 item 0", "slice 1 item 1")
}

func TestJournalFormatOneIsRefused(t *testing.T) {
	// Slice journals and study journals written before the shard record
	// fields existed (format 1) must be refused on resume and on merge.
	cfg := microCfg(68)
	cfg.Workers = 0
	cfg.Window = 30
	meta := shardMeta{Run: metaFor(cfg), Slice: 0, Slices: 1, Start: 0}
	meta.Run.Format = 1
	raw, err := json.Marshal(meta)
	if err != nil {
		t.Fatal(err)
	}
	dir := t.TempDir()
	w, err := journal.Create(shardPath(dir, 0), raw)
	if err != nil {
		t.Fatal(err)
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	wantMergeErr(t, mergeErr(cfg, 1, dir), "different run")
	if _, err := RunSharded(cfg, ShardedConfig{Shards: 1, Workers: 1, Dir: dir}); err == nil ||
		!strings.Contains(err.Error(), "different run") {
		t.Fatalf("resume over a format-1 slice journal: %v, want a different-run error", err)
	}

	studyMeta := metaFor(cfg)
	studyMeta.Format = 1
	raw, err = json.Marshal(studyMeta)
	if err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(t.TempDir(), "study.wal")
	if w, err = journal.Create(path, raw); err != nil {
		t.Fatal(err)
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	if _, err := openStudyJournal(path, cfg); err == nil || !strings.Contains(err.Error(), "different run") {
		t.Fatalf("resume of a format-1 study journal: %v, want a different-run error", err)
	}
}

// readSlicesCopy deep-copies read-back slices so each case edits its own.
func readSlicesCopy(in []sliceJournal) []sliceJournal {
	out := make([]sliceJournal, len(in))
	for i, sl := range in {
		out[i].meta = sl.meta
		for _, rec := range sl.recs {
			cp := *rec
			app := *rec.App
			cp.App = &app
			out[i].recs = append(out[i].recs, &cp)
		}
	}
	return out
}
