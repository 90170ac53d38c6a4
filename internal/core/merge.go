package core

// merge.go folds the slice journals of a completed sharded run into the
// canonical export. It is a pure fold over journals: every record carries
// its app header, dataset membership and probes (journal.go), so the
// merge needs only the journals and the run config — never the world. In
// place of the world it checks what the world used to guarantee: the
// slices tile the universe contiguously, keys ascend strictly across the
// whole run, and no two records disagree about a destination's probe.

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"io/fs"
	"sort"

	"pinscope/internal/journal"
)

// mergeProbe is a probe the merge has seen, with where it was first seen.
type mergeProbe struct {
	probe       ExportedProbe
	slice, item int
}

// MergeShards streams the slice journals of a completed sharded run into
// one exported dataset, byte-identical to WriteJSON of an unsharded
// same-seed run. Peak memory is bounded: one journal frame is decoded,
// exported and discarded at a time, and only the probe index (one entry
// per pinned destination) lives across the walk — the full dataset never
// materializes.
func MergeShards(out io.Writer, cfg Config, sc ShardedConfig) error {
	if cfg.Window == 0 {
		cfg.Window = 30
	}
	if sc.Shards <= 0 {
		return errors.New("core: merge needs the run's shard count")
	}
	readers := make([]*journal.Reader, 0, sc.Shards)
	defer func() {
		for _, r := range readers {
			r.Close()
		}
	}()
	for i := 0; i < sc.Shards; i++ {
		r, err := journal.OpenReader(shardPath(sc.Dir, i))
		if errors.Is(err, fs.ErrNotExist) {
			return fmt.Errorf("core: merge slice %s: no journal — incomplete run, rerun -shards to finish it", shardPath(sc.Dir, i))
		} else if err != nil {
			return fmt.Errorf("core: merge slice %s: %w", shardPath(sc.Dir, i), err)
		}
		readers = append(readers, r)
	}
	ranges, err := mergeLayout(cfg, sc, readers)
	if err != nil {
		return err
	}
	se, err := NewStreamExporter(out, exportMeta(cfg))
	if err != nil {
		return err
	}
	probes := map[string]mergeProbe{}
	lastKey := ""
	for i, r := range readers {
		if lastKey, err = mergeSlice(se, r, shardPath(sc.Dir, i), i, ranges[i][1], lastKey, probes); err != nil {
			return err
		}
	}
	hosts := make([]string, 0, len(probes))
	for h := range probes {
		hosts = append(hosts, h)
	}
	sort.Strings(hosts)
	eps := make([]ExportedProbe, 0, len(hosts))
	for _, h := range hosts {
		eps = append(eps, probes[h].probe)
	}
	return se.Finish(eps)
}

// mergeLayout checks that the slice journals belong to this run and tile
// its universe: each meta names this run and shard count, the slices chain
// contiguously from 0, and the ranges are exactly the cut sliceRanges
// makes of their summed count. It returns those ranges.
func mergeLayout(cfg Config, sc ShardedConfig, readers []*journal.Reader) ([][2]int, error) {
	run := metaFor(cfg)
	metas := make([]shardMeta, len(readers))
	total := 0
	for i, r := range readers {
		path := shardPath(sc.Dir, i)
		m := &metas[i]
		dec := json.NewDecoder(bytes.NewReader(r.Meta()))
		dec.DisallowUnknownFields()
		if err := dec.Decode(m); err != nil || m.Run != run || m.Slice != i || m.Slices != sc.Shards {
			return nil, fmt.Errorf("core: merge slice %s: journal belongs to a different run or shard layout", path)
		}
		if m.Start != total || m.Count < 0 {
			return nil, fmt.Errorf("core: merge slice %s: slice starts at item %d with %d items, want a contiguous start at %d",
				path, m.Start, m.Count, total)
		}
		total += m.Count
	}
	ranges := sliceRanges(total, sc.Shards)
	for i, m := range metas {
		if [2]int{m.Start, m.Count} != ranges[i] {
			return nil, fmt.Errorf("core: merge slice %s: range {start %d, count %d} is not the cut of %d items into %d slices (want %v)",
				shardPath(sc.Dir, i), m.Start, m.Count, total, sc.Shards, ranges[i])
		}
	}
	return ranges, nil
}

// mergeSlice folds one slice journal into the stream. lastKey is the key
// of the run's previous record; the slice's last key is returned.
func mergeSlice(se *StreamExporter, r *journal.Reader, path string, slice, count int,
	lastKey string, probes map[string]mergeProbe) (string, error) {
	for item := 0; ; item++ {
		data, err := r.Next()
		if errors.Is(err, io.EOF) {
			if item != count {
				return "", fmt.Errorf("core: merge slice %s: %d of %d results journaled — incomplete run, rerun -shards to finish it",
					path, item, count)
			}
			return lastKey, nil
		}
		if err != nil {
			return "", fmt.Errorf("core: merge slice %s: %w", path, err)
		}
		if item >= count {
			return "", fmt.Errorf("core: merge slice %s: more results than the slice's %d items", path, count)
		}
		rec, res, err := decodeShardRecord(data)
		if err != nil {
			return "", fmt.Errorf("core: merge slice %s item %d: %w", path, item, err)
		}
		if rec.Key <= lastKey {
			return "", fmt.Errorf("core: merge slice %s item %d: key %q does not ascend past %q", path, item, rec.Key, lastKey)
		}
		lastKey = rec.Key
		ea := exportApp(res, rec.Datasets)
		if err := se.App(&ea); err != nil {
			return "", err
		}
		dests := res.Dyn.PinnedDests()
		if len(rec.Probes) != len(dests) {
			return "", fmt.Errorf("core: merge slice %s item %d: %d probes for %d pinned destinations", path, item, len(rec.Probes), len(dests))
		}
		for i, p := range rec.Probes {
			if p.Host != dests[i] {
				return "", fmt.Errorf("core: merge slice %s item %d: probe of %q where pinned destination %q belongs",
					path, item, p.Host, dests[i])
			}
			seen, ok := probes[p.Host]
			if !ok {
				probes[p.Host] = mergeProbe{probe: p, slice: slice, item: item}
			} else if seen.probe != p {
				return "", fmt.Errorf("core: merge: probes of %q differ between slice %d item %d and slice %d item %d",
					p.Host, seen.slice, seen.item, slice, item)
			}
		}
	}
}
