package core

// chaos.go sweeps the study across fault rates and measures how far the
// headline prevalence numbers (Table 3) drift from the fault-free run — the
// robustness claim behind the fault-injection layer: operational messiness
// degrades coverage, it must not invert conclusions.

import (
	"bytes"
	"fmt"
	"math"
	"os"

	"pinscope/internal/faultinject"
	"pinscope/internal/shardnet"
	"pinscope/internal/worldgen"
)

// ChaosPoint is one fault rate's outcome in a chaos sweep.
type ChaosPoint struct {
	Rate  float64
	Stats RobustnessStats
	Cells []Table3Cell
	// MaxAbsDriftPP is the largest absolute drift, over all dataset cells,
	// of the dynamic pinning prevalence versus the fault-free reference, in
	// percentage points.
	MaxAbsDriftPP float64
	// Sharded is the shard drill at this rate: the same point rerun as a
	// 4-shard sharded study under the ShardPlan derived from (seed, rate)
	// — worker kills plus the simulated network's delays, drops,
	// duplicate deliveries and partitions — with the merged export held
	// against the point's own export. Nil for the rate-0 reference and
	// for rates whose derived plan is empty.
	Sharded *ShardDrill
}

// ShardDrill is one chaos point's sharded rerun: coordinator accounting,
// the injected network fault count, and the merge-equivalence verdict.
// ChaosSweep fails loudly if the merge diverges, so a recorded drill
// always has ByteIdentical true — the field keeps the report honest about
// what was checked rather than assumed.
type ShardDrill struct {
	Stats         shardnet.Stats
	NetFaults     int
	ByteIdentical bool
}

// DynamicPrevalencePct is a cell's dynamic pinning prevalence in percent.
func DynamicPrevalencePct(c Table3Cell) float64 {
	if c.N == 0 {
		return 0
	}
	return 100 * float64(c.Dynamic) / float64(c.N)
}

// ChaosSweep reruns the study at each fault rate (plus a rate-0 reference)
// and reports per-rate robustness accounting and Table 3 drift. Each point
// builds its own world, which the point's shard drill reuses.
//
// Points with a positive rate run with a Uniform fault plan seeded from
// cfg.Params.Seed and at least two retries, so the sweep exercises the full
// retry/quarantine machinery.
func ChaosSweep(cfg Config, rates []float64) ([]ChaosPoint, error) {
	ref, err := chaosPoint(cfg, 0)
	if err != nil {
		return nil, err
	}
	refPct := map[DatasetCell]float64{}
	for _, c := range ref.Cells {
		refPct[c.Cell] = DynamicPrevalencePct(c)
	}

	out := make([]ChaosPoint, 0, len(rates))
	for _, rate := range rates {
		pt := ref
		if rate != 0 {
			pt, err = chaosPoint(cfg, rate)
			if err != nil {
				return nil, err
			}
		}
		pt.MaxAbsDriftPP = 0
		for _, c := range pt.Cells {
			if d := math.Abs(DynamicPrevalencePct(c) - refPct[c.Cell]); d > pt.MaxAbsDriftPP {
				pt.MaxAbsDriftPP = d
			}
		}
		out = append(out, pt)
	}
	return out, nil
}

func chaosPoint(cfg Config, rate float64) (ChaosPoint, error) {
	cfg.Faults = nil
	if rate > 0 {
		cfg.Faults = faultinject.NewPlan(cfg.Params.Seed, faultinject.Uniform(rate))
		if cfg.Retries < 2 {
			cfg.Retries = 2
		}
	}
	w, err := worldgen.Build(cfg.Params)
	if err != nil {
		return ChaosPoint{}, err
	}
	s, err := RunOnWorld(cfg, w)
	if err != nil {
		return ChaosPoint{}, err
	}
	pt := ChaosPoint{Rate: rate, Stats: s.Robustness(), Cells: s.Table3()}
	if rate > 0 {
		pt.Sharded, err = shardDrill(cfg, rate, s)
		if err != nil {
			return ChaosPoint{}, err
		}
	}
	return pt, nil
}

// drillShards is the drill's shard and worker count.
const drillShards = 4

// shardDrill reruns one chaos point as a sharded study on the point's own
// world, under the shard fault plan derived from (seed, rate) and sized
// from that world — kills become mid-stream worker deaths, and the plan's
// network family batters the simulated wire — then holds the merged
// export against the point's own export byte for byte: the sweep's proof
// that rising fault rates and a hostile network degrade progress, never
// data.
func shardDrill(cfg Config, rate float64, s *Study) (*ShardDrill, error) {
	items := sliceItems(sliceRanges(len(studyWork(s.World)), drillShards))
	plan := faultinject.DeriveShardPlan(cfg.Params.Seed, rate, drillShards, items)
	if plan == nil {
		return nil, nil
	}
	dir, err := os.MkdirTemp("", "pinscope-chaos-shard-*")
	if err != nil {
		return nil, err
	}
	defer os.RemoveAll(dir)
	sc := ShardedConfig{Shards: drillShards, Workers: drillShards, Dir: dir, Faults: plan}
	stats, err := runShards(cfg, sc, s.World, "", true)
	if err != nil {
		return nil, fmt.Errorf("core: chaos shard drill at rate %g: %w", rate, err)
	}
	var single, merged bytes.Buffer
	if err := s.WriteJSON(&single); err != nil {
		return nil, err
	}
	if err := MergeShards(&merged, cfg, sc); err != nil {
		return nil, fmt.Errorf("core: chaos shard drill at rate %g: %w", rate, err)
	}
	if !bytes.Equal(merged.Bytes(), single.Bytes()) {
		return nil, fmt.Errorf("core: chaos shard drill at rate %g: merged export diverges from the point's own export (%d vs %d bytes)",
			rate, merged.Len(), single.Len())
	}
	netFaults := 0
	for _, ff := range plan {
		for _, hit := range []bool{ff.Delay > 0, ff.Drop, ff.Dup, ff.Partition > 0} {
			if hit {
				netFaults++
			}
		}
	}
	return &ShardDrill{Stats: *stats, NetFaults: netFaults, ByteIdentical: true}, nil
}
