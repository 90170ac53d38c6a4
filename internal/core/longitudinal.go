package core

// longitudinal.go is the time axis of the study: it replays the same app
// universe against every selected root-program timeline point (platform
// release or distrust event, see internal/rootprogram) and collects one
// Study per point. The sweep reuses the crash-only machinery wholesale —
// each point is an independently journaled pass with its own WAL, so a
// killed sweep resumes exactly where it died: completed points replay
// from their journals, the interrupted point resumes mid-journal, and
// untouched points run fresh. Per-point exports are byte-identical
// between an uninterrupted sweep and a killed-and-resumed one.

import (
	"fmt"
	"io"
	"os"
	"path/filepath"

	"pinscope/internal/appmodel"
	"pinscope/internal/faultinject"
	"pinscope/internal/pki"
	"pinscope/internal/rootprogram"
	"pinscope/internal/worldgen"
)

// TimelineConfig selects the points and durability of a longitudinal run.
type TimelineConfig struct {
	// Points are timeline point tags to measure, in timeline order; empty
	// means every point (each release and each distrust event).
	Points []string
	// Dir, when non-empty, journals each point at Dir/point-<tag>.wal. An
	// existing journal is resumed automatically: its completed results
	// replay instead of re-measuring, which is what makes a re-run after a
	// mid-timeline kill both cheap and byte-identical.
	Dir string
	// Kill, when non-nil (and Dir is set), arms the fault layer's power
	// cut on the point journals' append path (see RunJournaled).
	Kill *faultinject.ProcessKill
	// KillAtPoint, when non-empty, arms Kill only for the named point, so
	// tests and demos can cut the process mid-timeline (after earlier
	// points completed). Empty arms Kill for every point.
	KillAtPoint string
}

// PointResult is one timeline point's completed study.
type PointResult struct {
	Point    rootprogram.Point
	Study    *Study
	Breakage []BreakageCell
}

// LongitudinalStudy is a completed timeline sweep.
type LongitudinalStudy struct {
	Cfg    Config
	World  *worldgen.World
	Points []*PointResult
}

// RunLongitudinal builds the world once and replays the study across the
// selected timeline points.
func RunLongitudinal(cfg Config, tc TimelineConfig) (*LongitudinalStudy, error) {
	w, err := worldgen.Build(cfg.Params)
	if err != nil {
		return nil, err
	}
	pts, err := selectPoints(w.Timeline, tc.Points)
	if err != nil {
		return nil, err
	}
	if tc.Dir != "" {
		if err := os.MkdirAll(tc.Dir, 0o755); err != nil {
			return nil, fmt.Errorf("core: longitudinal journal dir: %w", err)
		}
	}
	ls := &LongitudinalStudy{Cfg: cfg, World: w}
	for _, pt := range pts {
		android, ios, err := w.Timeline.StoresAt(pt)
		if err != nil {
			return nil, fmt.Errorf("core: longitudinal point %q: %w", pt.Tag, err)
		}
		pcfg := cfg
		pcfg.Release = pt.Tag
		pcfg.Stores = map[appmodel.Platform]*pki.RootStore{
			appmodel.Android: android,
			appmodel.IOS:     ios,
		}
		var s *Study
		if tc.Dir != "" {
			kill := tc.Kill
			if tc.KillAtPoint != "" && tc.KillAtPoint != pt.Tag {
				kill = nil
			}
			s, err = runJournaledOn(pcfg, w, PointJournalPath(tc.Dir, pt.Tag), kill)
		} else {
			s, err = RunOnWorld(pcfg, w)
		}
		if err != nil {
			return nil, fmt.Errorf("core: longitudinal point %q: %w", pt.Tag, err)
		}
		ls.Points = append(ls.Points, &PointResult{Point: pt, Study: s})
	}
	// Breakage classification runs after the whole sweep: whether a dark
	// destination counts as "pinned and broken" depends on pin verdicts
	// from points where it was reachable (a destination dark at this point
	// cannot be differentially classified at this point).
	pinned := ls.pinnedUnion()
	for _, p := range ls.Points {
		p.Breakage = p.Study.breakage(pinned)
	}
	return ls, nil
}

// pinnedUnion collects, per app key, every destination detected as pinned
// at any measured point.
func (ls *LongitudinalStudy) pinnedUnion() map[string]map[string]bool {
	out := map[string]map[string]bool{}
	for _, p := range ls.Points {
		for key, r := range p.Study.results {
			if r.Dyn == nil {
				continue
			}
			for _, d := range r.Dyn.PinnedDests() {
				if out[key] == nil {
					out[key] = map[string]bool{}
				}
				out[key][d] = true
			}
		}
	}
	return out
}

// PointJournalPath is where a timeline point's WAL lives under dir.
func PointJournalPath(dir, tag string) string {
	return filepath.Join(dir, "point-"+tag+".wal")
}

// selectPoints resolves tags against the timeline, preserving timeline
// order regardless of the order tags were given in. Empty means all.
func selectPoints(tl *rootprogram.Timeline, tags []string) ([]rootprogram.Point, error) {
	all := tl.Points()
	if len(tags) == 0 {
		return all, nil
	}
	want := make(map[string]bool, len(tags))
	for _, t := range tags {
		want[t] = true
	}
	var out []rootprogram.Point
	for _, p := range all {
		if want[p.Tag] {
			out = append(out, p)
			delete(want, p.Tag)
		}
	}
	for t := range want {
		return nil, fmt.Errorf("core: unknown timeline point %q", t)
	}
	return out, nil
}

// Result returns the point result for tag, or nil.
func (ls *LongitudinalStudy) Result(tag string) *PointResult {
	for _, p := range ls.Points {
		if p.Point.Tag == tag {
			return p
		}
	}
	return nil
}

// ExportPoint writes the named point's dataset as indented JSON — the
// same bytes Study.WriteJSON emits, with Meta.Release stamped to the
// point tag.
func (ls *LongitudinalStudy) ExportPoint(w io.Writer, tag string) error {
	p := ls.Result(tag)
	if p == nil {
		return fmt.Errorf("core: no completed timeline point %q", tag)
	}
	return p.Study.WriteJSON(w)
}

// BreakageCell aggregates trust breakage for one platform at one timeline
// point: destinations an app contacted whose baseline (no-MITM) leg never
// carried data — on an old or distrust-shrunken store, chains anchored at
// missing roots fail validation and their connections go dark.
type BreakageCell struct {
	Platform appmodel.Platform
	// Apps measured; BrokenApps have >= 1 dark destination.
	Apps       int
	BrokenApps int
	// Dests are (app, destination) verdicts; BrokenDests are dark ones,
	// and PinnedBroken the dark destinations known to be pinned (per the
	// sweep-wide union of pin verdicts — a destination dark here was
	// classified at a point where its chain still validated).
	Dests        int
	BrokenDests  int
	PinnedBroken int
}

// Breakage aggregates the per-destination dark counts of a completed
// study, per platform (Android first, then iOS). Standalone studies have
// no cross-point pin union, so PinnedBroken stays 0 here; the
// longitudinal runner fills it via breakage(pinnedUnion()).
func (s *Study) Breakage() []BreakageCell { return s.breakage(nil) }

func (s *Study) breakage(pinned map[string]map[string]bool) []BreakageCell {
	cells := make(map[appmodel.Platform]*BreakageCell)
	out := make([]BreakageCell, 0, len(appmodel.Platforms))
	for _, plat := range appmodel.Platforms {
		cells[plat] = &BreakageCell{Platform: plat}
	}
	for key, r := range s.results {
		c := cells[r.App.Platform]
		c.Apps++
		broken := false
		if r.Dyn != nil {
			for _, d := range r.Dyn.ContactedDests() {
				v := r.Dyn.Verdicts[d]
				if v.Excluded {
					continue
				}
				c.Dests++
				if !v.UsedNoMITM {
					c.BrokenDests++
					broken = true
					if pinned[key][d] {
						c.PinnedBroken++
					}
				}
			}
		}
		if broken {
			c.BrokenApps++
		}
	}
	for _, plat := range appmodel.Platforms {
		out = append(out, *cells[plat])
	}
	return out
}

// Table3Over is one dataset cell's prevalence at every timeline point, in
// point order — Table 3 with time as the extra axis.
type Table3Over struct {
	Cell   DatasetCell
	Points []Table3Cell
}

// Table3OverTime pivots the per-point Table 3 into per-cell time series.
func (ls *LongitudinalStudy) Table3OverTime() []Table3Over {
	var out []Table3Over
	for _, p := range ls.Points {
		for i, c := range p.Study.Table3() {
			if i >= len(out) {
				out = append(out, Table3Over{Cell: c.Cell})
			}
			out[i].Points = append(out[i].Points, c)
		}
	}
	return out
}

// BreakageDelta is the change in breakage between two consecutive
// timeline points for one platform.
type BreakageDelta struct {
	From, To string // point tags
	Platform appmodel.Platform
	// Deltas of the respective BreakageCell counts (To minus From).
	BrokenApps   int
	BrokenDests  int
	PinnedBroken int
}

// BreakageDeltas walks consecutive point pairs and reports how many apps
// and destinations each transition broke (positive) or healed (negative).
func (ls *LongitudinalStudy) BreakageDeltas() []BreakageDelta {
	var out []BreakageDelta
	for i := 1; i < len(ls.Points); i++ {
		prev, cur := ls.Points[i-1], ls.Points[i]
		for j, plat := range appmodel.Platforms {
			out = append(out, BreakageDelta{
				From:         prev.Point.Tag,
				To:           cur.Point.Tag,
				Platform:     plat,
				BrokenApps:   cur.Breakage[j].BrokenApps - prev.Breakage[j].BrokenApps,
				BrokenDests:  cur.Breakage[j].BrokenDests - prev.Breakage[j].BrokenDests,
				PinnedBroken: cur.Breakage[j].PinnedBroken - prev.Breakage[j].PinnedBroken,
			})
		}
	}
	return out
}
