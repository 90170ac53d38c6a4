package core

import (
	"bytes"
	"errors"
	"testing"

	"pinscope/internal/faultinject"
	"pinscope/internal/journal"
)

// exportPoints renders every point's dataset to bytes, keyed by tag.
func exportPoints(t *testing.T, ls *LongitudinalStudy) map[string][]byte {
	t.Helper()
	out := map[string][]byte{}
	for _, p := range ls.Points {
		var b bytes.Buffer
		if err := ls.ExportPoint(&b, p.Point.Tag); err != nil {
			t.Fatal(err)
		}
		out[p.Point.Tag] = b.Bytes()
	}
	return out
}

// The acceptance invariant: same seed + timeline config yields
// byte-identical per-release exports — including after a kill/resume
// mid-timeline.
func TestLongitudinalDeterministicAndCrashSafe(t *testing.T) {
	cfg := microCfg(11)
	// Out-of-order tags resolve to timeline order.
	tc := TimelineConfig{Points: []string{"kitkat", "gingerbread", "distrust-ca-distrust"}}

	clean, err := RunLongitudinal(cfg, tc)
	if err != nil {
		t.Fatal(err)
	}
	if len(clean.Points) != 3 {
		t.Fatalf("got %d points, want 3", len(clean.Points))
	}
	for i, want := range []string{"gingerbread", "kitkat", "distrust-ca-distrust"} {
		if got := clean.Points[i].Point.Tag; got != want {
			t.Fatalf("point %d = %q, want %q (timeline order)", i, got, want)
		}
	}
	for _, p := range clean.Points {
		if p.Study.Cfg.Release != p.Point.Tag {
			t.Fatalf("point %q ran with Release %q", p.Point.Tag, p.Study.Cfg.Release)
		}
	}
	cleanBytes := exportPoints(t, clean)

	// Kill the sweep mid-timeline: first point completes, the cut fires
	// while the second point's journal is being written.
	dir := t.TempDir()
	_, err = RunLongitudinal(cfg, TimelineConfig{
		Points: tc.Points, Dir: dir,
		Kill:        &faultinject.ProcessKill{AfterResults: 7, TornBytes: 3},
		KillAtPoint: "kitkat",
	})
	if !errors.Is(err, journal.ErrKilled) {
		t.Fatalf("killed sweep returned %v, want ErrKilled", err)
	}

	// Resume: same config without the kill. The first point replays
	// wholesale, the killed point resumes from its torn journal, the
	// last point runs fresh.
	resumed, err := RunLongitudinal(cfg, TimelineConfig{Points: tc.Points, Dir: dir})
	if err != nil {
		t.Fatal(err)
	}
	if got := resumed.Result("gingerbread").Study.Resumed; got == 0 {
		t.Error("completed point should have replayed from its journal")
	}
	kp := resumed.Result("kitkat").Study
	if kp.Resumed == 0 {
		t.Error("killed point should have resumed its partial journal")
	}
	for tag, want := range cleanBytes {
		var b bytes.Buffer
		if err := resumed.ExportPoint(&b, tag); err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(b.Bytes(), want) {
			t.Errorf("point %q: resumed export differs from clean run", tag)
		}
	}

	// A second journaled sweep over the now-complete directory replays
	// everything and still matches byte for byte.
	again, err := RunLongitudinal(cfg, TimelineConfig{Points: tc.Points, Dir: dir})
	if err != nil {
		t.Fatal(err)
	}
	for tag, want := range cleanBytes {
		var b bytes.Buffer
		if err := again.ExportPoint(&b, tag); err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(b.Bytes(), want) {
			t.Errorf("point %q: replayed export differs from clean run", tag)
		}
	}
}

// A journal written for one timeline point must refuse to resume as a
// different point: Release is part of the strict header match.
func TestPointJournalRefusesOtherRelease(t *testing.T) {
	cfg := microCfg(12)
	cfg.Release = "froyo"
	dir := t.TempDir()
	path := PointJournalPath(dir, "froyo")
	j, err := openStudyJournal(path, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if err := j.w.Close(); err != nil {
		t.Fatal(err)
	}
	other := cfg
	other.Release = "kitkat"
	if _, err := openStudyJournal(path, other); err == nil {
		t.Fatal("resume across timeline points must fail")
	}
	j, err = openStudyJournal(path, cfg)
	if err != nil {
		t.Fatalf("same-point resume failed: %v", err)
	}
	if err := j.w.Close(); err != nil {
		t.Fatal(err)
	}
}

// The longitudinal axis must actually move the needle: early stores miss
// roots that modern chains anchor at, so the past shows more dark
// destinations than the newest release; a public-CA distrust re-breaks a
// completed store.
func TestLongitudinalBreakageSignal(t *testing.T) {
	cfg := microCfg(13)
	ls, err := RunLongitudinal(cfg, TimelineConfig{
		Points: []string{"froyo", "kitkat", "distrust-ca-distrust"},
	})
	if err != nil {
		t.Fatal(err)
	}
	broken := func(tag string) (n int) {
		for _, c := range ls.Result(tag).Breakage {
			n += c.BrokenDests
		}
		return n
	}
	if broken("froyo") <= broken("kitkat") {
		t.Errorf("froyo (missing 4 public roots) should break more than kitkat: %d vs %d",
			broken("froyo"), broken("kitkat"))
	}
	if broken("distrust-ca-distrust") <= broken("kitkat") {
		t.Errorf("distrusting a live public CA should break destinations: %d vs %d",
			broken("distrust-ca-distrust"), broken("kitkat"))
	}

	if got := len(ls.BreakageDeltas()); got != 4 {
		t.Fatalf("expected 2 transitions x 2 platforms = 4 deltas, got %d", got)
	}
	healedAny := false
	for _, d := range ls.BreakageDeltas() {
		if d.From == "froyo" && d.To == "kitkat" && d.BrokenDests < 0 {
			healedAny = true
		}
	}
	if !healedAny {
		t.Error("froyo->kitkat should heal destinations on at least one platform")
	}

	over := ls.Table3OverTime()
	if len(over) == 0 || len(over[0].Points) != 3 {
		t.Fatalf("Table3OverTime should carry 3 points per cell, got %+v", over)
	}
}
