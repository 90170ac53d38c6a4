package core

import (
	"bytes"
	"errors"
	"fmt"
	"path/filepath"
	"strings"
	"testing"

	"pinscope/internal/faultinject"
	"pinscope/internal/journal"
	"pinscope/internal/worldgen"
)

// microCfg is deliberately smaller than TestConfig: the kill sweep below
// runs one partial study plus one resumed study per journal frame, so the
// world must stay tiny for the sweep to be O(seconds).
func microCfg(seed int64) Config {
	return Config{
		Params: worldgen.Params{
			Seed:       seed,
			CommonSize: 3, PopularSize: 4, RandomSize: 4,
			StoreAndroid: 400, StoreIOS: 390,
			CrossProducts: 4, PopularCut: 120,
		},
		Window:  30,
		Workers: 1, // one worker => the Nth journal append is the Nth result
	}
}

func runJournaled(t *testing.T, cfg Config, path string) *Study {
	t.Helper()
	s, err := RunJournaled(cfg, path, nil)
	if err != nil {
		t.Fatal(err)
	}
	return s
}

func TestJournaledRunMatchesPlainRun(t *testing.T) {
	plain := runCfg(t, microCfg(71))
	path := filepath.Join(t.TempDir(), "run.wal")
	journaled := runJournaled(t, microCfg(71), path)

	if !bytes.Equal(exportBytes(t, plain), exportBytes(t, journaled)) {
		t.Fatal("journaling changed the exported dataset")
	}
	if journaled.Resumed != 0 {
		t.Fatalf("fresh journaled run replayed %d results", journaled.Resumed)
	}
	rec, err := journal.Recover(path)
	if err != nil {
		t.Fatal(err)
	}
	if len(rec.Results) != len(journaled.results) {
		t.Fatalf("journal holds %d results, study has %d", len(rec.Results), len(journaled.results))
	}
	if rec.Truncated {
		t.Fatal("clean run left a torn tail")
	}
}

// TestKillAtEveryFrameBoundaryThenResume is the crash-recovery acceptance
// test: for every journal frame boundary, kill the run there (with a
// varying number of torn bytes left on disk), resume from the journal, and
// require the resumed export to be byte-identical to an uninterrupted
// run's.
func TestKillAtEveryFrameBoundaryThenResume(t *testing.T) {
	want := exportBytes(t, runCfg(t, microCfg(72)))
	// Count the frames one uninterrupted journaled run writes.
	probe := filepath.Join(t.TempDir(), "probe.wal")
	total := len(runJournaled(t, microCfg(72), probe).results)
	if total < 10 {
		t.Fatalf("micro world too small for a meaningful sweep: %d apps", total)
	}

	for i := 0; i < total; i++ {
		torn := []int{0, 1, 7}[i%3] // die before, inside the length field, inside the frame
		path := filepath.Join(t.TempDir(), fmt.Sprintf("kill%d.wal", i))

		kill := &faultinject.ProcessKill{AfterResults: i, TornBytes: torn}
		_, err := RunJournaled(microCfg(72), path, kill)
		if !errors.Is(err, journal.ErrKilled) {
			t.Fatalf("kill-after=%d: RunJournaled = %v, want ErrKilled", i, err)
		}

		rec, err := journal.Recover(path)
		if err != nil {
			t.Fatalf("kill-after=%d: recover: %v", i, err)
		}
		if len(rec.Results) != i || rec.TornBytes != int64(torn) {
			t.Fatalf("kill-after=%d torn=%d: recovered %d results, %d torn bytes",
				i, torn, len(rec.Results), rec.TornBytes)
		}

		s := runJournaled(t, microCfg(72), path)
		if s.Resumed != i {
			t.Fatalf("kill-after=%d: resumed run replayed %d results", i, s.Resumed)
		}
		if !bytes.Equal(want, exportBytes(t, s)) {
			t.Fatalf("kill-after=%d torn=%d: resumed export differs from uninterrupted run", i, torn)
		}
		if i == total/2 {
			if got, want := s.Robustness(), runCfg(t, microCfg(72)).Robustness(); got != want {
				t.Fatalf("resumed robustness stats %+v, want %+v", got, want)
			}
		}
	}
}

func TestResumeOfCompletedJournalReplaysEverything(t *testing.T) {
	path := filepath.Join(t.TempDir(), "done.wal")
	first := runJournaled(t, microCfg(73), path)
	second := runJournaled(t, microCfg(73), path)
	if second.Resumed != len(first.results) {
		t.Fatalf("replayed %d of %d results", second.Resumed, len(first.results))
	}
	if !bytes.Equal(exportBytes(t, first), exportBytes(t, second)) {
		t.Fatal("fully replayed export differs")
	}
}

func TestResumeRejectsForeignJournal(t *testing.T) {
	path := filepath.Join(t.TempDir(), "run.wal")
	runJournaled(t, microCfg(74), path)

	other := microCfg(74)
	other.Params.Seed = 99
	if _, err := RunJournaled(other, path, nil); err == nil ||
		!strings.Contains(err.Error(), "different run configuration") {
		t.Fatalf("foreign journal accepted for resume: %v", err)
	}

	faulted := microCfg(74)
	faulted.Faults = faultinject.NewPlan(7, faultinject.Uniform(0.1))
	faulted.Retries = 2
	if _, err := RunJournaled(faulted, path, nil); err == nil ||
		!strings.Contains(err.Error(), "different run configuration") {
		t.Fatalf("journal from a fault-free run accepted under a fault plan: %v", err)
	}
}

// TestJournaledFaultedRunResumes exercises the interaction of both fault
// families: transient measurement faults (retried, quarantined) and a
// process kill. The resumed export must still match the uninterrupted
// faulted run byte for byte.
func TestJournaledFaultedRunResumes(t *testing.T) {
	mk := func() Config {
		cfg := microCfg(76)
		cfg.Faults = faultinject.NewPlan(76, faultinject.Uniform(0.15))
		cfg.Retries = 2
		return cfg
	}
	want := exportBytes(t, runCfg(t, mk()))

	path := filepath.Join(t.TempDir(), "faulted.wal")
	kill := &faultinject.ProcessKill{AfterResults: 5, TornBytes: 3}
	if _, err := RunJournaled(mk(), path, kill); !errors.Is(err, journal.ErrKilled) {
		t.Fatalf("RunJournaled = %v, want ErrKilled", err)
	}
	s := runJournaled(t, mk(), path)
	if s.Resumed != 5 {
		t.Fatalf("resumed run replayed %d results, want 5", s.Resumed)
	}
	if !bytes.Equal(want, exportBytes(t, s)) {
		t.Fatal("resumed faulted export differs from uninterrupted run")
	}
}

// A run that leaves Window unset measures with the device default, so its
// journal header and export metadata must record that default too: Window
// 0 and Window 30 name the same run.
func TestUnsetWindowRecordsTheDefault(t *testing.T) {
	set := microCfg(81)
	unset := set
	unset.Window = 0
	if metaFor(unset) != metaFor(set) {
		t.Fatalf("journal header of Window 0 %+v, of Window 30 %+v", metaFor(unset), metaFor(set))
	}
	w, err := worldgen.Build(set.Params)
	if err != nil {
		t.Fatal(err)
	}
	a, err := RunOnWorld(set, w)
	if err != nil {
		t.Fatal(err)
	}
	b, err := RunOnWorld(unset, w)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(exportBytes(t, a), exportBytes(t, b)) {
		t.Fatal("Window 0 exports differently from Window 30")
	}
}
