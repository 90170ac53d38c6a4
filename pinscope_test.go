package pinscope

import (
	"bytes"
	"path/filepath"
	"strings"
	"sync"
	"testing"

	"pinscope/internal/core"
	"pinscope/internal/worldgen"
)

var (
	fOnce  sync.Once
	fStudy *Study
	fErr   error
)

func facadeStudy(t *testing.T) *Study {
	t.Helper()
	fOnce.Do(func() {
		fStudy, fErr = Run(MiniConfig(2024))
	})
	if fErr != nil {
		t.Fatal(fErr)
	}
	return fStudy
}

func TestAllPublicSectionsRender(t *testing.T) {
	s := facadeStudy(t)
	for _, sec := range Sections() {
		out, err := s.Report(sec)
		if err != nil {
			t.Fatalf("section %s: %v", sec, err)
		}
		if len(out) < 30 {
			t.Fatalf("section %s too short: %q", sec, out)
		}
	}
	if _, err := s.Report("nonsense"); err == nil {
		t.Fatal("unknown section accepted")
	}
}

func TestFullReport(t *testing.T) {
	out := facadeStudy(t).FullReport()
	if !strings.Contains(out, "Table 3") || !strings.Contains(out, "Figure 5") {
		t.Fatal("full report incomplete")
	}
}

// A journaled study killed mid-run and resumed by rerunning it must report
// exactly what the uninterrupted study reports, not only export the same
// dataset: every section reads the replayed results.
func TestResumedStudyReportsLikeUninterrupted(t *testing.T) {
	cfg := MiniConfig(2024)
	cfg.JournalPath = filepath.Join(t.TempDir(), "run.wal")
	killed := cfg
	killed.KillAfter, killed.KillTorn = 200, 5
	if _, err := Run(killed); !IsKilled(err) {
		t.Fatalf("killed run returned %v, want an injected kill", err)
	}
	resumed, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if n := resumed.Resumed(); n != 200 {
		t.Fatalf("resumed run replayed %d results, want 200", n)
	}
	if resumed.FullReport() != facadeStudy(t).FullReport() {
		t.Fatal("resumed study's full report differs from the uninterrupted study's")
	}
}

func TestVerdictsConsistentWithTable3(t *testing.T) {
	s := facadeStudy(t)
	pinningByPlatform := map[Platform]int{}
	for _, v := range s.Verdicts() {
		if v.Pinned {
			pinningByPlatform[v.Platform]++
			if len(v.PinnedDomains) == 0 {
				t.Fatalf("app %s pinned without domains", v.AppID)
			}
		} else if len(v.PinnedDomains) != 0 {
			t.Fatalf("app %s not pinned but has pinned domains", v.AppID)
		}
	}
	if pinningByPlatform[Android] == 0 || pinningByPlatform[IOS] == 0 {
		t.Fatalf("no pinning apps found: %v", pinningByPlatform)
	}
}

func TestPinningRateAccessor(t *testing.T) {
	s := facadeStudy(t)
	for _, ds := range []string{"Common", "Popular", "Random"} {
		for _, plat := range []Platform{Android, IOS} {
			rate, err := s.PinningRate(ds, plat)
			if err != nil {
				t.Fatalf("%s/%s: %v", ds, plat, err)
			}
			if rate < 0 || rate > 100 {
				t.Fatalf("%s/%s rate %v", ds, plat, rate)
			}
		}
	}
	if _, err := s.PinningRate("Bogus", Android); err == nil {
		t.Fatal("bogus dataset accepted")
	}
}

func TestSleepSweepAndAblationsViaFacade(t *testing.T) {
	s := facadeStudy(t)
	out, err := s.SleepSweep([]float64{15, 30, 60}, 10)
	if err != nil || !strings.Contains(out, "Avg TLS handshakes") {
		t.Fatalf("sweep: %v %q", err, out)
	}
	out, err = s.Ablations(10)
	if err != nil || !strings.Contains(out, "naive-detector") {
		t.Fatalf("ablations: %v %q", err, out)
	}
}

func TestConfigDefaults(t *testing.T) {
	cfg := Config{Seed: 5}
	cc := cfg.toCore()
	if cc.Params.CommonSize != 575 || cc.Params.PopularSize != 1000 {
		t.Fatalf("defaults not applied: %+v", cc.Params)
	}
	// The window passes through unset: core applies the device default
	// where it records the window (TestUnsetWindowRecordsTheDefault).
	if cc.Window != 0 {
		t.Fatalf("unset window became %v", cc.Window)
	}
	if w := (Config{Seed: 5, Window: 45}).toCore().Window; w != 45 {
		t.Fatalf("window 45 became %v", w)
	}
	mini := MiniConfig(5).toCore()
	if mini.Params.PopularCut >= 12000 {
		t.Fatalf("popular cut not scaled: %d", mini.Params.PopularCut)
	}
	// One world definition: the facade's configs and worldgen's named
	// Params derive the same world.
	if got, want := PaperConfig().toCore().Params, worldgen.DefaultParams(); got != want {
		t.Fatalf("paper world: facade %+v, worldgen %+v", got, want)
	}
	if got, want := mini.Params, worldgen.TestParams(5); got != want {
		t.Fatalf("mini world: facade %+v, worldgen %+v", got, want)
	}
	if p := Config100k(1).toCore().Params; p.CrossProducts != 6250 || p.PopularCut != 120000 {
		t.Fatalf("100k world: CrossProducts %d PopularCut %d, want 6250 and 120000", p.CrossProducts, p.PopularCut)
	}
}

// TestCoreTestConfigIsMiniWorld holds the world the core tests and the
// go-test benchmarks run (core.TestConfig) to the one pinstudy -scale mini
// studies: the same seed must export the same bytes.
func TestCoreTestConfigIsMiniWorld(t *testing.T) {
	s, err := core.Run(core.TestConfig(2024))
	if err != nil {
		t.Fatal(err)
	}
	var got, want bytes.Buffer
	if err := s.WriteJSON(&got); err != nil {
		t.Fatal(err)
	}
	if err := facadeStudy(t).ExportDataset(&want); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got.Bytes(), want.Bytes()) {
		t.Fatalf("core.TestConfig(2024) exports %d bytes, MiniConfig(2024) %d: different worlds", got.Len(), want.Len())
	}
}

func TestExportDatasetViaFacade(t *testing.T) {
	s := facadeStudy(t)
	var buf strings.Builder
	if err := s.ExportDataset(&buf); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	if !strings.Contains(out, `"pins_dynamic"`) || !strings.Contains(out, `"pinned_destinations"`) {
		t.Fatalf("export missing fields: %.200s", out)
	}
}

func TestValidationReport(t *testing.T) {
	out := facadeStudy(t).ValidationReport()
	if !strings.Contains(out, "precision") || !strings.Contains(out, "false positives:  0") {
		t.Fatalf("validation report: %s", out)
	}
}

func TestAdviseAppViaFacade(t *testing.T) {
	s := facadeStudy(t)
	var target *Verdict
	for i, v := range s.Verdicts() {
		if v.Pinned {
			vv := s.Verdicts()[i]
			target = &vv
			break
		}
	}
	if target == nil {
		t.Skip("no pinning app in this seed")
	}
	advice, err := s.AdviseApp(target.Platform, target.AppID)
	if err != nil || len(advice) == 0 {
		t.Fatalf("AdviseApp: %v (%d)", err, len(advice))
	}
	if _, err := s.AdviseApp(Android, "nope"); err == nil {
		t.Fatal("unknown app advised")
	}
}

// A shard kill that names no slice of the run, or a slice another kill
// already names, could never fire as asked: every sharded entry point
// refuses it before building anything, and ServeShards, whose workers run
// elsewhere, refuses kills outright.
func TestShardKillsThatCannotFireAreRefused(t *testing.T) {
	cfg := MiniConfig(2024)
	runs := []struct {
		name string
		run  func(ShardOptions) error
	}{
		{"RunSharded", func(o ShardOptions) error { _, err := RunSharded(cfg, o); return err }},
		{"RunShardedTCP", func(o ShardOptions) error { _, err := RunShardedTCP(cfg, o); return err }},
		{"ServeShards", func(o ShardOptions) error { _, err := ServeShards(cfg, o, "127.0.0.1:0"); return err }},
	}
	for _, kills := range [][]ShardKill{
		{{Slice: 4, AfterResults: 1}},
		{{Slice: -1, AfterResults: 1}},
		{{Slice: 1, AfterResults: 1}, {Slice: 1, AfterResults: 3}},
		{{Slice: 0, AfterResults: -1}},
	} {
		for _, r := range runs {
			err := r.run(ShardOptions{Shards: 4, Dir: t.TempDir(), Kills: kills})
			if err == nil || !strings.Contains(err.Error(), "never fire") {
				t.Fatalf("%s with kills %v on 4 shards: err %v, want a never-fire refusal", r.name, kills, err)
			}
		}
	}
	serve := runs[2].run
	if err := serve(ShardOptions{Shards: 4, Dir: t.TempDir(), Kills: []ShardKill{{Slice: 0, AfterResults: 1}}}); err == nil ||
		!strings.Contains(err.Error(), "never fire") {
		t.Fatalf("ServeShards with a kill: err %v, want a never-fire refusal", err)
	}
}
