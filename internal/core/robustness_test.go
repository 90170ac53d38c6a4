package core

import (
	"bytes"
	"testing"

	"pinscope/internal/appmodel"
	"pinscope/internal/faultinject"
)

func runCfg(t *testing.T, cfg Config) *Study {
	t.Helper()
	s, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	return s
}

func exportBytes(t *testing.T, s *Study) []byte {
	t.Helper()
	var buf bytes.Buffer
	if err := s.WriteJSON(&buf); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

func TestZeroFaultRateIsByteIdentical(t *testing.T) {
	// A zero-rate plan (even with a retry budget) must be a strict no-op:
	// the exported dataset matches a run without any plan, byte for byte.
	plain := runCfg(t, TestConfig(31))

	cfg := TestConfig(31)
	cfg.Faults = faultinject.NewPlan(31, faultinject.Uniform(0))
	cfg.Retries = 3
	zeroed := runCfg(t, cfg)

	if !bytes.Equal(exportBytes(t, plain), exportBytes(t, zeroed)) {
		t.Fatal("zero-rate fault plan changed the exported dataset")
	}

	// Accounting sanity on the clean run: single attempts, full confidence,
	// nothing quarantined, and every iOS Common verdict from the §4.5
	// delayed re-run (ties go to it).
	st := zeroed.Robustness()
	if st.Apps == 0 || st.Attempts != st.Apps {
		t.Fatalf("clean run consumed %d attempts for %d apps", st.Attempts, st.Apps)
	}
	if st.Retried != 0 || st.Quarantined != 0 || st.Full != st.Apps {
		t.Fatalf("clean run accounting off: %+v", st)
	}
	nCommonIOS := len(zeroed.World.DS.CommonIOS.Listings)
	if st.DelayedRerunKept != nCommonIOS {
		t.Fatalf("delayed re-run kept for %d iOS Common apps, want %d", st.DelayedRerunKept, nCommonIOS)
	}
}

func TestFaultedStudyIsDeterministicAcrossSchedules(t *testing.T) {
	// Fault decisions are pure functions of (seed, scope), so the same plan
	// must produce identical results no matter how work lands on workers.
	mk := func(workers int) Config {
		cfg := TestConfig(32)
		cfg.Faults = faultinject.NewPlan(32, faultinject.Uniform(0.15))
		cfg.Retries = 2
		cfg.Workers = workers
		return cfg
	}
	a := runCfg(t, mk(4))
	b := runCfg(t, mk(2))
	if !bytes.Equal(exportBytes(t, a), exportBytes(t, b)) {
		t.Fatal("faulted study output depends on worker scheduling")
	}
}

func TestStudySurvivesHeavyFaults(t *testing.T) {
	cfg := TestConfig(33)
	cfg.Faults = faultinject.NewPlan(33, faultinject.Uniform(0.2))
	cfg.Retries = 2
	s := runCfg(t, cfg)

	// Quarantine, not abort: every dataset listing still has a result with
	// a usable (possibly empty) dynamic verdict.
	for _, ds := range s.World.DS.All() {
		for _, l := range ds.Listings {
			r := s.ResultForListing(l)
			if r == nil {
				t.Fatalf("no result for %s/%s", l.Platform, l.ID)
			}
			if r.Dyn == nil || r.Dyn.Verdicts == nil {
				t.Fatalf("%s/%s: nil dynamic result under faults", l.Platform, l.ID)
			}
			if r.Quarantined && r.Err == nil && r.StaticErr == nil {
				t.Fatalf("%s/%s: quarantined without a recorded failure", l.Platform, l.ID)
			}
		}
	}
	st := s.Robustness()
	if st.Attempts <= st.Apps {
		t.Fatalf("20%% faults triggered no retries: %+v", st)
	}
	if st.Retried == 0 {
		t.Fatalf("no app was retried: %+v", st)
	}
	if st.Full+st.DynamicOnly+st.StaticOnly+st.None != st.Apps {
		t.Fatalf("confidence counts do not partition apps: %+v", st)
	}
	t.Logf("robustness at 20%%: %+v", st)
}

func TestDegradationAndQuarantinePaths(t *testing.T) {
	// Decryption failing on every attempt degrades iOS apps to
	// dynamic-only; adding certain crashes drives some apps to quarantine.
	// A crash lands anywhere in the window, so an app loses its dynamic
	// legs only when it dies before its first connection on every
	// attempt: a few apps per mini world, none in some (seed 39 has four).
	cfg := TestConfig(39)
	cfg.Faults = faultinject.NewPlan(39, faultinject.Rates{DecryptFail: 1})
	cfg.Retries = 1
	s := runCfg(t, cfg)
	st := s.Robustness()
	if st.DynamicOnly == 0 {
		t.Fatalf("certain decryption failure produced no dynamic-only results: %+v", st)
	}
	if st.Retried == 0 {
		t.Fatal("below-full confidence did not trigger retries")
	}
	for _, ds := range s.World.DS.All() {
		for _, l := range ds.Listings {
			r := s.ResultForListing(l)
			if l.Platform == appmodel.Android && r.Confidence != ConfidenceFull {
				t.Fatalf("android app %s degraded by an iOS-only fault", l.ID)
			}
		}
	}

	cfg = TestConfig(39)
	cfg.Faults = faultinject.NewPlan(39, faultinject.Rates{DecryptFail: 1, AppCrash: 1})
	cfg.Retries = 1
	s = runCfg(t, cfg)
	st = s.Robustness()
	if st.None == 0 || st.Quarantined == 0 {
		t.Fatalf("total static+dynamic loss quarantined nothing: %+v", st)
	}
	if st.Quarantined != st.None {
		t.Fatalf("quarantine must equal zero-confidence count: %+v", st)
	}
	t.Logf("forced degradation: %+v", st)
}
