package pinscope

// oracle_test.go holds a study's export to the generator's ground truth
// (appmodel.GroundTruth, which no pipeline reads): every listed app has
// exactly one result, no app is reported pinning that does not pin, every
// reported pinned destination is truly pinned, every missed pinner is the
// §4.5 associated-domain case, and every pinned destination is probed once
// into exactly one PKI class.

import (
	"bytes"
	"fmt"
	"sort"
	"strings"
	"testing"

	"pinscope/internal/appmodel"
	"pinscope/internal/core"
	"pinscope/internal/worldgen"
)

// groundTruth indexes the apps a world's six datasets list.
type groundTruth struct {
	apps      map[string]*appmodel.App // "platform/id" -> app
	commonIOS map[string]bool
}

func newGroundTruth(w *worldgen.World) *groundTruth {
	gt := &groundTruth{apps: map[string]*appmodel.App{}, commonIOS: map[string]bool{}}
	for _, d := range w.DS.All() {
		for _, l := range d.Listings {
			key := string(l.Platform) + "/" + l.ID
			gt.apps[key] = w.App(l)
			if d == w.DS.CommonIOS {
				gt.commonIOS[key] = true
			}
		}
	}
	return gt
}

// problems lists every way ds breaks the detector's contract against the
// ground truth of the world it was measured on.
func (gt *groundTruth) problems(ds *core.ExportedDataset) []string {
	var problems []string
	problem := func(format string, args ...any) {
		problems = append(problems, fmt.Sprintf(format, args...))
	}
	seen := map[string]int{}
	pinnedDests := map[string]bool{}
	for _, a := range ds.Apps {
		key := a.Platform + "/" + a.ID
		seen[key]++
		app := gt.apps[key]
		if app == nil {
			problem("export has a result for %s, which no dataset lists", key)
			continue
		}
		truePins := app.PinnedHostSet()
		for _, d := range a.PinnedDomains {
			pinnedDests[d] = true
			if !truePins[d] {
				problem("%s: reported pinned destination %s is not one of its truly pinned hosts", key, d)
			}
		}
		switch {
		case a.PinsDynamic && !app.Truth.PinsAtRuntime:
			problem("%s: false positive (reported pinning, does not pin)", key)
		case !a.PinsDynamic && app.Truth.PinsAtRuntime && !associatedDomainMiss(app, gt.commonIOS[key]):
			problem("%s: false negative outside the §4.5 associated-domain case", key)
		}
	}
	for key := range gt.apps {
		if seen[key] != 1 {
			problem("%s has %d results, want exactly one", key, seen[key])
		}
	}

	probed := map[string]bool{}
	for _, p := range ds.Destinations {
		if probed[p.Host] {
			problem("destination %s is probed more than once", p.Host)
		}
		probed[p.Host] = true
		classes := 0
		for _, c := range []bool{p.DefaultPKI, p.CustomPKI, p.SelfSigned, p.Unavailable} {
			if c {
				classes++
			}
		}
		if classes != 1 {
			problem("destination %s has %d PKI classes, want exactly one", p.Host, classes)
		}
		if !pinnedDests[p.Host] {
			problem("destination %s was probed but no app pins it", p.Host)
		}
	}
	for d := range pinnedDests {
		if !probed[d] {
			problem("pinned destination %s was never probed", d)
		}
	}
	sort.Strings(problems)
	return problems
}

// associatedDomainMiss reports whether a missed pinner is the case §4.5
// documents: an iOS app outside Common (no delayed re-run) whose pinned
// hosts all lie among its associated domains, which the detector must
// exclude because iOS contacts them on install.
func associatedDomainMiss(app *appmodel.App, inCommon bool) bool {
	if app.Platform != appmodel.IOS || inCommon {
		return false
	}
	assoc := map[string]bool{}
	for _, d := range app.AssociatedDomains {
		assoc[d] = true
	}
	for _, h := range app.Truth.PinnedHosts {
		if !assoc[h] {
			return false
		}
	}
	return true
}

// exported round-trips a study's export through its JSON bytes, so the
// oracle reads what a consumer of the released dataset reads.
func exported(t *testing.T, s *core.Study) *core.ExportedDataset {
	t.Helper()
	var buf bytes.Buffer
	if err := s.WriteJSON(&buf); err != nil {
		t.Fatal(err)
	}
	ds, err := core.ReadJSON(&buf)
	if err != nil {
		t.Fatal(err)
	}
	return ds
}

func assertGroundTruth(t *testing.T, s *core.Study) {
	t.Helper()
	ds := exported(t, s)
	if len(ds.Apps) == 0 || len(ds.Destinations) == 0 {
		t.Fatalf("degenerate export: %d apps, %d destinations", len(ds.Apps), len(ds.Destinations))
	}
	for _, p := range newGroundTruth(s.World).problems(ds) {
		t.Error(p)
	}
}

func TestExportMatchesGroundTruthMini(t *testing.T) {
	assertGroundTruth(t, facadeStudy(t).s)
}

func TestExportMatchesGroundTruthShape(t *testing.T) {
	assertGroundTruth(t, shapeShared(t))
}

// TestGroundTruthOracleCatchesFaults injects one fault at a time into a
// clean export; the oracle must name each.
func TestGroundTruthOracleCatchesFaults(t *testing.T) {
	s := facadeStudy(t).s
	gt := newGroundTruth(s.World)
	faults := []struct {
		name, want string
		inject     func(t *testing.T, ds *core.ExportedDataset)
	}{
		{"false pinned destination", "is not one of its truly pinned hosts", func(t *testing.T, ds *core.ExportedDataset) {
			// Report a probed destination for a pinning app that does
			// not pin it, so only the truly-pinned check can object.
			for i := range ds.Apps {
				a := &ds.Apps[i]
				if !a.PinsDynamic {
					continue
				}
				truePins := gt.apps[a.Platform+"/"+a.ID].PinnedHostSet()
				for _, p := range ds.Destinations {
					if !truePins[p.Host] {
						a.PinnedDomains = append(a.PinnedDomains, p.Host)
						return
					}
				}
			}
			t.Fatal("no pinning app with an unpinned probed destination")
		}},
		{"duplicated app result", "has 2 results, want exactly one", func(t *testing.T, ds *core.ExportedDataset) {
			ds.Apps = append(ds.Apps, ds.Apps[len(ds.Apps)/2])
		}},
		{"probe with two PKI classes", "has 2 PKI classes", func(t *testing.T, ds *core.ExportedDataset) {
			p := &ds.Destinations[0]
			if p.DefaultPKI {
				p.CustomPKI = true
			} else {
				p.DefaultPKI = true
			}
		}},
	}
	for _, f := range faults {
		t.Run(f.name, func(t *testing.T) {
			ds := exported(t, s)
			f.inject(t, ds)
			problems := gt.problems(ds)
			if len(problems) != 1 || !strings.Contains(problems[0], f.want) {
				t.Fatalf("oracle reported %q, want exactly one problem containing %q", problems, f.want)
			}
		})
	}
}
