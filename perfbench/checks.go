package main

// checks.go holds the output checks the batch workloads share: the
// generator's ground truth (appmodel.GroundTruth, which no pipeline reads)
// and the byte-identity of an export with the committed single-process
// reference.

import (
	"bytes"
	"fmt"
	"os"
	"sort"
	"syscall"
	"time"

	"pinscope"
	"pinscope/internal/appmodel"
	"pinscope/internal/core"
	"pinscope/internal/worldgen"
)

// paperCoreConfig is pinscope.PaperConfig() as the core layer runs it: the
// derivation pinscope applies on the way in (CrossProducts is CommonSize +
// CommonSize/4, not worldgen.DefaultParams' 700). The study workload's
// byte-identity check against the reference export proves the two agree.
func paperCoreConfig() core.Config {
	pc := pinscope.PaperConfig()
	p := worldgen.DefaultParams()
	p.Seed = pc.Seed
	p.CommonSize, p.PopularSize, p.RandomSize = pc.CommonSize, pc.PopularSize, pc.RandomSize
	p.StoreAndroid, p.StoreIOS = pc.StoreAndroid, pc.StoreIOS
	p.CrossProducts = p.CommonSize + p.CommonSize/4
	return core.Config{Params: p, Window: pc.Window, Workers: workers}
}

// truth indexes the apps of a world's six dataset listings.
type truth struct {
	apps      map[string]*appmodel.App // "platform/id" -> app
	keys      []string                 // sorted
	commonIOS map[string]bool
}

func newTruth(w *worldgen.World) *truth {
	t := &truth{apps: map[string]*appmodel.App{}, commonIOS: map[string]bool{}}
	for _, ds := range w.DS.All() {
		for _, l := range ds.Listings {
			key := string(l.Platform) + "/" + l.ID
			if t.apps[key] == nil {
				t.apps[key] = w.App(l)
				t.keys = append(t.keys, key)
			}
			if ds == w.DS.CommonIOS {
				t.commonIOS[key] = true
			}
		}
	}
	sort.Strings(t.keys)
	return t
}

// check holds an export to the ground truth and returns how many listed
// apps lack exactly one result (failed operations). Violations of the
// detector's contract are recorded as problems on r.
func (t *truth) check(ds *core.ExportedDataset, r *report) (missing int64) {
	seen := map[string]int{}
	pinnedDests := map[string]bool{}
	falseNeg, missedHosts := 0, 0
	for i := range ds.Apps {
		a := &ds.Apps[i]
		key := a.Platform + "/" + a.ID
		seen[key]++
		app := t.apps[key]
		if app == nil {
			r.problem("export has a result for %s, which no dataset lists", key)
			continue
		}
		truePins := app.PinnedHostSet()
		for _, d := range a.PinnedDomains {
			pinnedDests[d] = true
			if !truePins[d] {
				r.problem("%s: reported pinned destination %s is not one of its truly pinned hosts", key, d)
			}
			delete(truePins, d)
		}
		missedHosts += len(truePins)
		switch {
		case a.PinsDynamic && !app.Truth.PinsAtRuntime:
			r.problem("%s: false positive (reported pinning, does not pin)", key)
		case !a.PinsDynamic && app.Truth.PinsAtRuntime:
			if !t.associatedDomainMiss(key, app) {
				r.problem("%s: false negative outside the §4.5 associated-domain case", key)
			}
			falseNeg++
		}
	}
	for _, key := range t.keys {
		if seen[key] != 1 {
			missing++
			if seen[key] > 1 {
				r.problem("%s has %d results, want exactly one", key, seen[key])
			}
		}
	}
	probed := map[string]bool{}
	for _, p := range ds.Destinations {
		probed[p.Host] = true
		classes := 0
		for _, c := range []bool{p.DefaultPKI, p.CustomPKI, p.SelfSigned, p.Unavailable} {
			if c {
				classes++
			}
		}
		if classes != 1 {
			r.problem("destination %s has %d PKI classes, want exactly one", p.Host, classes)
		}
		if !pinnedDests[p.Host] {
			r.problem("destination %s was probed but no app pins it", p.Host)
		}
	}
	for d := range pinnedDests {
		if !probed[d] {
			r.problem("pinned destination %s was never probed", d)
		}
	}
	fmt.Fprintf(os.Stderr, "perfbench: ground truth: %d apps, %d without exactly one result, %d §4.5 false negatives, %d truly pinned hosts not reported\n",
		len(t.keys), missing, falseNeg, missedHosts)
	return missing
}

// associatedDomainMiss reports whether a missed pinner is the case §4.5
// documents: an iOS app outside Common (no delayed re-run) whose pinned
// hosts all lie among its associated domains, which the detector must
// exclude because iOS contacts them on install.
func (t *truth) associatedDomainMiss(key string, app *appmodel.App) bool {
	if app.Platform != appmodel.IOS || t.commonIOS[key] {
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

// checkReference compares an export with the committed reference.
func checkReference(got []byte, what string, r *report) {
	ref, err := os.ReadFile(referencePath)
	if err != nil {
		r.problem("read %s: %v", referencePath, err)
		return
	}
	if bytes.Equal(got, ref) {
		return
	}
	at := 0
	for at < len(got) && at < len(ref) && got[at] == ref[at] {
		at++
	}
	r.problem("%s differs from %s at byte %d (%d vs %d bytes); if the export changed on purpose, remake the reference with: %s",
		what, referencePath, at, len(got), len(ref), remakeReference)
}

// cpuTime is the CPU time (user plus system) the process has used so far.
// Unlike the wall clock it does not grow while the machine's other guests
// hold the CPU.
func cpuTime() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// peakRSSMB is the process's peak resident set so far.
func peakRSSMB() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return float64(ru.Maxrss) / 1024 // KiB on Linux
}
