package rootprogram

import (
	"testing"

	"pinscope/internal/appmodel"
	"pinscope/internal/detrand"
	"pinscope/internal/pki"
)

func buildTL(t *testing.T) (*Timeline, *pki.Ecosystem) {
	t.Helper()
	rng := detrand.New(7)
	eco, err := pki.BuildEcosystem(rng.Child("pki"))
	if err != nil {
		t.Fatal(err)
	}
	tl, err := BuildTimeline(rng.Child("rootprogram"), eco)
	if err != nil {
		t.Fatal(err)
	}
	return tl, eco
}

// Applying deltas froyo→kitkat then cloning must equal building kitkat
// directly from its cumulative delta: byte-identical digests (the ISSUE's
// materialization invariant).
func TestIncrementalEqualsDirect(t *testing.T) {
	tl, _ := buildTL(t)
	for _, prog := range []*Program{tl.Android, tl.IOS} {
		// Incremental: walk every release via Apply, cloning at the end.
		var prev *pki.RootStore
		for _, r := range prog.Releases {
			prev = r.Apply(prev, "inc@"+r.Tag)
		}
		inc := prev.Clone("inc-clone")

		// Direct: collapse all deltas into one and apply it to nil.
		var flat Delta
		removed := map[string]bool{}
		for _, r := range prog.Releases {
			for _, fp := range r.Remove {
				removed[fp] = true
			}
		}
		for _, r := range prog.Releases {
			for _, c := range r.Add {
				if !removed[Fingerprint(c)] {
					flat.Add = append(flat.Add, c)
				}
			}
		}
		direct := Release{Tag: prog.Latest().Tag, Delta: flat}.Apply(nil, "direct")

		if inc.Digest() != direct.Digest() {
			t.Errorf("%s: incremental+clone digest != direct-build digest", prog.Platform)
		}

		// And the memoized Materialize path agrees with both.
		mat, err := prog.Materialize(prog.Latest().Tag)
		if err != nil {
			t.Fatal(err)
		}
		if mat.Digest() != inc.Digest() {
			t.Errorf("%s: Materialize digest != incremental digest", prog.Platform)
		}
	}
}

// Distrust subtraction is keyed by fingerprint and preserves store order,
// so events sharing a logical date commute: any application order yields
// the same bytes.
func TestDistrustOrderIndependentWithinDate(t *testing.T) {
	tl, _ := buildTL(t)
	base, err := tl.Android.Materialize("kitkat")
	if err != nil {
		t.Fatal(err)
	}
	e1, e2 := tl.Events[1], tl.Events[2]

	oneShot := Release{Tag: "x", Delta: Delta{Remove: []string{e1.Fingerprint, e2.Fingerprint}}}.Apply(base, "both")
	swapped := Release{Tag: "x", Delta: Delta{Remove: []string{e2.Fingerprint, e1.Fingerprint}}}.Apply(base, "both-swapped")
	stepwise := Release{Tag: "x", Delta: Delta{Remove: []string{e2.Fingerprint}}}.Apply(
		Release{Tag: "x", Delta: Delta{Remove: []string{e1.Fingerprint}}}.Apply(base, "step1"), "step2")

	if oneShot.Digest() != swapped.Digest() {
		t.Error("distrust removal is order-dependent within a date")
	}
	if oneShot.Digest() != stepwise.Digest() {
		t.Error("batched distrust removal differs from stepwise removal")
	}

	// The Timeline API gives all events with Date <= point date at once;
	// reversing the event stream must not change StoresAt output.
	pt, err := tl.PointByTag("distrust-ca-distrust")
	if err != nil {
		t.Fatal(err)
	}
	a1, i1, err := tl.StoresAt(pt)
	if err != nil {
		t.Fatal(err)
	}
	rev := &Timeline{Android: tl.Android, IOS: tl.IOS}
	for k := len(tl.Events) - 1; k >= 0; k-- {
		ev := tl.Events[k]
		ev.Date = pt.Date // collapse all events onto one logical date
		rev.Events = append(rev.Events, ev)
	}
	a2, i2, err := rev.StoresAt(Point{Tag: pt.Tag, Date: pt.Date, Android: pt.Android, IOS: pt.IOS})
	if err != nil {
		t.Fatal(err)
	}
	if a1.Digest() != a2.Digest() || i1.Digest() != i2.Digest() {
		t.Error("StoresAt depends on event-stream order within a date")
	}
}

// The newest release of each line must trust exactly the same root set as
// the static ecosystem stores — the longitudinal study's latest point
// reproduces the snapshot study's world.
func TestLatestReleaseMatchesEcosystem(t *testing.T) {
	tl, eco := buildTL(t)
	check := func(prog *Program, want *pki.RootStore) {
		got, err := prog.Materialize(prog.Latest().Tag)
		if err != nil {
			t.Fatal(err)
		}
		if got.Len() != want.Len() {
			t.Fatalf("%s latest: %d roots, ecosystem store has %d", prog.Platform, got.Len(), want.Len())
		}
		for _, c := range want.Certs() {
			if !got.Contains(c) {
				t.Errorf("%s latest missing %q", prog.Platform, c.Subject.CommonName)
			}
		}
	}
	check(tl.Android, eco.OEM)
	check(tl.IOS, eco.IOS)
}

// Materialize memoizes: repeated calls return the same store pointer with
// a pre-warmed digest, and earlier releases materialized as a side effect
// are shared too.
func TestMaterializeMemoized(t *testing.T) {
	tl, _ := buildTL(t)
	a, err := tl.Android.Materialize("kitkat")
	if err != nil {
		t.Fatal(err)
	}
	b, err := tl.Android.Materialize("kitkat")
	if err != nil {
		t.Fatal(err)
	}
	if a != b {
		t.Error("Materialize did not memoize the release store")
	}
	froyo1, _ := tl.Android.Materialize("froyo")
	froyo2, _ := tl.Android.Materialize("froyo")
	if froyo1 != froyo2 {
		t.Error("intermediate releases not memoized")
	}
	if _, err := tl.Android.Materialize("donut"); err == nil {
		t.Error("unknown release tag must error")
	}
}

// Same seed, same timeline: tags, dates, fingerprints and store digests
// all reproduce.
func TestTimelineDeterministic(t *testing.T) {
	t1, _ := buildTL(t)
	t2, _ := buildTL(t)
	p1, p2 := t1.Points(), t2.Points()
	if len(p1) != len(p2) {
		t.Fatalf("point counts differ: %d vs %d", len(p1), len(p2))
	}
	for i := range p1 {
		if !samePoint(p1[i], p2[i]) {
			t.Fatalf("point %d differs: %+v vs %+v", i, p1[i], p2[i])
		}
		a1, i1, err := t1.StoresAt(p1[i])
		if err != nil {
			t.Fatal(err)
		}
		a2, i2, err := t2.StoresAt(p2[i])
		if err != nil {
			t.Fatal(err)
		}
		// The SPKI fingerprint sets — everything the timeline keys on —
		// must reproduce exactly.
		if fpSet(a1) != fpSet(a2) || fpSet(i1) != fpSet(i2) {
			t.Fatalf("point %q: store fingerprint sets differ across identical seeds", p1[i].Tag)
		}
	}
	for i := range t1.Events {
		if t1.Events[i] != t2.Events[i] {
			t.Fatalf("event %d differs across identical seeds", i)
		}
	}
}

// fpSet concatenates a store's SPKI fingerprints in insertion order.
func fpSet(rs *pki.RootStore) string {
	var s string
	for _, c := range rs.Certs() {
		s += Fingerprint(c) + "\n"
	}
	return s
}

// samePoint compares two points field by field (Point holds a slice, so
// it is not ==-comparable).
func samePoint(a, b Point) bool {
	if a.Tag != b.Tag || a.Date != b.Date || a.Android != b.Android || a.IOS != b.IOS {
		return false
	}
	if len(a.Distrusted) != len(b.Distrusted) {
		return false
	}
	for i := range a.Distrusted {
		if a.Distrusted[i] != b.Distrusted[i] {
			return false
		}
	}
	return true
}

// Release assignment is platform-aware, deterministic, and weighted toward
// recent releases.
func TestAssignRelease(t *testing.T) {
	tl, _ := buildTL(t)
	rng := detrand.New(99)
	counts := map[string]int{}
	for i := 0; i < 2000; i++ {
		tag := tl.AssignRelease(rng.ChildN("app", i), appmodel.Android)
		if _, err := tl.Android.Materialize(tag); err != nil {
			t.Fatalf("assigned unknown release %q", tag)
		}
		counts[tag]++
	}
	if counts["kitkat"] <= counts["froyo"] {
		t.Errorf("expected recent releases to dominate: kitkat=%d froyo=%d", counts["kitkat"], counts["froyo"])
	}
	tag := tl.AssignRelease(detrand.New(5), appmodel.IOS)
	if _, err := tl.IOS.Materialize(tag); err != nil {
		t.Fatalf("iOS assignment yielded Android tag %q", tag)
	}
	// Determinism: same child stream, same draw.
	r1 := tl.AssignRelease(detrand.New(42).Child("x"), appmodel.Android)
	r2 := tl.AssignRelease(detrand.New(42).Child("x"), appmodel.Android)
	if r1 != r2 {
		t.Error("AssignRelease not deterministic")
	}
}

// Points are date-ordered with deterministic tie-breaks, and each point
// reports the releases in effect plus the distrust events already in
// force.
func TestPointsOrdering(t *testing.T) {
	tl, _ := buildTL(t)
	pts := tl.Points()
	if len(pts) != len(tl.Android.Releases)+len(tl.IOS.Releases)+len(tl.Events) {
		t.Fatalf("expected one point per release and event, got %d", len(pts))
	}
	for i := 1; i < len(pts); i++ {
		if pts[i].Date < pts[i-1].Date {
			t.Fatalf("points out of date order at %d: %+v after %+v", i, pts[i], pts[i-1])
		}
	}
	first := pts[0]
	if first.Tag != "froyo" || first.Android != "froyo" {
		t.Errorf("first point should be froyo, got %+v", first)
	}
	last := pts[len(pts)-1]
	if last.Android != "kitkat" || last.IOS != "ios14" {
		t.Errorf("last point should see both latest releases, got %+v", last)
	}
	if len(last.Distrusted) != len(tl.Events) {
		t.Errorf("last point should have all %d events in force, got %v", len(tl.Events), last.Distrusted)
	}
	ev, err := tl.Event("ca-distrust")
	if err != nil {
		t.Fatal(err)
	}
	if len(ev.Fingerprint) != 64 {
		t.Errorf("fingerprint should be hex sha256, got %q", ev.Fingerprint)
	}
}
