// Package rootprogram models platform root programs as versioned
// artifacts: an ordered timeline of named releases (android froyo→kitkat,
// a parallel iOS line), each an immutable pki.RootStore derived by
// applying add/remove deltas keyed by root SHA-256 fingerprint, plus a
// deterministic stream of CA-distrust events (mis-issued or leaked roots,
// Superfish/WoSign/TURKTRUST-style) that can be materialized "as of" any
// logical date.
//
// Time is logical throughout: release and event dates are day offsets
// relative to pki.StudyEpoch (negative = before the study snapshot), so
// materialization never consults the host clock. All randomness comes
// from a detrand stream, so the same world seed always yields the same
// timeline, the same injected roots and the same distrust dates.
package rootprogram

import (
	"crypto/sha256"
	"crypto/x509"
	"encoding/hex"
	"fmt"
	"sort"
	"sync"

	"pinscope/internal/appmodel"
	"pinscope/internal/detrand"
	"pinscope/internal/pki"
)

// Fingerprint returns the lowercase hex SHA-256 of the certificate's
// SubjectPublicKeyInfo — the key under which root programs track adds,
// removes and distrust events (certigo antitrust-style, but over the SPKI
// like HPKP pins). The SPKI is derived from detrand, so fingerprints are
// stable across same-seed world rebuilds and survive a root's re-signing
// under the same key, which whole-cert DER does not; a fingerprint that
// changed with a re-signing would break journal resume and distrust
// queries against previously exported snapshots.
func Fingerprint(cert *x509.Certificate) string {
	sum := sha256.Sum256(cert.RawSubjectPublicKeyInfo)
	return hex.EncodeToString(sum[:])
}

// Delta is one release's change set against its predecessor: roots added
// (full certificates, in order) and roots removed (by fingerprint).
type Delta struct {
	Add    []*x509.Certificate
	Remove []string
}

// Release is a named, dated root-store release. Date is a day offset from
// pki.StudyEpoch; releases in a Program are strictly ordered by Date.
type Release struct {
	Tag  string
	Date int
	Delta
}

// Apply materializes this release's store from its predecessor's. prev may
// be nil (first release). Removal preserves the insertion order of the
// surviving roots, so delta application is order-consistent: building a
// release incrementally or from scratch yields byte-identical digests.
func (r Release) Apply(prev *pki.RootStore, name string) *pki.RootStore {
	out := pki.NewRootStore(name)
	removed := make(map[string]bool, len(r.Remove))
	for _, fp := range r.Remove {
		removed[fp] = true
	}
	if prev != nil {
		for _, c := range prev.Certs() {
			if !removed[Fingerprint(c)] {
				out.Add(c)
			}
		}
	}
	for _, c := range r.Add {
		out.Add(c)
	}
	return out
}

// Program is one platform's root program: an ordered timeline of releases.
type Program struct {
	Platform appmodel.Platform
	Releases []Release

	mu    sync.Mutex
	memo  map[string]*pki.RootStore
	index map[string]int
}

// Tags returns the release tags in timeline order.
func (p *Program) Tags() []string {
	tags := make([]string, len(p.Releases))
	for i, r := range p.Releases {
		tags[i] = r.Tag
	}
	return tags
}

// Latest returns the newest release.
func (p *Program) Latest() Release { return p.Releases[len(p.Releases)-1] }

// find returns the index of tag, building the lookup table lazily.
// Caller holds p.mu.
func (p *Program) find(tag string) (int, bool) {
	if p.index == nil {
		p.index = make(map[string]int, len(p.Releases))
		for i, r := range p.Releases {
			p.index[r.Tag] = i
		}
	}
	i, ok := p.index[tag]
	return i, ok
}

// Materialize returns the immutable store shipped with release tag,
// applying deltas from the first release forward. Results are memoized:
// the store (and its content digest, pre-warmed here) is shared by every
// caller, so crypto-plane memo keys never re-hash a release store.
// Callers must treat the returned store as read-only; Clone before
// mutating.
func (p *Program) Materialize(tag string) (*pki.RootStore, error) {
	p.mu.Lock()
	defer p.mu.Unlock()
	if s, ok := p.memo[tag]; ok {
		return s, nil
	}
	i, ok := p.find(tag)
	if !ok {
		return nil, fmt.Errorf("rootprogram: %s has no release %q", p.Platform, tag)
	}
	var prev *pki.RootStore
	for j := 0; j <= i; j++ {
		r := p.Releases[j]
		cur, ok := p.memo[r.Tag]
		if !ok {
			cur = r.Apply(prev, string(p.Platform)+"@"+r.Tag)
			cur.Digest() // pre-warm: the store is immutable from here on
			if p.memo == nil {
				p.memo = make(map[string]*pki.RootStore)
			}
			p.memo[r.Tag] = cur
		}
		prev = cur
	}
	return prev, nil
}

// ReleaseAt returns the newest release with Date <= date (the store a
// device running at that logical date shipped with).
func (p *Program) ReleaseAt(date int) Release {
	cur := p.Releases[0]
	for _, r := range p.Releases {
		if r.Date <= date {
			cur = r
		}
	}
	return cur
}

// DistrustEvent is a CA-distrust incident: at Date, the root identified by
// Fingerprint stops being trusted on every platform (it is subtracted from
// whatever release store is in effect). Slug is a stable, CLI-friendly
// identifier; Reason is display text.
type DistrustEvent struct {
	Slug        string
	Fingerprint string
	Name        string
	Date        int
	Reason      string
}

// Point is one position on the merged timeline: the logical date, the
// release in effect per platform, and the distrust events already in
// force. Tag is the release or event slug that created the point.
type Point struct {
	Tag        string
	Date       int
	Android    string
	IOS        string
	Distrusted []string // event slugs with Date <= this point's Date
}

// Timeline is the full time axis of the study: both platform programs plus
// the distrust-event stream.
type Timeline struct {
	Android *Program
	IOS     *Program
	Events  []DistrustEvent
}

// Points returns the merged timeline: one point per Android release, per
// iOS release and per distrust event, in date order (ties broken by kind:
// releases before events, Android before iOS, then by tag). Each point
// carries the release in effect on both platforms at that date.
func (t *Timeline) Points() []Point {
	type raw struct {
		tag  string
		date int
		kind int // 0 = android release, 1 = ios release, 2 = event
	}
	var rs []raw
	for _, r := range t.Android.Releases {
		rs = append(rs, raw{r.Tag, r.Date, 0})
	}
	for _, r := range t.IOS.Releases {
		rs = append(rs, raw{r.Tag, r.Date, 1})
	}
	for _, e := range t.Events {
		rs = append(rs, raw{"distrust-" + e.Slug, e.Date, 2})
	}
	sort.Slice(rs, func(i, j int) bool {
		if rs[i].date != rs[j].date {
			return rs[i].date < rs[j].date
		}
		if rs[i].kind != rs[j].kind {
			return rs[i].kind < rs[j].kind
		}
		return rs[i].tag < rs[j].tag
	})
	pts := make([]Point, len(rs))
	for i, r := range rs {
		pts[i] = Point{
			Tag:     r.tag,
			Date:    r.date,
			Android: t.Android.ReleaseAt(r.date).Tag,
			IOS:     t.IOS.ReleaseAt(r.date).Tag,
		}
		for _, e := range t.Events {
			if e.Date <= r.date {
				pts[i].Distrusted = append(pts[i].Distrusted, e.Slug)
			}
		}
	}
	return pts
}

// PointByTag returns the point with the given tag.
func (t *Timeline) PointByTag(tag string) (Point, error) {
	for _, p := range t.Points() {
		if p.Tag == tag {
			return p, nil
		}
	}
	return Point{}, fmt.Errorf("rootprogram: no timeline point %q", tag)
}

// Event returns the distrust event with the given slug.
func (t *Timeline) Event(slug string) (DistrustEvent, error) {
	for _, e := range t.Events {
		if e.Slug == slug {
			return e, nil
		}
	}
	return DistrustEvent{}, fmt.Errorf("rootprogram: no distrust event %q", slug)
}

// StoresAt materializes the per-platform stores in effect at point p: the
// release store minus every root distrusted on or before p.Date. Distrust
// subtraction preserves store order and is keyed by fingerprint, so events
// sharing a logical date commute — applying them in any order yields the
// same store bytes.
func (t *Timeline) StoresAt(p Point) (android, ios *pki.RootStore, err error) {
	a, err := t.Android.Materialize(p.Android)
	if err != nil {
		return nil, nil, err
	}
	i, err := t.IOS.Materialize(p.IOS)
	if err != nil {
		return nil, nil, err
	}
	var dead []string
	for _, e := range t.Events {
		if e.Date <= p.Date {
			dead = append(dead, e.Fingerprint)
		}
	}
	if len(dead) == 0 {
		return a, i, nil
	}
	sub := Release{Tag: p.Tag, Delta: Delta{Remove: dead}}
	return sub.Apply(a, a.Name+"@"+p.Tag), sub.Apply(i, i.Name+"@"+p.Tag), nil
}

// ReleaseFor returns the app-facing release tags for platform pf, newest
// last — the population worldgen draws from when assigning each generated
// app the release it shipped against.
func (t *Timeline) ReleaseFor(pf appmodel.Platform) *Program {
	if pf == appmodel.IOS {
		return t.IOS
	}
	return t.Android
}

// AssignRelease draws a release tag for a generated app on platform pf,
// weighted toward recent releases (new apps target new OS versions; a
// long tail still ships against older stores).
func (t *Timeline) AssignRelease(rng *detrand.Source, pf appmodel.Platform) string {
	rel := t.ReleaseFor(pf).Releases
	weights := make([]float64, len(rel))
	w := 1.0
	for i := len(rel) - 1; i >= 0; i-- {
		weights[i] = w
		w *= 0.45
	}
	return rel[rng.WeightedIndex(weights)].Tag
}
