package faultinject

import (
	"crypto/sha256"
	"fmt"
	"reflect"
	"sort"
	"sync"
	"sync/atomic"
	"testing"
)

func TestNilAndZeroPlansInjectNothing(t *testing.T) {
	var nilPlan *Plan
	if nilPlan.Enabled() {
		t.Fatal("nil plan enabled")
	}
	if nilPlan.ForApp("a", 0) != nil {
		t.Fatal("nil plan yielded app faults")
	}
	zero := NewPlan(1, Uniform(0))
	if zero.Enabled() {
		t.Fatal("zero-rate plan enabled")
	}
	if zero.ForApp("a", 0) != nil {
		t.Fatal("zero-rate plan yielded app faults")
	}

	// Nil AppFaults views are inert.
	var af *AppFaults
	if af.DecryptFails() {
		t.Fatal("nil app faults failed decryption")
	}
	if af.NetTap("baseline") != nil {
		t.Fatal("nil app faults produced a tap")
	}
	if w, ok := af.Run("baseline").TruncatedWindow(30); ok || w != 30 {
		t.Fatal("nil run faults truncated the window")
	}
	if _, ok := af.Run("baseline").CrashTime(30); ok {
		t.Fatal("nil run faults crashed the app")
	}
	if af.ForgeTap().ForgeFails("x.example") {
		t.Fatal("nil forge tap failed")
	}
}

func TestDecisionsAreDeterministicAndScopeKeyed(t *testing.T) {
	p1 := NewPlan(42, Uniform(0.5))
	p2 := NewPlan(42, Uniform(0.5))

	a1 := p1.ForApp("app.one", 0)
	a2 := p2.ForApp("app.one", 0)
	for _, host := range []string{"a.example", "b.example", "c.example"} {
		cf1 := a1.NetTap("mitm").ConnFaults(host, 3.5)
		cf2 := a2.NetTap("mitm").ConnFaults(host, 3.5)
		if cf1.ResetAfter != cf2.ResetAfter {
			t.Fatalf("reset decision differs for %s: %d vs %d", host, cf1.ResetAfter, cf2.ResetAfter)
		}
		for i := 0; i < 8; i++ {
			if cf1.DropCaptureRecord(i) != cf2.DropCaptureRecord(i) {
				t.Fatalf("drop decision differs for %s record %d", host, i)
			}
		}
		if a1.ForgeTap().ForgeFails(host) != a2.ForgeTap().ForgeFails(host) {
			t.Fatalf("forge decision differs for %s", host)
		}
	}

	// Attempts decorrelate: across many apps, attempt 0 and 1 must not
	// always agree.
	differ := false
	for i := 0; i < 64 && !differ; i++ {
		key := "app" + string(rune('a'+i%26)) + string(rune('a'+i/26))
		d0 := p1.ForApp(key, 0).DecryptFails()
		d1 := p1.ForApp(key, 1).DecryptFails()
		if d0 != d1 {
			differ = true
		}
	}
	if !differ {
		t.Fatal("attempt scoping does not decorrelate decisions")
	}

	// Run legs decorrelate too.
	differ = false
	for i := 0; i < 64 && !differ; i++ {
		host := "h" + string(rune('a'+i%26)) + ".example"
		b := a1.NetTap("baseline").ConnFaults(host, 1)
		m := a1.NetTap("mitm").ConnFaults(host, 1)
		if (b.ResetAfter > 0) != (m.ResetAfter > 0) {
			differ = true
		}
	}
	if !differ {
		t.Fatal("run-leg scoping does not decorrelate decisions")
	}
}

func TestRatesBite(t *testing.T) {
	p := NewPlan(7, Uniform(0.2))
	a := p.ForApp("bite", 0)

	resets, drops, crashes, truncs := 0, 0, 0, 0
	const n = 500
	for i := 0; i < n; i++ {
		host := "host" + string(rune('a'+i%26)) + ".example"
		cf := a.NetTap("baseline").ConnFaults(host, float64(i))
		if cf.ResetAfter > 0 {
			resets++
			if cf.ResetAfter < 1 || cf.ResetAfter > 4 {
				t.Fatalf("reset budget %d outside handshake range", cf.ResetAfter)
			}
		}
		if cf.DropCaptureRecord(i % 8) {
			drops++
		}
		rf := p.ForApp("bite"+string(rune('a'+i%26)), i).Run("baseline")
		if _, ok := rf.CrashTime(30); ok {
			crashes++
		}
		if w, ok := rf.TruncatedWindow(30); ok {
			truncs++
			if w <= 0 || w >= 30 {
				t.Fatalf("truncated window %.2f out of range", w)
			}
		}
	}
	check := func(name string, got int) {
		// 20% ± generous tolerance on 500 samples.
		if got < n/10 || got > n*3/10 {
			t.Fatalf("%s rate implausible: %d/%d", name, got, n)
		}
	}
	check("reset", resets)
	check("drop", drops)
	check("crash", crashes)
	check("trunc", truncs)
}

// fire is one attempt to send result (slice, item): the worker's kill
// tap first, then the network — the order a worker and the simulated
// network consult an armed plan in.
func fire(a *ArmedPlan, slice, item int) FrameFaults {
	torn, kill := a.Kill(slice, item)
	if kill {
		return FrameFaults{Kill: true, TornBytes: torn}
	}
	return a.Send(slice, item)
}

func TestArmedPlanFiresEachFaultOnce(t *testing.T) {
	if ShardPlan(nil).Arm() != nil || (ShardPlan{}).Arm() != nil {
		t.Fatal("an empty plan armed to a view")
	}
	var none *ArmedPlan
	if fire(none, 0, 0) != (FrameFaults{}) {
		t.Fatal("a nil view fired")
	}

	// Each kind fires at its frame only, and only once.
	for _, ff := range []FrameFaults{
		{Kill: true, TornBytes: 7}, {Drop: true}, {Dup: true}, {Delay: 40}, {Partition: 90},
	} {
		a := ShardPlan{{Slice: 1, Item: 2}: ff}.Arm()
		for _, at := range []Frame{{0, 2}, {1, 1}, {1, 3}} {
			if got := fire(a, at.Slice, at.Item); got != (FrameFaults{}) {
				t.Fatalf("%+v fired at %+v: %+v", ff, at, got)
			}
		}
		if got := fire(a, 1, 2); got != ff {
			t.Fatalf("%+v fired as %+v", ff, got)
		}
		if got := fire(a, 1, 2); got != (FrameFaults{}) {
			t.Fatalf("%+v fired twice: %+v", ff, got)
		}
	}

	// Two kinds on one frame both fire: a kill, then the delay on the
	// takeover's send; a delay and a duplicate on the same send.
	a := ShardPlan{{Slice: 0, Item: 1}: {Kill: true, TornBytes: 3, Delay: 40}}.Arm()
	if got := fire(a, 0, 1); got != (FrameFaults{Kill: true, TornBytes: 3}) {
		t.Fatalf("first send of a killed and delayed frame: %+v, want the kill", got)
	}
	if got := fire(a, 0, 1); got != (FrameFaults{Delay: 40}) {
		t.Fatalf("takeover's send: %+v, want the delay", got)
	}
	a = ShardPlan{{Slice: 0, Item: 1}: {Delay: 40, Dup: true}}.Arm()
	if got := fire(a, 0, 1); got != (FrameFaults{Delay: 40, Dup: true}) {
		t.Fatalf("delayed duplicate fired as %+v", got)
	}

	// A partition swallows its frame: the delay on it fires when the
	// takeover resends the frame.
	a = ShardPlan{{Slice: 2, Item: 0}: {Partition: 90, Delay: 40}}.Arm()
	for i, want := range []FrameFaults{{Partition: 90}, {Delay: 40}, {}} {
		if got := fire(a, 2, 0); got != want {
			t.Fatalf("send %d of a partitioned, delayed frame: %+v, want %+v", i, got, want)
		}
	}

	// Fire-once holds across goroutines sharing the view.
	a = ShardPlan{{Slice: 0, Item: 0}: {Kill: true}}.Arm()
	var kills atomic.Int32
	var wg sync.WaitGroup
	for i := 0; i < 8; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			if _, kill := a.Kill(0, 0); kill {
				kills.Add(1)
			}
		}()
	}
	wg.Wait()
	if n := kills.Load(); n != 1 {
		t.Fatalf("kill fired %d times across goroutines, want 1", n)
	}
}

// Per-kind renderings of a plan: the shape of the per-kind fault lists
// the digest below was taken over, one entry per fault.
type (
	kill  struct{ Slice, AfterResults, TornBytes int }
	delay struct {
		Slice, Item int
		Ticks       int64
	}
	frameHit  struct{ Slice, Item int }
	partition struct {
		Slice, AfterItem int
		Ticks            int64
	}
)

type kindLists struct {
	Kills       []kill
	Delays      []delay
	Dups, Drops []frameHit
	Partitions  []partition
}

// lists renders p per kind, each list in slice order — the order the
// derivation draws slices in, and (with at most one fault of a kind per
// slice) the order its per-kind lists were appended in.
func lists(p ShardPlan) kindLists {
	frames := make([]Frame, 0, len(p))
	for f := range p {
		frames = append(frames, f)
	}
	sort.Slice(frames, func(i, j int) bool {
		if frames[i].Slice != frames[j].Slice {
			return frames[i].Slice < frames[j].Slice
		}
		return frames[i].Item < frames[j].Item
	})
	var l kindLists
	for _, f := range frames {
		ff := p[f]
		if ff.Kill {
			l.Kills = append(l.Kills, kill{f.Slice, f.Item, ff.TornBytes})
		}
		if ff.Delay > 0 {
			l.Delays = append(l.Delays, delay{f.Slice, f.Item, ff.Delay})
		}
		if ff.Dup {
			l.Dups = append(l.Dups, frameHit{f.Slice, f.Item})
		}
		if ff.Drop {
			l.Drops = append(l.Drops, frameHit{f.Slice, f.Item})
		}
		if ff.Partition > 0 {
			l.Partitions = append(l.Partitions, partition{f.Slice, f.Item, ff.Partition})
		}
	}
	return l
}

func TestDeriveShardPlanDeterministicAndCapped(t *testing.T) {
	items := []int{10, 10, 10, 10, 10, 10, 10, 10}
	a := DeriveShardPlan(77, 0.9, 4, items)
	b := DeriveShardPlan(77, 0.9, 4, items)
	if a == nil || b == nil {
		t.Fatal("high-rate derivation produced no faults")
	}
	if !reflect.DeepEqual(a, b) {
		t.Fatalf("same seed produced different plans:\n%+v\n%+v", a, b)
	}
	kills := lists(a).Kills
	if len(kills) > 3 {
		t.Fatalf("%d kills with 4 workers: no survivor guaranteed", len(kills))
	}
	for _, k := range kills {
		if k.AfterResults < 0 || k.AfterResults >= items[k.Slice] {
			t.Fatalf("kill point %d outside slice of %d items", k.AfterResults, items[k.Slice])
		}
	}
	if DeriveShardPlan(77, 0, 4, items) != nil {
		t.Fatal("rate 0 produced a plan")
	}
	if c := lists(DeriveShardPlan(78, 0.9, 4, items)).Kills; reflect.DeepEqual(c, kills) && len(kills) > 0 {
		t.Log("seed 77 and 78 derived identical kills (unlikely but legal)")
	}
}

func TestDeriveShardPlanNetFamilyCappedAndDeterministic(t *testing.T) {
	items := []int{10, 10, 10, 10, 10, 10, 10, 10}
	a := DeriveShardPlan(311, 1.0, 4, items)
	b := DeriveShardPlan(311, 1.0, 4, items)
	l := lists(a)
	if len(l.Delays)+len(l.Dups)+len(l.Drops)+len(l.Partitions) == 0 {
		t.Fatalf("rate-1.0 derivation injected no network chaos: %+v", a)
	}
	if !reflect.DeepEqual(a, b) {
		t.Fatalf("same seed derived different plans:\n%+v\n%+v", a, b)
	}

	// Progress cap: the faults that hamper progress — kills, drops
	// (severed conns), partitions — must leave at least one slice on a
	// never-severed link.
	hampered := len(l.Kills) + len(l.Drops) + len(l.Partitions)
	if hampered > len(items)-1 {
		t.Fatalf("%d hampering faults across %d slices: no guaranteed progress", hampered, len(items))
	}
	// A killed slice draws no drop or partition on top: the kill already
	// severs its connection.
	killed := map[int]bool{}
	for _, k := range l.Kills {
		killed[k.Slice] = true
	}
	for _, d := range l.Drops {
		if killed[d.Slice] {
			t.Fatalf("slice %d drew both a kill and a drop", d.Slice)
		}
	}
	for _, p := range l.Partitions {
		if killed[p.Slice] {
			t.Fatalf("slice %d drew both a kill and a partition", p.Slice)
		}
	}

	// Every fault point stays inside its slice, and durations are drawn
	// relative to NetTTL so they interact with a lease deadline.
	for f := range a {
		if f.Item < 0 || f.Item >= items[f.Slice] {
			t.Fatalf("fault at item %d outside slice of %d items", f.Item, items[f.Slice])
		}
	}
	for _, d := range l.Delays {
		if d.Ticks < NetTTL/2 {
			t.Fatalf("delay of %d ticks cannot overtake anything meaningful (TTL %d)", d.Ticks, NetTTL)
		}
	}
	for _, p := range l.Partitions {
		if p.Ticks < NetTTL {
			t.Fatalf("partition of %d ticks cannot outlive a lease (TTL %d)", p.Ticks, NetTTL)
		}
	}

	if DeriveShardPlan(311, 0, 4, items) != nil {
		t.Fatal("rate 0 produced a plan")
	}
}

func TestDeriveShardPlanExpiryBecomesPartition(t *testing.T) {
	// The lease-expiry draw became a partition without moving any other
	// draw: this digest of the kills, delays, duplicates and drops of 1,800
	// derived plans was taken from the derivation that still drew lease
	// expiries, so an existing seed kills the same workers at the same
	// results as before.
	h := sha256.New()
	for _, items := range [][]int{{10, 10, 10, 10, 10, 10, 10, 10}, {5, 9, 1, 12}, {0, 3, 7}} {
		for _, workers := range []int{2, 4} {
			for _, rate := range []float64{0.3, 0.6, 1.0} {
				for seed := int64(1); seed <= 100; seed++ {
					p := DeriveShardPlan(seed, rate, workers, items)
					if p == nil {
						fmt.Fprintln(h, "nil")
						continue
					}
					l := lists(p)
					fmt.Fprintf(h, "%v|%v|%v|%v\n", l.Kills, l.Delays, l.Dups, l.Drops)
				}
			}
		}
	}
	const want = "064ff630cbd37ef81abfd0f45b98dcdf91de352ecb6787949f7435ea79e48f8d"
	if got := fmt.Sprintf("%x", h.Sum(nil)); got != want {
		t.Fatalf("kill and network-family draws moved: digest %s, want %s", got, want)
	}

	// And the expiry draw still lands where it did: the expiries that
	// seed 6 drew at rate 0.3 (slice 0 after 1 result, slice 1 after 8,
	// slice 4 after 9, slice 6 after 3) are now its partitions, one per
	// slice, within the cap.
	items := []int{10, 10, 10, 10, 10, 10, 10, 10}
	l := lists(DeriveShardPlan(6, 0.3, 4, items))
	var got [][2]int
	for _, np := range l.Partitions {
		if np.Ticks < NetTTL {
			t.Fatalf("expiry partition %+v cannot outlive a lease (TTL %d)", np, NetTTL)
		}
		got = append(got, [2]int{np.Slice, np.AfterItem})
	}
	if want := [][2]int{{0, 1}, {1, 8}, {4, 9}, {6, 3}}; !reflect.DeepEqual(got, want) {
		t.Fatalf("seed 6 partitions at %v, want the former expiry points %v", got, want)
	}
	if n := len(l.Kills) + len(l.Drops) + len(l.Partitions); n > len(items)-1 {
		t.Fatalf("%d hampering faults across %d slices", n, len(items))
	}
}
