// Package faultinject provides the study's deterministic fault-injection
// layer. The paper's measurement campaign was dominated by operational
// messiness — apps crashing mid-run, connections failing for reasons
// unrelated to pinning (§4.2.2's confounding failures), captures cut off by
// the 30 s window, iOS packages failing to decrypt — and the pipeline's
// robustness claims are only credible if it re-discovers ground truth
// *through* such faults, not in their absence.
//
// A Plan is seeded via internal/detrand and every decision is a pure
// function of (seed, scope label), never of shared mutable state or call
// order: the same app attempt sees the same faults regardless of worker
// scheduling, and a nil Plan (or all-zero Rates) injects nothing at all, so
// fault-free studies stay byte-identical to a build without this package.
//
// Scope hierarchy: Plan → ForApp(key, attempt) → per-run views. Keying the
// app scope by attempt number is what makes faults *transient*: a bounded
// retry of the same app rolls fresh, independent faults, exactly like
// rerunning a flaky app on the bench phone.
package faultinject

import (
	"fmt"
	"strconv"
	"sync"

	"pinscope/internal/detrand"
	"pinscope/internal/netem"
)

// Rates are per-fault injection probabilities in [0, 1].
type Rates struct {
	// ConnReset is the per-connection probability of a mid-handshake TCP
	// reset at the access link (netem layer).
	ConnReset float64
	// RecordDrop is the per-record probability that the monitoring tap
	// misses a record (pcap drop; netem layer).
	RecordDrop float64
	// CaptureTrunc is the per-run probability that the capture window is
	// cut short (device layer).
	CaptureTrunc float64
	// AppCrash is the per-run probability that the app dies mid-run
	// (device layer).
	AppCrash float64
	// DecryptFail is the per-attempt probability of a transient iOS
	// package-decryption failure (the paper's Appendix A obstacle).
	DecryptFail float64
	// ForgeFail is the per-host probability of a transient mitmproxy
	// leaf-forging error.
	ForgeFail float64
}

// Uniform sets every fault class to the same rate — the chaos-sweep knob.
func Uniform(rate float64) Rates {
	return Rates{
		ConnReset:    rate,
		RecordDrop:   rate,
		CaptureTrunc: rate,
		AppCrash:     rate,
		DecryptFail:  rate,
		ForgeFail:    rate,
	}
}

// Any reports whether any fault class has a positive rate.
func (r Rates) Any() bool {
	return r.ConnReset > 0 || r.RecordDrop > 0 || r.CaptureTrunc > 0 ||
		r.AppCrash > 0 || r.DecryptFail > 0 || r.ForgeFail > 0
}

// Plan is a seeded, fully reproducible fault plan for one study run.
type Plan struct {
	seed  int64
	rates Rates
}

// NewPlan builds a plan. All decisions derive from seed, so two plans with
// equal seed and rates inject identical faults.
func NewPlan(seed int64, rates Rates) *Plan {
	return &Plan{seed: seed, rates: rates}
}

// Enabled reports whether the plan can inject anything. Nil-safe.
func (p *Plan) Enabled() bool { return p != nil && p.rates.Any() }

// Rates returns the plan's rates (zero value for a nil plan).
func (p *Plan) Rates() Rates {
	if p == nil {
		return Rates{}
	}
	return p.rates
}

// Seed returns the plan's seed (0 for a nil plan). The journal records it
// so a resumed run can prove it replays the same fault plan.
func (p *Plan) Seed() int64 {
	if p == nil {
		return 0
	}
	return p.seed
}

// ForApp scopes the plan to one measurement attempt of one app. Attempt
// numbers decorrelate retries. Returns nil for a nil or disabled plan, and
// every derived view tolerates a nil receiver, so callers thread a single
// pointer through without guarding.
func (p *Plan) ForApp(key string, attempt int) *AppFaults {
	if !p.Enabled() {
		return nil
	}
	return &AppFaults{plan: p, scope: key + "#" + strconv.Itoa(attempt)}
}

// AppFaults is the fault view of one app measurement attempt.
type AppFaults struct {
	plan  *Plan
	scope string
}

// rng derives the decision stream for one labeled fault. Fresh per call:
// decisions are order-independent and goroutine-safe.
func (a *AppFaults) rng(label string) *detrand.Source {
	return detrand.New(a.plan.seed).Child("fault/" + a.scope + "/" + label)
}

// DecryptFails reports a transient decryption failure for this attempt.
func (a *AppFaults) DecryptFails() bool {
	if a == nil {
		return false
	}
	return a.rng("decrypt").Bool(a.plan.rates.DecryptFail)
}

// NetTap returns the netem.FaultTap for one run leg ("baseline", "mitm",
// "hooked", ...). Nil for a nil receiver — and netem treats a nil tap as
// absent.
func (a *AppFaults) NetTap(run string) netem.FaultTap {
	if a == nil {
		return nil
	}
	return &netTap{af: a, run: run}
}

// Run returns the device-layer fault view for one run leg.
func (a *AppFaults) Run(run string) *RunFaults {
	if a == nil {
		return nil
	}
	return &RunFaults{af: a, run: run}
}

// ForgeTap returns the mitmproxy forge-fault decider for this attempt.
func (a *AppFaults) ForgeTap() *ForgeTap {
	if a == nil {
		return nil
	}
	return &ForgeTap{af: a}
}

// netTap implements netem.FaultTap with decisions keyed by run leg, host
// and dial time.
type netTap struct {
	af  *AppFaults
	run string
}

func connKey(run, host string, at float64) string {
	return run + "/" + host + "@" + strconv.FormatFloat(at, 'g', -1, 64)
}

// ConnFaults implements netem.FaultTap.
func (t *netTap) ConnFaults(host string, at float64) netem.ConnFaults {
	rates := t.af.plan.rates
	key := connKey(t.run, host, at)
	var cf netem.ConnFaults
	if rates.ConnReset > 0 {
		rng := t.af.rng("reset/" + key)
		if rng.Bool(rates.ConnReset) {
			// 1–4 records: always inside the handshake.
			cf.ResetAfter = 1 + rng.Intn(4)
		}
	}
	if rates.RecordDrop > 0 {
		af, dropRate := t.af, rates.RecordDrop
		cf.DropCaptureRecord = func(i int) bool {
			return af.rng("drop/" + key + "#" + strconv.Itoa(i)).Bool(dropRate)
		}
	}
	return cf
}

// RunFaults are the device-layer fault decisions for one run leg.
type RunFaults struct {
	af  *AppFaults
	run string
}

// TruncatedWindow reports whether (and where) the capture window is cut
// short for this run. Nil-safe.
func (r *RunFaults) TruncatedWindow(window float64) (float64, bool) {
	if r == nil {
		return window, false
	}
	rng := r.af.rng("trunc/" + r.run)
	if !rng.Bool(r.af.plan.rates.CaptureTrunc) {
		return window, false
	}
	// Keep 25–90% of the window: a truncation that leaves some signal.
	return window * (0.25 + 0.65*rng.Float64()), true
}

// CrashTime reports whether (and when) the app dies during this run.
// Nil-safe.
func (r *RunFaults) CrashTime(window float64) (float64, bool) {
	if r == nil {
		return 0, false
	}
	rng := r.af.rng("crash/" + r.run)
	if !rng.Bool(r.af.plan.rates.AppCrash) {
		return 0, false
	}
	return window * rng.Float64(), true
}

// ForgeTap decides transient mitmproxy leaf-forging failures.
type ForgeTap struct {
	af *AppFaults
}

// ForgeFails reports a transient forging error for host. Nil-safe.
func (f *ForgeTap) ForgeFails(host string) bool {
	if f == nil {
		return false
	}
	return f.af.rng("forge/" + host).Bool(f.af.plan.rates.ForgeFail)
}

// ErrTransient marks injected transient failures so retries can recognize
// them in logs.
func ErrTransient(kind, subject string) error {
	return fmt.Errorf("faultinject: transient %s failure: %s", kind, subject)
}

// ProcessKill is the power-cut fault family: unlike the transient faults
// above, which degrade a measurement, this one kills the whole process at
// a deterministic point so the crash-recovery path (journal replay,
// torn-tail truncation, resume) is exercised by the same machinery. The
// "cut" fires on the journal's append path — the only place where dying
// at the wrong instant can damage durable state.
type ProcessKill struct {
	// AfterResults is how many result frames reach the journal intact
	// before the cut: the append of frame AfterResults (0-based) is
	// interrupted.
	AfterResults int
	// TornBytes is how many bytes of the interrupted frame the cut leaves
	// on disk — 0 dies before any byte, a value past the frame length
	// means the frame happened to complete first. Recovery must truncate
	// whatever prefix remains.
	TornBytes int
}

// Tap returns the journal crash tap for this plan: a function of the
// result index alone, so the cut point is independent of worker
// scheduling. Nil receiver yields a nil tap (no cut).
func (k *ProcessKill) Tap() func(i int) (tornBytes int, kill bool) {
	if k == nil {
		return nil
	}
	return func(i int) (int, bool) {
		if i >= k.AfterResults {
			return k.TornBytes, true
		}
		return 0, false
	}
}

// ShardKill is the shard-death member of the power-cut family: the worker
// holding one slice of a sharded run dies right before sending result
// AfterResults (0-based within the slice), so exactly AfterResults results
// of its lease reach the coordinator. The cut is a pure function of the
// result index — independent of which worker holds the lease or how the
// scheduler interleaved them. Over TCP the dying worker first writes
// TornBytes of the interrupted result frame, a torn wire frame the
// receiver's framing must reject. The coordinator sees the connection die
// and a survivor resumes the slice at its journal cursor.
type ShardKill struct {
	// Slice is the 0-based slice whose holder dies.
	Slice int
	// AfterResults is how many results of the slice reach the coordinator
	// before the death.
	AfterResults int
	// TornBytes is how many bytes of the interrupted result frame go out
	// on a TCP wire before the death.
	TornBytes int
}

// NetTTL is the lease TTL, in logical network ticks, that the simulated
// transport (internal/shardnet) uses by default. Network fault durations
// are drawn relative to it so a derived delay or partition is guaranteed
// to straddle at least one lease deadline — short enough to heal, long
// enough that the takeover machinery actually fires.
const NetTTL = 64

// NetDelay holds one slice's result frame in flight for Ticks of the
// network clock while later frames (heartbeats included) overtake it —
// the reordering drill: the lease must survive on heartbeats alone and
// the coordinator must not write the late frame out of order.
type NetDelay struct {
	// Slice and Item name the result frame that is delayed.
	Slice int
	Item  int
	// Ticks is the extra in-flight time on the network's logical clock.
	Ticks int64
}

// NetDrop silently discards one slice's result frame and severs the
// connection that carried it — a reliable stream is in-order-or-dead, so
// a lost frame means a dead conn. The worker must reconnect with backoff
// and be re-granted the slice at its resume point.
type NetDrop struct {
	Slice int
	Item  int
}

// NetDup delivers one slice's result frame twice. The coordinator must
// admit it exactly once: the duplicate arrives after the original has
// advanced the slice cursor and is discarded as already-journaled.
type NetDup struct {
	Slice int
	Item  int
}

// NetPartition silently drops every frame, both directions, on the
// connection holding Slice — starting when the holder sends result frame
// AfterItem — for Ticks of the network clock. Neither side learns the
// link is gone; only heartbeat silence does: the lease expires, a
// survivor takes over, and the healed zombie's stale-epoch frames must be
// fenced away from the slice WAL. This is the split-brain drill: two live
// workers believing they own one slice.
type NetPartition struct {
	Slice     int
	AfterItem int
	Ticks     int64
}

// NetChaos groups the network fault family for one transported sharded
// run. A nil chaos injects nothing; all accessors are nil-safe. At most
// one fault of each kind applies per slice and each fires once.
type NetChaos struct {
	Delays     []NetDelay
	Drops      []NetDrop
	Dups       []NetDup
	Partitions []NetPartition
}

// Any reports whether the chaos injects anything. Nil-safe.
func (n *NetChaos) Any() bool {
	return n != nil && (len(n.Delays) > 0 || len(n.Drops) > 0 ||
		len(n.Dups) > 0 || len(n.Partitions) > 0)
}

// Faults counts the injected network faults. Nil-safe.
func (n *NetChaos) Faults() int {
	if n == nil {
		return 0
	}
	return len(n.Delays) + len(n.Drops) + len(n.Dups) + len(n.Partitions)
}

// DelayFor returns the in-flight delay for (slice, item), or 0, false.
// Nil-safe.
func (n *NetChaos) DelayFor(slice, item int) (int64, bool) {
	if n == nil {
		return 0, false
	}
	for _, d := range n.Delays {
		if d.Slice == slice && d.Item == item {
			return d.Ticks, true
		}
	}
	return 0, false
}

// DropFor reports whether the result frame (slice, item) is dropped
// (severing its connection). Nil-safe.
func (n *NetChaos) DropFor(slice, item int) bool {
	if n == nil {
		return false
	}
	for _, d := range n.Drops {
		if d.Slice == slice && d.Item == item {
			return true
		}
	}
	return false
}

// DupFor reports whether the result frame (slice, item) is delivered
// twice. Nil-safe.
func (n *NetChaos) DupFor(slice, item int) bool {
	if n == nil {
		return false
	}
	for _, d := range n.Dups {
		if d.Slice == slice && d.Item == item {
			return true
		}
	}
	return false
}

// PartitionFor returns the partition starting at result frame
// (slice, item), or 0, false. Nil-safe.
func (n *NetChaos) PartitionFor(slice, item int) (int64, bool) {
	if n == nil {
		return 0, false
	}
	for _, p := range n.Partitions {
		if p.Slice == slice && p.AfterItem == item {
			return p.Ticks, true
		}
	}
	return 0, false
}

// ShardPlan groups the shard fault families for one sharded run: worker
// deaths and the network faults of the simulated transport. A nil plan
// injects nothing. At most one kill applies per slice and, like
// ProcessKill, it fires once — the takeover run of the same slice does not
// re-die, mirroring a machine that crashed and was replaced.
type ShardPlan struct {
	Kills []ShardKill
	Net   *NetChaos
}

// Any reports whether the plan injects anything. Nil-safe.
func (p *ShardPlan) Any() bool {
	return p != nil && (len(p.Kills) > 0 || p.Net.Any())
}

// KillFor returns the kill fault for slice, or nil. Nil-safe.
func (p *ShardPlan) KillFor(slice int) *ShardKill {
	if p == nil {
		return nil
	}
	for i := range p.Kills {
		if p.Kills[i].Slice == slice {
			return &p.Kills[i]
		}
	}
	return nil
}

// KillTap renders the kill family as a worker kill tap: it reports
// (TornBytes, true) for the result (slice, AfterResults) of a planned
// kill, once per slice however many workers share the tap, and nil for a
// plan without kills. Nil-safe.
func (p *ShardPlan) KillTap() func(slice, item int) (torn int, kill bool) {
	if p == nil || len(p.Kills) == 0 {
		return nil
	}
	var mu sync.Mutex
	fired := map[int]bool{}
	return func(slice, item int) (int, bool) {
		k := p.KillFor(slice)
		if k == nil || k.AfterResults != item {
			return 0, false
		}
		mu.Lock()
		defer mu.Unlock()
		if fired[slice] {
			return 0, false
		}
		fired[slice] = true
		return k.TornBytes, true
	}
}

// NetFaults returns the plan's network chaos (nil for a nil plan).
// Nil-safe, like every other accessor on the plan.
func (p *ShardPlan) NetFaults() *NetChaos {
	if p == nil {
		return nil
	}
	return p.Net
}

// DeriveShardPlan seeds a shard-death-and-network plan from (seed, rate):
// each slice independently draws whether its holder is killed, whether
// its holder is partitioned into a lease expiry, and which network
// pathologies (delay, drop, duplicate delivery, partition) hit its result
// stream, with every cut point drawn from the slice's item count. The
// chaos sweep uses this so rising fault rates kill shards and degrade the
// wire too.
//
// Progress caps: kills stay capped at workers-1 so at least one worker
// survives, and the progress-hampering faults — kills, drops (they sever
// the holder's connection) and partitions — together number at most
// len(sliceItems)-1, so at least one shard always makes progress on a
// never-severed link. Delay durations and partition windows are drawn
// relative to NetTTL so they straddle a lease deadline. Rate 0 yields
// nil.
//
// The expiry partitions are placed last, into whatever room the cap
// leaves, each drawn from its slice's kill stream after the kill draws,
// so they never move a kill or a network-family draw.
func DeriveShardPlan(seed int64, rate float64, workers int, sliceItems []int) *ShardPlan {
	if rate <= 0 {
		return nil
	}
	p := &ShardPlan{}
	net := &NetChaos{}
	kills := 0
	hampered := 0
	maxHampered := len(sliceItems) - 1
	rngs := make([]*detrand.Source, len(sliceItems))
	killed := make([]bool, len(sliceItems))
	for slice, items := range sliceItems {
		if items == 0 {
			continue
		}
		rng := detrand.New(seed).Child("shardfault/" + strconv.Itoa(slice))
		rngs[slice] = rng
		if kills < workers-1 && hampered < maxHampered && rng.Bool(rate) {
			p.Kills = append(p.Kills, ShardKill{
				Slice:        slice,
				AfterResults: rng.Intn(items),
				TornBytes:    rng.Intn(24),
			})
			kills++
			hampered++
			killed[slice] = true
		}
		// Network family, drawn from its own child so it leaves the kill
		// draws untouched.
		nrng := detrand.New(seed).Child("netfault/" + strconv.Itoa(slice))
		if nrng.Bool(rate) {
			net.Delays = append(net.Delays, NetDelay{
				Slice: slice,
				Item:  nrng.Intn(items),
				Ticks: NetTTL/2 + int64(nrng.Intn(2*NetTTL)),
			})
		}
		if nrng.Bool(rate) {
			net.Dups = append(net.Dups, NetDup{Slice: slice, Item: nrng.Intn(items)})
		}
		if !killed[slice] && hampered < maxHampered && nrng.Bool(rate) {
			net.Drops = append(net.Drops, NetDrop{Slice: slice, Item: nrng.Intn(items)})
			hampered++
		} else if !killed[slice] && hampered < maxHampered && nrng.Bool(rate) {
			net.Partitions = append(net.Partitions, NetPartition{
				Slice:     slice,
				AfterItem: nrng.Intn(items),
				Ticks:     NetTTL + int64(nrng.Intn(2*NetTTL)),
			})
			hampered++
		}
	}
	// Expiry partitions: a live holder goes silent after at least one
	// result, at most one partition per slice. The partition may start at
	// the slice's final result, which is then lost with the link and
	// recomputed by the takeover.
	partitioned := map[int]bool{}
	for _, np := range net.Partitions {
		partitioned[np.Slice] = true
	}
	for slice, items := range sliceItems {
		if items < 2 || killed[slice] || partitioned[slice] || hampered >= maxHampered || !rngs[slice].Bool(rate) {
			continue
		}
		net.Partitions = append(net.Partitions, NetPartition{
			Slice:     slice,
			AfterItem: 1 + rngs[slice].Intn(items-1),
			Ticks:     NetTTL + int64(rngs[slice].Intn(2*NetTTL)),
		})
		hampered++
	}
	if net.Any() {
		p.Net = net
	}
	if !p.Any() {
		return nil
	}
	return p
}
