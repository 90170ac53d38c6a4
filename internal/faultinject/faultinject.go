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
	"maps"
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

// NetTTL is the lease TTL, in logical ticks of the simulated transport
// (internal/shardnet), that a coordinator uses unless given one. Network
// fault durations are drawn relative to it so a derived delay or
// partition is guaranteed to straddle at least one lease deadline —
// short enough to heal, long enough that the takeover machinery actually
// fires.
const NetTTL = 64

// Frame names one result frame of a sharded run: result Item (0-based
// within the slice) of slice Slice.
type Frame struct{ Slice, Item int }

// FrameFaults are the shard faults that hit one result frame. Each is a
// pure function of the frame — independent of which worker holds the
// lease or how the scheduler interleaved them.
type FrameFaults struct {
	// Kill is the shard-death member of the power-cut family: the worker
	// sending the frame dies right before it, so exactly Item results of
	// its lease reach the coordinator. Over TCP the dying worker first
	// writes TornBytes of the frame, a torn wire frame the receiver's
	// framing must reject. The coordinator sees the connection die and a
	// survivor resumes the slice at its journal cursor.
	Kill      bool
	TornBytes int
	// Drop silently discards the frame and severs the connection that
	// carried it — a reliable stream is in-order-or-dead, so a lost frame
	// means a dead conn. The worker must reconnect with backoff and be
	// re-granted the slice at its resume point.
	Drop bool
	// Dup delivers the frame twice. The coordinator must admit it exactly
	// once: the duplicate arrives after the original has advanced the
	// slice cursor and is discarded as already journaled.
	Dup bool
	// Delay holds the frame in flight for that many extra ticks of the
	// network clock while later frames (heartbeats included) overtake it
	// — the reordering drill: the lease must survive on heartbeats alone
	// and the coordinator must not write the late frame out of order.
	Delay int64
	// Partition silently drops every frame, both directions, on the
	// connection sending this one — this frame included — for that many
	// ticks of the network clock. Neither side learns the link is gone;
	// only heartbeat silence does: the lease expires, a survivor takes
	// over, and the healed zombie's stale-epoch frames must be fenced away
	// from the slice WAL. This is the split-brain drill: two live workers
	// believing they own one slice.
	Partition int64
}

// ShardPlan is the fault table of one sharded run: the faults that hit
// each result frame. A nil plan injects nothing. Kills act in the worker,
// so they fire on every transport; the network kinds are injected by the
// simulated transport only. A plan is armed once per run (Arm), and each
// kind of each frame fires once — the takeover's resend of a frame does
// not re-die or re-drop, mirroring a machine that crashed and was
// replaced.
type ShardPlan map[Frame]FrameFaults

// Arm returns the plan's fire-once view for one run. A nil or empty plan
// arms to nil, which fires nothing.
func (p ShardPlan) Arm() *ArmedPlan {
	if len(p) == 0 {
		return nil
	}
	return &ArmedPlan{left: maps.Clone(p)}
}

// ArmedPlan holds the faults of a plan that have not fired yet in one
// run. Every worker's kill tap and every connection of the simulated
// network consult the same view, so a fault fires once however many of
// them see its frame. Safe for concurrent use; a nil view fires nothing.
type ArmedPlan struct {
	mu   sync.Mutex
	left map[Frame]FrameFaults
}

// Kill is the worker kill tap: it reports whether the worker about to
// send result (slice, item) dies first, and how many bytes of the frame
// it tears.
func (a *ArmedPlan) Kill(slice, item int) (torn int, kill bool) {
	if a == nil {
		return 0, false
	}
	a.mu.Lock()
	defer a.mu.Unlock()
	f := Frame{slice, item}
	ff := a.left[f]
	if !ff.Kill {
		return 0, false
	}
	torn = ff.TornBytes
	ff.Kill, ff.TornBytes = false, 0
	a.putLocked(f, ff)
	return torn, true
}

// Send returns the network faults that hit this send of result frame
// (slice, item). A partition swallows the frame and a drop severs its
// connection, so either fires alone and the frame's other network faults
// wait for the takeover's resend; a delay and a duplicate fire together.
// Kill is never reported here.
func (a *ArmedPlan) Send(slice, item int) FrameFaults {
	if a == nil {
		return FrameFaults{}
	}
	a.mu.Lock()
	defer a.mu.Unlock()
	f := Frame{slice, item}
	ff, ok := a.left[f]
	if !ok {
		return FrameFaults{}
	}
	var hit FrameFaults
	switch {
	case ff.Partition > 0:
		hit.Partition, ff.Partition = ff.Partition, 0
	case ff.Drop:
		hit.Drop, ff.Drop = true, false
	default:
		hit.Delay, hit.Dup = ff.Delay, ff.Dup
		ff.Delay, ff.Dup = 0, false
	}
	a.putLocked(f, ff)
	return hit
}

// putLocked stores what is left of frame f's faults, forgetting a frame
// whose faults have all fired.
func (a *ArmedPlan) putLocked(f Frame, ff FrameFaults) {
	if ff == (FrameFaults{}) {
		delete(a.left, f)
	} else {
		a.left[f] = ff
	}
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
// never-severed link. Each slice draws at most one fault of each kind, and
// no drop or partition on a killed slice. Delay durations and partition
// windows are drawn relative to NetTTL so they straddle a lease deadline.
// Rate 0 yields nil.
//
// The expiry partitions are placed last, into whatever room the cap
// leaves, each drawn from its slice's kill stream after the kill draws,
// so they never move a kill or a network-family draw.
func DeriveShardPlan(seed int64, rate float64, workers int, sliceItems []int) ShardPlan {
	if rate <= 0 {
		return nil
	}
	p := ShardPlan{}
	add := func(slice, item int, set func(*FrameFaults)) {
		f := Frame{slice, item}
		ff := p[f]
		set(&ff)
		p[f] = ff
	}
	kills := 0
	hampered := 0
	maxHampered := len(sliceItems) - 1
	rngs := make([]*detrand.Source, len(sliceItems))
	killed := make([]bool, len(sliceItems))
	partitioned := make([]bool, len(sliceItems))
	for slice, items := range sliceItems {
		if items == 0 {
			continue
		}
		rng := detrand.New(seed).Child("shardfault/" + strconv.Itoa(slice))
		rngs[slice] = rng
		if kills < workers-1 && hampered < maxHampered && rng.Bool(rate) {
			add(slice, rng.Intn(items), func(ff *FrameFaults) { ff.Kill, ff.TornBytes = true, rng.Intn(24) })
			kills++
			hampered++
			killed[slice] = true
		}
		// Network family, drawn from its own child so it leaves the kill
		// draws untouched.
		nrng := detrand.New(seed).Child("netfault/" + strconv.Itoa(slice))
		if nrng.Bool(rate) {
			add(slice, nrng.Intn(items), func(ff *FrameFaults) { ff.Delay = NetTTL/2 + int64(nrng.Intn(2*NetTTL)) })
		}
		if nrng.Bool(rate) {
			add(slice, nrng.Intn(items), func(ff *FrameFaults) { ff.Dup = true })
		}
		if !killed[slice] && hampered < maxHampered && nrng.Bool(rate) {
			add(slice, nrng.Intn(items), func(ff *FrameFaults) { ff.Drop = true })
			hampered++
		} else if !killed[slice] && hampered < maxHampered && nrng.Bool(rate) {
			add(slice, nrng.Intn(items), func(ff *FrameFaults) { ff.Partition = NetTTL + int64(nrng.Intn(2*NetTTL)) })
			partitioned[slice] = true
			hampered++
		}
	}
	// Expiry partitions: a live holder goes silent after at least one
	// result, at most one partition per slice. The partition may start at
	// the slice's final result, which is then lost with the link and
	// recomputed by the takeover.
	for slice, items := range sliceItems {
		if items < 2 || killed[slice] || partitioned[slice] || hampered >= maxHampered || !rngs[slice].Bool(rate) {
			continue
		}
		rng := rngs[slice]
		add(slice, 1+rng.Intn(items-1), func(ff *FrameFaults) { ff.Partition = NetTTL + int64(rng.Intn(2*NetTTL)) })
		hampered++
	}
	if len(p) == 0 {
		return nil
	}
	return p
}
