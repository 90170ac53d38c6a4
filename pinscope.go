// Package pinscope reproduces the measurement study "A Comparative
// Analysis of Certificate Pinning in Android & iOS" (Pradeep et al.,
// ACM IMC 2022) end to end on a deterministic, fully simulated mobile
// ecosystem: app stores, app packages, devices, a TLS wire emulation, a
// MITM interception proxy, and instrumentation hooks.
//
// The package is the public face of the library. A Study runs the
// complete pipeline — dataset crawling, static analysis of app packages,
// differential dynamic analysis with and without interception, pinning
// circumvention and PII inspection — and exposes every table and figure of
// the paper's evaluation both as typed data and as rendered text.
//
// Quick use:
//
//	study, err := pinscope.Run(pinscope.MiniConfig(42))
//	...
//	fmt.Println(study.Report(pinscope.SecTable3))
//
// Everything is reproducible: the same Config yields identical results.
package pinscope

import (
	"errors"
	"fmt"
	"io"
	"sort"

	"pinscope/internal/appmodel"
	"pinscope/internal/core"
	"pinscope/internal/faultinject"
	"pinscope/internal/journal"
	"pinscope/internal/report"
	"pinscope/internal/shardnet"
	"pinscope/internal/worldgen"
)

// Config sizes and seeds a study.
type Config struct {
	// Seed determines the entire world; equal seeds give equal results.
	Seed int64
	// CommonSize, PopularSize, RandomSize are per-platform dataset sizes.
	// Zero values default to the paper's 575/1,000/1,000.
	CommonSize, PopularSize, RandomSize int
	// StoreAndroid/StoreIOS size the store populations (zero → defaults).
	StoreAndroid, StoreIOS int
	// Window is the dynamic capture window in seconds (zero → 30).
	Window float64
	// Workers caps parallelism (zero → GOMAXPROCS).
	Workers int
	// FaultRate, when positive, injects deterministic operational faults
	// (connection resets, capture drops/truncation, app crashes, decryption
	// and proxy-forge failures) into every pipeline layer at this uniform
	// per-class probability. Zero keeps the study byte-identical to a
	// fault-free build.
	FaultRate float64
	// Retries bounds extra per-app measurement attempts under faults
	// (zero → 2 when FaultRate > 0; ignored otherwise).
	Retries int
	// JournalPath, when set, streams every completed per-app result into an
	// append-only, checksummed write-ahead journal at this path, making the
	// run crash-only: kill the process at any instant and the journaled
	// results survive. A journal already at the path, from a killed run
	// with an identical configuration, is resumed: its results replay
	// instead of being re-measured, and the finished study's export is
	// byte-identical to an uninterrupted run's.
	JournalPath string
	// KillAfter, when positive, simulates a power cut for crash-recovery
	// testing: the run aborts after KillAfter results reach the journal,
	// leaving KillTorn bytes of the interrupted frame on disk. Requires
	// JournalPath.
	KillAfter int
	// KillTorn is the torn-frame length for KillAfter (0: the cut lands
	// cleanly between frames).
	KillTorn int
	// ColdCrypto disables the shared crypto plane (interned forged chains,
	// handshake memoization, shared trust stores), forcing every worker to
	// rebuild and re-verify everything from scratch. The export is
	// byte-identical either way; this exists for equivalence testing and
	// for profiling the uncached pipeline.
	ColdCrypto bool
}

// PaperConfig reproduces the paper-scale study (≈5,000 unique apps).
func PaperConfig() Config {
	p := worldgen.DefaultParams()
	return Config{
		Seed:       p.Seed,
		CommonSize: p.CommonSize, PopularSize: p.PopularSize, RandomSize: p.RandomSize,
		StoreAndroid: p.StoreAndroid, StoreIOS: p.StoreIOS,
		Window: 30,
	}
}

// Config100k sizes a ≈100,000-unique-app universe — the scale the sharded
// coordinator exists for (ROADMAP's step toward the paper's 1.35M-app
// store universe). Dataset proportions follow the paper (≈22× its sizes);
// the store populations grow 10× so the popular cut keeps its meaning.
// Budget tens of minutes per full pass on one core; shard it.
func Config100k(seed int64) Config {
	return Config{
		Seed:       seed,
		CommonSize: 5000, PopularSize: 22500, RandomSize: 22500,
		StoreAndroid: 420000, StoreIOS: 390000,
		Window: 30,
	}
}

// MiniConfig is a laptop-instant miniature study, useful for examples and
// tests.
func MiniConfig(seed int64) Config {
	p := worldgen.TestParams(seed)
	return Config{
		Seed:       seed,
		CommonSize: p.CommonSize, PopularSize: p.PopularSize, RandomSize: p.RandomSize,
		StoreAndroid: p.StoreAndroid, StoreIOS: p.StoreIOS,
		Window: 30,
	}
}

func (c Config) toCore() core.Config {
	p := worldgen.Derive(worldgen.Params{
		Seed:       c.Seed,
		CommonSize: c.CommonSize, PopularSize: c.PopularSize, RandomSize: c.RandomSize,
		StoreAndroid: c.StoreAndroid, StoreIOS: c.StoreIOS,
	})
	cc := core.Config{Params: p, Window: c.Window, Workers: c.Workers, ColdCrypto: c.ColdCrypto}
	if c.FaultRate > 0 {
		cc.Faults = faultinject.NewPlan(p.Seed, faultinject.Uniform(c.FaultRate))
		cc.Retries = c.Retries
		if cc.Retries == 0 {
			cc.Retries = 2
		}
	}
	return cc
}

// kill is the power cut KillAfter and KillTorn arm, or nil.
func (c Config) kill() *faultinject.ProcessKill {
	if c.KillAfter <= 0 {
		return nil
	}
	return &faultinject.ProcessKill{AfterResults: c.KillAfter, TornBytes: c.KillTorn}
}

// Platform identifies a mobile OS in the public API.
type Platform string

const (
	Android Platform = Platform(appmodel.Android)
	IOS     Platform = Platform(appmodel.IOS)
)

// Study is a completed reproduction run.
type Study struct {
	s *core.Study
}

// Run executes the full study for the configuration. With JournalPath set
// the run is crash-only: results stream into the journal as they complete,
// and rerunning over a killed run's journal continues it instead of
// starting over.
func Run(cfg Config) (*Study, error) {
	var (
		s   *core.Study
		err error
	)
	if cfg.JournalPath != "" {
		s, err = core.RunJournaled(cfg.toCore(), cfg.JournalPath, cfg.kill())
	} else {
		s, err = core.Run(cfg.toCore())
	}
	if err != nil {
		return nil, err
	}
	return &Study{s: s}, nil
}

// Resumed reports how many of the study's results were replayed from the
// journal rather than measured by this process (0 for fresh runs).
func (st *Study) Resumed() int { return st.s.Resumed }

// IsKilled reports whether err is an injected process kill (KillAfter): the
// run died by design, its journal is intact, and rerunning continues it.
func IsKilled(err error) bool { return errors.Is(err, journal.ErrKilled) }

// Section names the renderable experiment sections.
type Section string

const (
	SecTable1        Section = "table1"
	SecTable2        Section = "table2"
	SecTable3        Section = "table3"
	SecTable4        Section = "table4"
	SecTable5        Section = "table5"
	SecFigure2       Section = "figure2"
	SecFigure3       Section = "figure3"
	SecFigure4       Section = "figure4"
	SecFigure5       Section = "figure5"
	SecTable6        Section = "table6"
	SecCertAnalysis  Section = "certs"
	SecTable7        Section = "table7"
	SecTable8        Section = "table8"
	SecTable9        Section = "table9"
	SecCircumvention Section = "circumvention"
	SecMisconfigs    Section = "misconfigs"
	SecInteraction   Section = "interaction"
	SecRobustness    Section = "robustness"
)

// Sections lists all renderable sections in paper order.
func Sections() []Section {
	return []Section{
		SecTable1, SecTable2, SecTable3, SecTable4, SecTable5,
		SecFigure2, SecFigure3, SecFigure4, SecFigure5,
		SecTable6, SecCertAnalysis, SecTable7, SecTable8, SecTable9,
		SecCircumvention, SecMisconfigs, SecInteraction, SecRobustness,
	}
}

// Report renders one section as text.
func (st *Study) Report(sec Section) (string, error) {
	s := st.s
	switch sec {
	case SecTable1:
		return report.Table1(s), nil
	case SecTable2:
		return report.Table2(s), nil
	case SecTable3:
		return report.Table3(s), nil
	case SecTable4:
		return report.TableCategories(s, appmodel.Android, minApps(s)), nil
	case SecTable5:
		return report.TableCategories(s, appmodel.IOS, minApps(s)), nil
	case SecFigure2:
		return report.Figure2(s), nil
	case SecFigure3:
		return report.Figure3(s), nil
	case SecFigure4:
		return report.Figure4(s), nil
	case SecFigure5:
		return report.Figure5(s), nil
	case SecTable6:
		return report.Table6(s), nil
	case SecCertAnalysis:
		return report.CertAnalysis(s), nil
	case SecTable7:
		return report.Table7(s, table7Min(s)), nil
	case SecTable8:
		return report.Table8(s), nil
	case SecTable9:
		return report.Table9(s), nil
	case SecCircumvention:
		return report.Circumvention(s), nil
	case SecMisconfigs:
		return report.Misconfigs(s), nil
	case SecInteraction:
		return report.Interaction(s, interactionSample(s)), nil
	case SecRobustness:
		return report.Robustness(s), nil
	}
	return "", fmt.Errorf("pinscope: unknown section %q", sec)
}

// FullReport renders every section.
func (st *Study) FullReport() string {
	return report.Full(st.s)
}

func minApps(s *core.Study) int { return len(s.World.DS.PopularAndroid.Listings)/100 + 1 }

func interactionSample(s *core.Study) int {
	n := len(s.World.DS.PopularAndroid.Listings)
	if n > 400 {
		return 400
	}
	return n
}
func table7Min(s *core.Study) int {
	m := len(s.World.DS.PopularAndroid.Listings) * 5 / 1000
	if m < 2 {
		m = 2
	}
	return m
}

// Verdict is the public per-app result.
type Verdict struct {
	AppID     string
	Name      string
	Developer string
	Platform  Platform
	Category  string

	// Pinned reports run-time pinning detected by the differential
	// dynamic analysis.
	Pinned bool
	// PinnedDomains are the destinations detected as pinned.
	PinnedDomains []string
	// EmbeddedCertMaterial reports static detection (certs or pin hashes
	// in the package).
	EmbeddedCertMaterial bool
	// NSCPinning reports an Android Network Security Configuration
	// pin-set.
	NSCPinning bool
	// CircumventedDomains are pinned destinations whose plaintext the
	// instrumentation hooks exposed.
	CircumventedDomains []string
}

// Verdicts returns every studied app's verdict, sorted by platform then ID.
func (st *Study) Verdicts() []Verdict {
	var out []Verdict
	seen := map[string]bool{}
	for _, ds := range st.s.World.DS.All() {
		for _, r := range st.s.DatasetResults(ds) {
			key := string(r.App.Platform) + "/" + r.App.ID
			if seen[key] {
				continue
			}
			seen[key] = true
			v := Verdict{
				AppID:     r.App.ID,
				Name:      r.App.Name,
				Developer: r.App.Developer,
				Platform:  Platform(r.App.Platform),
				Category:  r.App.Category,
				Pinned:    r.Pinned(),
			}
			if r.Dyn != nil {
				v.PinnedDomains = r.Dyn.PinnedDests()
			}
			if r.Static != nil {
				v.EmbeddedCertMaterial = r.Static.HasCertMaterial()
				v.NSCPinning = r.Static.NSCHasPins
			}
			for d, ok := range r.CircumventedDests {
				if ok {
					v.CircumventedDomains = append(v.CircumventedDomains, d)
				}
			}
			sort.Strings(v.CircumventedDomains)
			out = append(out, v)
		}
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i].Platform != out[j].Platform {
			return out[i].Platform < out[j].Platform
		}
		return out[i].AppID < out[j].AppID
	})
	return out
}

// PinningRate returns the dynamic pinning rate (percent) for a dataset
// ("Common", "Popular", "Random") on a platform.
func (st *Study) PinningRate(dataset string, platform Platform) (float64, error) {
	for _, c := range st.s.Table3() {
		if c.Cell.Dataset == dataset && Platform(c.Cell.Platform) == platform {
			if c.N == 0 {
				return 0, nil
			}
			return 100 * float64(c.Dynamic) / float64(c.N), nil
		}
	}
	return 0, fmt.Errorf("pinscope: unknown dataset %q / platform %q", dataset, platform)
}

// Advice is one per-destination pinning recommendation for an app,
// derived from the study's measurements (ownership, sensitivity, current
// policy here and on the sibling platform).
type Advice struct {
	Host      string
	Pin       bool
	Strategy  string
	Mechanism string
	Rationale []string
	Warnings  []string
}

// AdviseApp returns pinning guidance for one studied app — the
// developer-guideline output the paper's discussion calls for (§5.7).
func (st *Study) AdviseApp(platform Platform, appID string) ([]Advice, error) {
	recs, err := st.s.AdviceByID(appmodel.Platform(platform), appID)
	if err != nil {
		return nil, err
	}
	out := make([]Advice, 0, len(recs))
	for _, r := range recs {
		out = append(out, Advice{
			Host:      r.Host,
			Pin:       r.Pin,
			Strategy:  r.Strategy.String(),
			Mechanism: r.Mechanism,
			Rationale: r.Rationale,
			Warnings:  r.Warnings,
		})
	}
	return out, nil
}

// ValidationReport renders the detector's confusion matrix against
// generator ground truth. This is simulation-only self-validation (the real
// study had no ground truth) and is therefore not part of FullReport.
func (st *Study) ValidationReport() string {
	return report.Quality(st.s)
}

// ExportDataset writes the study's shareable dataset (per-app verdicts and
// pinned-destination classifications) as JSON — the counterpart of the
// dataset the paper releases for reproducibility.
func (st *Study) ExportDataset(w io.Writer) error {
	return st.s.WriteJSON(w)
}

// SleepSweep reruns a sample of apps at the given capture windows and
// reports average handshake counts (§4.2.1).
func (st *Study) SleepSweep(windows []float64, sample int) (string, error) {
	points, err := core.SleepSweep(st.s.World, st.s.Cfg.Params.Seed, windows, sample)
	if err != nil {
		return "", err
	}
	return report.Sweep(points), nil
}

// Ablations reruns a sample of apps under degraded detector variants and
// reports the damage each ablation causes.
func (st *Study) Ablations(sample int) (string, error) {
	rows, err := core.RunAblations(st.s.World, st.s.Cfg.Params.Seed, sample)
	if err != nil {
		return "", err
	}
	return report.Ablations(rows), nil
}

// ChaosReport runs the full study once per fault rate (plus a fault-free
// reference) and renders how far the Table 3 dynamic prevalences drift as
// operational faults rise — the robustness envelope of the methodology.
// Positive-rate points additionally rerun as a 4-shard sharded study under
// a derived shard fault plan — worker kills and network faults — and
// verify the merged export matches. Each point is a complete study on a
// fresh world; budget accordingly.
func ChaosReport(cfg Config, rates []float64) (string, error) {
	points, err := core.ChaosSweep(cfg.toCore(), rates)
	if err != nil {
		return "", err
	}
	return report.Chaos(points), nil
}

// ShardOptions configures a sharded, crash-tolerant study run.
type ShardOptions struct {
	// Shards is the number of contiguous slices the app universe is cut
	// into; each slice journals into its own WAL under Dir.
	Shards int
	// Workers sizes the worker pool measuring the slices (0 → one per
	// shard). Workers hold slices under time-bounded leases: a dead or
	// silent worker loses its lease, and a survivor resumes its slice
	// from the journal instead of recomputing it.
	Workers int
	// Dir is the shard-journal directory (created if missing). Rerunning
	// over an interrupted run's directory resumes it.
	Dir string
	// Kills deterministically kills the worker holding a slice (for
	// crash-drill runs): slice index → results sent before the death.
	Kills []ShardKill
	// KillTorn is how many bytes of the interrupted result frame each
	// injected kill writes on the wire before dying — a torn wire frame
	// the coordinator's framing must reject. Only a real wire
	// (RunShardedTCP) carries torn bytes; the simulated network simply
	// severs the connection.
	KillTorn int
}

// ShardKill names one injected shard death: the holder of Slice dies right
// before sending result AfterResults (0-based within the slice).
type ShardKill struct {
	Slice        int
	AfterResults int
}

func (o ShardOptions) plan(torn int) *faultinject.ShardPlan {
	if len(o.Kills) == 0 {
		return nil
	}
	p := &faultinject.ShardPlan{}
	for _, k := range o.Kills {
		p.Kills = append(p.Kills, faultinject.ShardKill{
			Slice: k.Slice, AfterResults: k.AfterResults, TornBytes: torn,
		})
	}
	return p
}

// ShardStats reports what a sharded run's coordinator observed.
type ShardStats struct {
	// Workers counts worker connections welcomed (a reconnect counts
	// again); Shards echoes the run shape.
	Workers, Shards int
	// WorkersKilled counts injected shard deaths that fired.
	WorkersKilled int
	// LeasesExpired counts leases that timed out on a silent holder (a
	// holder whose connection died loses its lease without expiring);
	// Reassigned counts grants of a slice that had a holder before.
	LeasesExpired, Reassigned int
	// ResumedFrames counts results found in shard journals instead of
	// recomputed — on takeover within a run and on rerun of a killed run.
	ResumedFrames int
}

// RunSharded executes the study as opts.Shards crash-only slices under
// lease-based coordination, with the worker fleet in this process talking
// to the coordinator over a simulated in-memory network, and leaves one
// journal per slice in opts.Dir. It returns statistics, not a Study: fold
// the journals into the canonical dataset with MergeShards. If workers die
// (injected via opts.Kills or a real crash killing the process), rerunning
// with the same configuration resumes from the journals; MergeShards then
// produces a dataset byte-identical to an unsharded Run + ExportDataset of
// the same Config.
func RunSharded(cfg Config, opts ShardOptions) (*ShardStats, error) {
	cc := cfg.toCore()
	if cfg.JournalPath != "" || cfg.KillAfter > 0 {
		return nil, errors.New("pinscope: sharded runs journal per shard; JournalPath and KillAfter do not apply")
	}
	stats, err := core.RunSharded(cc, core.ShardedConfig{
		Shards:  opts.Shards,
		Workers: opts.Workers,
		Dir:     opts.Dir,
		Faults:  opts.plan(opts.KillTorn),
	})
	if stats == nil {
		return nil, err
	}
	return &netShardStats(stats).ShardStats, err
}

// NetShardStats reports a sharded run with the transport's own counters
// besides the shard accounting.
type NetShardStats struct {
	ShardStats
	// Fenced counts zombie-epoch frames refused after a lease takeover;
	// Duplicates counts deliveries discarded as already journaled;
	// Reordered counts results buffered ahead of the slice cursor;
	// SendRetries counts coordinator send attempts beyond the first;
	// ConnDrops counts connections that died or were declared dead.
	Fenced, Duplicates, Reordered, SendRetries, ConnDrops int
}

func netShardStats(stats *shardnet.Stats) *NetShardStats {
	return &NetShardStats{
		ShardStats: ShardStats{
			Workers: stats.Workers, Shards: stats.Slices,
			WorkersKilled: stats.WorkersKilled,
			LeasesExpired: stats.Expired, Reassigned: stats.Reassigned,
			ResumedFrames: stats.ResumedFrames,
		},
		Fenced:      stats.Fenced,
		Duplicates:  stats.Duplicates,
		Reordered:   stats.Reordered,
		SendRetries: stats.SendRetries,
		ConnDrops:   stats.ConnDrops,
	}
}

// RunShardedTCP is RunSharded over real loopback TCP: the coordinator
// listens on 127.0.0.1, workers dial it, and every frame crosses an
// actual socket under the same CRC-checked framing the journals use.
// Network chaos is not injected — the wire is real — but injected worker
// kills still fire, leaving torn wire frames the framing must reject.
func RunShardedTCP(cfg Config, opts ShardOptions) (*NetShardStats, error) {
	cc := cfg.toCore()
	if cfg.JournalPath != "" || cfg.KillAfter > 0 {
		return nil, errors.New("pinscope: sharded runs journal per shard; JournalPath and KillAfter do not apply")
	}
	stats, err := core.RunShardedTCP(cc, core.ShardedConfig{
		Shards:  opts.Shards,
		Workers: opts.Workers,
		Dir:     opts.Dir,
		Faults:  opts.plan(opts.KillTorn),
	})
	if stats == nil {
		return nil, err
	}
	return netShardStats(stats), err
}

// ServeShards runs the coordinator half of a cross-machine sharded study:
// it listens on addr (host:port), ships each connecting worker the run's
// configuration, and returns once every slice is journaled under
// opts.Dir — merge them with MergeShards. It waits for workers rather
// than failing when none are connected, so workers may be started after,
// or restarted during, the run; an interrupted serve resumes from the
// journals like any sharded run.
func ServeShards(cfg Config, opts ShardOptions, addr string) (*NetShardStats, error) {
	cc := cfg.toCore()
	if cfg.JournalPath != "" || cfg.KillAfter > 0 {
		return nil, errors.New("pinscope: sharded runs journal per shard; JournalPath and KillAfter do not apply")
	}
	stats, err := core.ServeShards(cc, core.ShardedConfig{
		Shards:  opts.Shards,
		Workers: opts.Workers,
		Dir:     opts.Dir,
	}, addr)
	if stats == nil {
		return nil, err
	}
	return netShardStats(stats), err
}

// ConnectShardWorker runs the worker half of a cross-machine sharded
// study: it dials the coordinator at addr, rebuilds the measurement bench
// from the run configuration it is handed (seed and parameters cross the
// wire, never data), and works granted slices until the coordinator
// reports the run done. scope labels this worker in backoff derivations
// so two workers never jitter in lockstep.
func ConnectShardWorker(addr, scope string) error {
	return core.ConnectShardWorker(addr, scope)
}

// TimelineOptions configures a longitudinal run: the same app universe
// replayed "as of" each selected root-program timeline point (platform
// releases and distrust events — see internal/rootprogram).
type TimelineOptions struct {
	// Points selects timeline point tags (releases like "froyo" or
	// "kitkat", distrust events like "distrust-ca-distrust"); empty means
	// every point. Tags resolve to timeline order regardless of input
	// order.
	Points []string
	// Dir, when set, makes the sweep crash-only: each point journals into
	// Dir/point-<tag>.wal, and rerunning over the directory resumes a
	// killed sweep — completed points replay, the interrupted point
	// resumes mid-journal. Per-point exports are byte-identical to an
	// uninterrupted sweep's.
	Dir string
	// KillAtPoint arms Config.KillAfter for only the named point, so a
	// crash drill can cut the sweep mid-timeline after earlier points
	// completed. Empty arms it at every point. Only journaled sweeps
	// (Dir set) can be cut.
	KillAtPoint string
}

// TimelineStudy is a completed longitudinal sweep: one Study per measured
// timeline point, plus the time-axis aggregates over them.
type TimelineStudy struct {
	ls *core.LongitudinalStudy
}

// RunTimeline executes the longitudinal study mode. The world is built
// once; each point then re-measures every app against the root stores in
// force at that point (release stores minus roots distrusted by then).
func RunTimeline(cfg Config, opts TimelineOptions) (*TimelineStudy, error) {
	if cfg.JournalPath != "" {
		return nil, errors.New("pinscope: timeline runs journal per point; use TimelineOptions.Dir, not JournalPath")
	}
	ls, err := core.RunLongitudinal(cfg.toCore(), core.TimelineConfig{
		Points: opts.Points, Dir: opts.Dir, Kill: cfg.kill(), KillAtPoint: opts.KillAtPoint,
	})
	if err != nil {
		return nil, err
	}
	return &TimelineStudy{ls: ls}, nil
}

// Points lists the measured timeline point tags in timeline order.
func (ts *TimelineStudy) Points() []string {
	out := make([]string, 0, len(ts.ls.Points))
	for _, p := range ts.ls.Points {
		out = append(out, p.Point.Tag)
	}
	return out
}

// Resumed reports how many results across all points were replayed from
// point journals rather than measured by this process.
func (ts *TimelineStudy) Resumed() int {
	n := 0
	for _, p := range ts.ls.Points {
		n += p.Study.Resumed
	}
	return n
}

// Report renders the full time-axis report: the timeline itself, Table 3
// over time, per-point breakage, and the transition deltas.
func (ts *TimelineStudy) Report() string { return report.Longitudinal(ts.ls) }

// ExportPoint writes one point's dataset as JSON — the standard snapshot
// shape with Meta.Release stamped to the point tag, loadable by pinserve
// for distrust-impact queries.
func (ts *TimelineStudy) ExportPoint(w io.Writer, tag string) error {
	return ts.ls.ExportPoint(w, tag)
}

// PointStudy returns one timeline point's completed study, or an error
// for an unmeasured tag.
func (ts *TimelineStudy) PointStudy(tag string) (*Study, error) {
	p := ts.ls.Result(tag)
	if p == nil {
		return nil, fmt.Errorf("pinscope: no measured timeline point %q", tag)
	}
	return &Study{s: p.Study}, nil
}

// MergeShards streams a completed sharded run's journals into one exported
// dataset, byte-identical to the unsharded export of the same Config. It
// needs only the journals and the Config — it never builds the world — so
// it can run in any later process. The merge is bounded-memory — one
// journal frame in flight at a time — and fails loudly if any shard
// journal is incomplete, corrupt, from a different run or shard layout, or
// disagrees with another about a destination's probe.
func MergeShards(w io.Writer, cfg Config, opts ShardOptions) error {
	return core.MergeShards(w, cfg.toCore(), core.ShardedConfig{
		Shards: opts.Shards,
		Dir:    opts.Dir,
	})
}
